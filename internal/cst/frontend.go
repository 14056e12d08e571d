package cst

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/omc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Reason classifies why a version was sent to the OMC; the enum is shared
// with the baselines' hierarchy.
type Reason = cache.Reason

// Version write-back reasons.
const (
	ReasonCapacity   = cache.ReasonCapacity   // L2 LRU victim
	ReasonCoherence  = cache.ReasonCoherence  // inter-VD invalidation / downgrade
	ReasonWalk       = cache.ReasonWalk       // tag-walker write-back
	ReasonStoreEvict = cache.ReasonStoreEvict // store-eviction displaced an old version out of L2
	ReasonDrain      = cache.ReasonDrain      // end-of-run flush
)

// Backend is the MNM side of NVOverlay as seen by the frontend; *omc.Group
// implements it. The returned cycles are NVM backpressure charged to the
// access that triggered the traffic.
type Backend interface {
	ReceiveVersion(v omc.Version, now uint64) uint64
	ReportMinVer(vd int, ver uint64, now uint64)
	// LowerMinVer conservatively lowers a VD's standing min-ver when a
	// dirty old version migrates into it via cache-to-cache transfer.
	LowerMinVer(vd int, ver uint64, now uint64)
	DumpContext(vd int, epoch, now uint64) uint64
}

// Result reports one access's outcome. Lat is charged to the issuing
// thread; VDStall additionally stalls every core of the VD (epoch advances
// drain and stall the whole domain, §IV-B2). StoreOID is the epoch tag the
// version access protocol assigned to a store (0 for loads); differential
// verification feeds it to the golden shadow-memory model so the golden
// image can be versioned exactly as the hardware versioned the write.
type Result struct {
	Lat      uint64
	VDStall  uint64
	StoreOID uint64
}

// Frontend is the version-tagged cache hierarchy of NVOverlay: the version
// access protocol over the shared cache.Levels (embedded by value), with
// per-VD inclusive L2s over a non-inclusive victim LLC. Snapshot versions
// leaving a VD go to the Backend via the LLC-bypass path.
type Frontend struct {
	cache.Levels
	backend Backend
	dram    *mem.DRAM

	cur       []uint64 // per-VD current epoch (starts at 1)
	storeCnt  []int    // stores in the current epoch, per VD
	totStores []uint64 // lifetime stores per VD (epoch-size schedule input)

	// Opportunistic tag walker state (§IV-C): at an epoch advance the
	// walker snapshots the VD's stale dirty versions (legal: they are
	// immutable) and drains them to the OMC a few per subsequent access,
	// spreading the write-back bandwidth across the epoch instead of
	// bursting at the boundary. min-ver is reported once the queue drains.
	walkQ      []walkQueue
	walkReport []uint64 // epoch to report once walkQ[vd] empties (0 = none)
	// dirtyInflow marks VDs that received a dirty cache-to-cache transfer
	// of an old epoch since their last tag walk. A walk cleans every dirty
	// line older than cur, and stores only dirty lines at cur, so such a
	// transfer is the only way a stale dirty version can exist at min-ver
	// report time: when the flag is clear the report is provably cur and
	// the walker skips the full L1+L2 rescan (the dominant cost of
	// coherence-driven advances at 64+ domains). CheckInvariants
	// cross-checks the claim against the actual cache contents.
	dirtyInflow []bool
	walker      bool
	wrap        *WrapSpace
	wrapFlush   int // group-transition flushes performed

	// Transient per-access accounting.
	now      uint64
	stall    uint64
	vdStall  uint64
	storeOID uint64

	stat *stats.Set
	bus  *obs.Bus // nil when the run is unobserved
}

// New builds the frontend. The tag walker is enabled per cfg.TagWalker; the
// wrap-around protocol runs when cfg.WrapWidth is non-zero.
func New(cfg *sim.Config, dram *mem.DRAM, backend Backend) *Frontend {
	f := &Frontend{
		Levels:      cache.NewLevels(cfg),
		backend:     backend,
		dram:        dram,
		cur:         make([]uint64, cfg.VDs()),
		storeCnt:    make([]int, cfg.VDs()),
		totStores:   make([]uint64, cfg.VDs()),
		walkQ:       make([]walkQueue, cfg.VDs()),
		walkReport:  make([]uint64, cfg.VDs()),
		dirtyInflow: make([]bool, cfg.VDs()),
		walker:      cfg.TagWalker,
		stat:        stats.FromTable("cst", counterNames[:]),
		bus:         cfg.Obs,
	}
	for vd := range f.cur {
		f.cur[vd] = 1 // epoch 0 is reserved as "before all snapshots"
	}
	if cfg.WrapWidth != 0 {
		f.wrap = NewWrapSpace(cfg.WrapWidth)
	}
	return f
}

// CurEpoch returns a VD's current epoch.
func (f *Frontend) CurEpoch(vd int) uint64 { return f.cur[vd] }

// Stats returns a snapshot of the frontend counters.
func (f *Frontend) Stats() *stats.Set { return f.stat.Clone() }

// EvictReason returns how many versions were sent to the OMC for a reason.
func (f *Frontend) EvictReason(r Reason) uint64 { return uint64(f.stat.GetAt(evictSlot(r))) }

// WrapFlushes returns how many group-transition flushes occurred.
func (f *Frontend) WrapFlushes() int { return f.wrapFlush }

// debugSendHook, when non-nil, observes every version send (test-only).
var debugSendHook func(ln cache.Line, reason Reason)

// sendVersion ships a dirty version to the OMC over the LLC-bypass path.
func (f *Frontend) sendVersion(ln cache.Line, reason Reason) {
	if debugSendHook != nil {
		debugSendHook(ln, reason)
	}
	f.stat.IncAt(evictSlot(reason))
	f.bus.Emit(obs.KindVersionEvict, f.now+f.stall, -1, ln.OID, ln.Tag, uint64(reason), 0)
	// Bursts (walks, drains) issue at f.now advanced by the stalls already
	// incurred in this access, so a full NVM queue delays a burst linearly
	// (a blocking bounded queue), not quadratically.
	st := f.backend.ReceiveVersion(omc.Version{Addr: ln.Tag, Epoch: ln.OID, Data: ln.Data}, f.now+f.stall)
	f.stall += st
	f.stat.AddAt(stallFromVersions, int64(st))
}

// persist ships a dirty version to the OMC and refreshes the DRAM working
// copy with it, so the two never part.
func (f *Frontend) persist(ln cache.Line, reason Reason) {
	f.sendVersion(ln, reason)
	f.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
}

// Access performs one memory operation and returns its timing. data is the
// payload token written by stores (ignored for loads).
func (f *Frontend) Access(tid int, addr uint64, write bool, data uint64, now uint64) Result {
	addr = f.Cfg.LineAddr(addr)
	f.now = now
	f.stall = 0
	f.vdStall = 0
	f.storeOID = 0
	var lat uint64
	if write {
		lat = f.store(tid, addr, data)
	} else {
		lat = f.load(tid, addr)
	}
	f.drainWalk(f.Cfg.VDOf(tid))
	return Result{Lat: lat + f.stall, VDStall: f.vdStall, StoreOID: f.storeOID}
}

// walkDrainRate is how many pending walk write-backs the opportunistic
// walker retires per access of its VD.
const walkDrainRate = 4

// walkQueue is one VD's walker backlog: buf[head:] are the versions still
// to ship. Once every queued version has shipped the array is reused from
// its start, so a walk whose previous backlog drained allocates nothing.
type walkQueue struct {
	buf  []cache.Line
	head int
}

// live returns the versions still queued.
func (q *walkQueue) live() []cache.Line { return q.buf[q.head:] }

// pop drops the first n live versions.
func (q *walkQueue) pop(n int) {
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// remove drops live version i, keeping the others in order: the versions
// ahead of it move back one place and the head is popped.
func (q *walkQueue) remove(i int) {
	live := q.live()
	copy(live[1:i+1], live[:i])
	q.pop(1)
}

// flushQueuedWalk immediately ships any queued walk version of addr held
// by vd's walker. Called before the address is handed to another VD
// (invalidation/downgrade): the other domain may produce a newer version
// of the same epoch, and the OMC's per-epoch tables keep the last receipt,
// so the queued copy must be ordered before the transfer.
func (f *Frontend) flushQueuedWalk(vd int, addr uint64) {
	q := &f.walkQ[vd]
	for i, ln := range q.live() {
		if ln.Tag == addr {
			f.persist(ln, ReasonWalk)
			q.remove(i)
			if len(q.live()) == 0 && f.walkReport[vd] != 0 {
				f.reportMinVer(vd)
			}
			return
		}
	}
}

// drainWalk ships a few queued walk versions and reports min-ver when the
// backlog empties.
func (f *Frontend) drainWalk(vd int) {
	q := &f.walkQ[vd]
	live := q.live()
	if len(live) == 0 {
		return
	}
	n := min(walkDrainRate, len(live))
	for _, ln := range live[:n] {
		f.persist(ln, ReasonWalk)
	}
	q.pop(n)
	if len(q.live()) == 0 && f.walkReport[vd] != 0 {
		f.reportMinVer(vd)
	}
}

// reportMinVer sends the VD's min-ver as the smallest version OID still
// unpersisted in the domain *right now* (§IV-C: "updated to the smallest
// version OID encountered"). Rescanning at report time matters: a dirty
// old version may have migrated in via cache-to-cache transfer after the
// walk snapshotted the tags, and the report must not claim it persisted.
func (f *Frontend) reportMinVer(vd int) {
	min := f.cur[vd]
	if f.dirtyInflow[vd] {
		// A stale dirty version may have migrated in since the last walk:
		// rescan for the true minimum. Without inflow the scan is provably
		// a no-op (every dirty line is tagged cur) and is skipped.
		scan := func(ln *cache.Line) {
			if ln.Dirty && ln.OID < min {
				min = ln.OID
			}
		}
		f.Walk(vd, cache.LevelL2, func(_ cache.Level, c *cache.Cache) { c.ForEach(scan) })
	}
	for _, q := range f.walkQ[vd].live() {
		if q.OID < min {
			min = q.OID
		}
	}
	f.bus.Emit(obs.KindWalkEnd, f.now, vd, f.walkReport[vd], 0, min, 0)
	f.walkReport[vd] = 0
	f.backend.ReportMinVer(vd, min, f.now)
}

// ---------------------------------------------------------------------------
// Loads (§IV-A1: lookup ignores the OID tag)

func (f *Frontend) load(tid int, addr uint64) uint64 {
	vd := f.Cfg.VDOf(tid)
	lat := f.Cfg.L1Latency
	if ln := f.L1(tid).Lookup(addr); ln != nil {
		f.stat.IncAt(l1LoadHits)
		return lat
	}
	lat += f.Cfg.L2Latency
	if l2ln := f.L2(vd).Lookup(addr); l2ln != nil {
		f.stat.IncAt(l2LoadHits)
		// Sibling downgrade inside the VD; the sibling's dirty version flows
		// through the L2 with the version check (it may displace an older
		// dirty version to the OMC).
		sibling := false
		lo, hi := f.CoresOf(vd)
		for c := lo; c < hi; c++ {
			if c == tid {
				continue
			}
			if sib := f.L1(c).Peek(addr); sib != nil {
				sibling = true
				if sib.Dirty {
					f.mergeIntoL2(l2ln, *sib, ReasonStoreEvict)
					sib.Dirty = false
				}
				sib.State = cache.Shared
			}
		}
		f.maybeAdvance(vd, l2ln.OID)
		state := cache.Shared
		if l2ln.State != cache.Shared && !sibling {
			state = cache.Exclusive
		}
		f.fillL1(tid, addr, state, l2ln.OID, l2ln.Data, false)
		return lat
	}
	lat += f.Cfg.LLCLatency
	rv, data, e, extra := f.fetch(vd, addr)
	lat += extra
	// e stays valid until fillL2, which may drop an L2 victim's entry:
	// maybeAdvance and the LLC invalidation do not insert into or delete
	// from the directory.
	f.maybeAdvance(vd, rv)
	state := cache.Shared
	if e.Sharers.Only(vd) && e.Owner == -1 {
		state = cache.Exclusive
		e.Sharers = cache.SharerSet{}
		e.Owner = vd
		// An Exclusive grant means no other cached copy may remain: drop
		// the LLC copy (the VD may silently write newer data in place).
		// A dirty LLC copy is written back to DRAM.
		if ln, ok := f.SliceOf(addr).Invalidate(addr); ok && ln.Dirty {
			f.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
			f.stat.IncAt(llcDRAMWritebacks)
		}
	}
	f.fillL2(vd, nil, addr, state, rv, data) // the L2 missed above
	f.fillL1(tid, addr, state, rv, data, false)
	return lat
}

// ---------------------------------------------------------------------------
// Stores (§IV-A1: version access protocol with store-eviction)

func (f *Frontend) store(tid int, addr uint64, data uint64) uint64 {
	vd := f.Cfg.VDOf(tid)
	lat := f.Cfg.L1Latency
	if ln := f.L1(tid).Lookup(addr); ln != nil && ln.State.Writable() {
		f.stat.IncAt(l1StoreHits)
		f.performStore(tid, vd, ln, data)
		f.bumpStore(vd)
		return lat
	}
	lat += f.Cfg.L2Latency
	l2ln := f.L2(vd).Lookup(addr)
	if l2ln != nil && l2ln.State.Writable() {
		f.stat.IncAt(l2StoreHits)
		lo, hi := f.CoresOf(vd)
		for c := lo; c < hi; c++ {
			if c == tid {
				continue
			}
			if removed, ok := f.L1(c).Invalidate(addr); ok && removed.Dirty {
				f.mergeIntoL2(l2ln, removed, ReasonStoreEvict)
			}
		}
		f.maybeAdvance(vd, l2ln.OID)
		l2ln.State = cache.Modified
		// The L1 is filled with a clean copy; the L2 retains any dirty
		// version (the new store will create a fresh version in the L1).
		ln := f.fillL1(tid, addr, cache.Exclusive, l2ln.OID, l2ln.Data, false)
		f.performStore(tid, vd, ln, data)
		f.bumpStore(vd)
		return lat
	}
	lat += f.Cfg.LLCLatency
	rv, rdata, e, dirtyXfer, extra := f.fetchExclusive(vd, addr)
	lat += extra
	// e and l2ln stay valid until fillL2: maybeAdvance, LowerMinVer and
	// the sibling L1 invalidations neither touch the directory nor insert
	// into or remove from this VD's L2.
	f.maybeAdvance(vd, rv)
	if dirtyXfer && rv < f.cur[vd] {
		// An unpersisted version of a closed epoch just migrated into this
		// VD; hold the recoverable epoch below it until our next walk.
		f.backend.LowerMinVer(vd, rv, f.now)
		f.dirtyInflow[vd] = true
	}
	lo, hi := f.CoresOf(vd)
	for c := lo; c < hi; c++ {
		if c == tid {
			continue
		}
		f.L1(c).Invalidate(addr)
	}
	e.Sharers = cache.SharerSet{}
	e.Owner = vd
	// The L2 always receives a clean copy (inclusion); a dirty
	// cache-to-cache transfer lands in the requestor's L1 still dirty.
	f.fillL2(vd, l2ln, addr, cache.Modified, rv, rdata)
	ln := f.fillL1(tid, addr, cache.Exclusive, rv, rdata, dirtyXfer)
	f.performStore(tid, vd, ln, data)
	f.bumpStore(vd)
	return lat
}

// performStore applies the version access protocol to a writable L1 line.
func (f *Frontend) performStore(tid, vd int, ln *cache.Line, data uint64) {
	cur := f.cur[vd]
	if ln.Dirty && ln.OID != cur {
		// Immutable dirty version from a previous epoch: store-eviction
		// (paper Fig 4) pushes it to the L2 without invalidating the line,
		// then the store proceeds in place.
		f.stat.IncAt(storeEvictions)
		f.putxToL2(vd, *ln, ReasonStoreEvict)
	}
	ln.OID = cur
	ln.Data = data
	ln.Dirty = true
	ln.State = cache.Modified
	f.storeOID = cur
}

// bumpStore counts a store toward the VD's epoch budget and advances the
// local epoch at the boundary (§IV-B2 "advance after a fixed number of
// instructions").
func (f *Frontend) bumpStore(vd int) {
	f.storeCnt[vd]++
	f.totStores[vd]++
	// Each VD advances after EpochSize of its own stores (§IV-B2); with
	// coherence-driven synchronisation the machine-wide snapshot rate then
	// lands close to the baselines' one-epoch-per-EpochSize-global-stores.
	threshold := f.Cfg.EpochSizeAt(f.totStores[vd] * uint64(f.Cfg.VDs()))
	if threshold < 1 {
		threshold = 1
	}
	if f.storeCnt[vd] >= threshold {
		f.advanceTo(vd, f.cur[vd]+1, true)
	}
}

// maybeAdvance applies coherence-driven epoch synchronisation (§IV-B2):
// observing a response of a future epoch advances the local Lamport clock.
func (f *Frontend) maybeAdvance(vd int, rv uint64) {
	if rv > f.cur[vd] {
		f.stat.IncAt(coherenceEpochAdvances)
		f.advanceTo(vd, rv, false)
	}
}

// advanceTo terminates the VD's current epoch: cores stall and drain, the
// processor context is dumped to NVM, and (at store-count boundaries) the
// tag walker runs.
func (f *Frontend) advanceTo(vd int, newEpoch uint64, boundary bool) {
	old := f.cur[vd]
	var atBoundary uint64
	if boundary {
		atBoundary = 1
	}
	f.bus.Emit(obs.KindEpochAdvance, f.now, vd, newEpoch, 0, old, atBoundary)
	if f.wrap != nil && f.wrap.CrossesGroup(f.wrap.Wire(old), f.wrap.Wire(newEpoch)) {
		// Group transition (§IV-D): ensure no line remains tagged with an
		// epoch of the group being entered, then flip the sense bit. With
		// monotonic simulation epochs a full VD flush of old dirty versions
		// is the conservative realisation.
		f.walkStale(vd, newEpoch, ReasonDrain, f.persist)
		f.wrap.OnGroupTransition(f.wrap.Wire(newEpoch))
		f.wrapFlush++
	}
	f.cur[vd] = newEpoch
	if boundary {
		// Only a store-count boundary resets the local budget; a
		// coherence-driven jump does not, so each VD still contributes one
		// boundary per EpochSize of its own stores and the machine-wide
		// snapshot rate matches the baselines' global counting.
		f.storeCnt[vd] = 0
	}
	f.vdStall += f.Cfg.EpochAdvanceCost
	ctxStall := f.backend.DumpContext(vd, old, f.now+f.stall+f.vdStall)
	f.vdStall += ctxStall
	f.stat.AddAt(stallFromContext, int64(ctxStall))
	f.stat.IncAt(epochAdvances)
	// The walker runs opportunistically whenever an epoch closes — both at
	// store-count boundaries and on coherence-driven advances — so every VD
	// keeps reporting min-ver and the recoverable epoch makes progress even
	// for domains that rarely hit their own store threshold.
	if f.walker {
		f.tagWalk(vd)
	}
}

// tagWalk snapshots every dirty version in the VD older than cur-epoch
// (§IV-C) into the walker's queue; the versions drain to the OMC over the
// VD's subsequent accesses and min-ver is reported when the queue empties.
func (f *Frontend) tagWalk(vd int) {
	cur := f.cur[vd]
	q := &f.walkQ[vd]
	f.walkStale(vd, cur, ReasonWalk, func(ln cache.Line, _ Reason) { q.buf = append(q.buf, ln) })
	f.stat.IncAt(tagWalks)
	// Every dirty line older than cur was just cleaned: any prior dirty
	// inflow has been walked out of the domain.
	f.dirtyInflow[vd] = false
	f.walkReport[vd] = cur
	f.bus.Emit(obs.KindWalkStart, f.now, vd, cur, 0, uint64(len(q.live())), 0)
	if len(q.live()) == 0 {
		// Nothing left to persist: report immediately.
		f.reportMinVer(vd)
	}
}

// walkStale is the one walk over a VD's stale versions, shared by the tag
// walker and the wrap-around group transition: every dirty line older
// than below is cleaned. Stale L1 versions are first pulled into the L2
// (for reason), so the L2 holds the newest old version; each stale L2
// version goes to persist with reason. Walked lines are downgraded M->E
// in place: they are immutable, so the persisted copies are exactly the
// epoch's values.
func (f *Frontend) walkStale(vd int, below uint64, reason Reason, persist func(cache.Line, Reason)) {
	f.Walk(vd, cache.LevelL2, func(lv cache.Level, c *cache.Cache) {
		c.ForEach(func(ln *cache.Line) {
			if !ln.Dirty || ln.OID >= below {
				return
			}
			if lv == cache.LevelL1 {
				f.putxToL2(vd, *ln, reason)
			} else {
				persist(*ln, reason)
			}
			ln.Dirty = false
			if ln.State == cache.Modified {
				ln.State = cache.Exclusive
			}
		})
	})
}

// ---------------------------------------------------------------------------
// L2 version handling

// mergeIntoL2 folds an L1 dirty version into a resident L2 line, evicting
// the L2's older dirty version to the OMC first (§IV-A2's PUTX rule; the
// "skip LLC" optimisation of §IV-A3 applies: the old version is not the
// current image, so only the OMC needs it). reason tags that eviction.
func (f *Frontend) mergeIntoL2(l2ln *cache.Line, l1ln cache.Line, reason Reason) {
	if l2ln.Dirty && l2ln.OID < l1ln.OID {
		f.sendVersion(*l2ln, reason)
	}
	l2ln.OID = l1ln.OID
	l2ln.Data = l1ln.Data
	l2ln.Dirty = true
	l2ln.State = cache.Modified
}

// putxToL2 delivers an L1 dirty version to the L2, which holds the line by
// inclusion (L1 ⊆ L2).
func (f *Frontend) putxToL2(vd int, l1ln cache.Line, reason Reason) {
	l2ln := f.L2(vd).Peek(l1ln.Tag)
	if l2ln == nil {
		panic(fmt.Sprintf("cst: L1 line %#x absent from L2 of VD %d: L1 ⊆ L2 inclusion broken", l1ln.Tag, vd))
	}
	f.mergeIntoL2(l2ln, l1ln, reason)
}

// evictL2Victim handles an L2 capacity victim: L1 copies are recalled
// (inclusive L2), the newest dirty version goes to both the LLC and the
// OMC, and an older coexisting dirty version goes to the OMC only.
func (f *Frontend) evictL2Victim(vd int, victim cache.Line, reason Reason) {
	lo, hi := f.CoresOf(vd)
	for c := lo; c < hi; c++ {
		if removed, ok := f.L1(c).Invalidate(victim.Tag); ok && removed.Dirty {
			if victim.Dirty && victim.OID < removed.OID {
				f.sendVersion(victim, reason)
			}
			victim.Dirty = true
			victim.OID = removed.OID
			victim.Data = removed.Data
		}
	}
	f.DropVD(vd, victim.Tag)
	if victim.Dirty {
		f.sendVersion(victim, reason)
		f.insertLLC(victim, true)
		return
	}
	// Victim-cache semantics: clean L2 victims also land in the
	// non-inclusive LLC (real non-inclusive hierarchies do the same), but a
	// stale shared copy must never shadow newer content: skip the insert
	// when the LLC or DRAM already holds a version at least as new.
	if ln := f.SliceOf(victim.Tag).Peek(victim.Tag); ln != nil && ln.OID >= victim.OID {
		return
	}
	if f.dram.OID(victim.Tag) > victim.OID {
		return
	}
	f.insertLLC(victim, false)
}

// insertLLC places a line leaving a VD into the (non-inclusive) LLC as the
// current-image copy. dirty marks it as newer than the DRAM working copy.
func (f *Frontend) insertLLC(wb cache.Line, dirty bool) {
	slice := f.SliceOf(wb.Tag)
	ln, victim, evicted := slice.Insert(wb.Tag)
	if evicted && victim.Dirty {
		// LLC victims refresh the DRAM working copy; the version itself was
		// already persisted when it left its VD (§IV-A4).
		f.dram.WriteBack(victim.Tag, victim.OID, victim.Data)
		f.stat.IncAt(llcDRAMWritebacks)
	}
	ln.State = cache.Shared
	ln.OID = wb.OID
	ln.Data = wb.Data
	ln.Dirty = dirty
}

// ---------------------------------------------------------------------------
// Directory / inter-VD protocol

// fetch resolves a shared (GETS) VD miss and returns addr's directory
// entry with the response. The RV of the response is the OID of the data
// served (§IV-A). Only an L2 eviction deletes CST directory entries, and
// none happens here, so e stays valid throughout.
func (f *Frontend) fetch(vd int, addr uint64) (rv, data uint64, e *cache.DirEntry, lat uint64) {
	e = f.Entry(addr)
	if e.Owner != -1 && e.Owner != vd {
		lat += f.Cfg.RemoteL2Lat
		rv, data = f.downgradeVD(e.Owner, addr)
		e.Sharers.Add(e.Owner)
		e.Owner = -1
		e.Sharers.Add(vd)
		f.stat.IncAt(remoteDowngrades)
		return rv, data, e, lat
	}
	slice := f.SliceOf(addr)
	if ln := slice.Lookup(addr); ln != nil {
		f.stat.IncAt(llcHits)
		e.Sharers.Add(vd)
		return ln.OID, ln.Data, e, lat
	}
	f.stat.IncAt(llcMisses)
	lat += f.dram.Latency()
	e.Sharers.Add(vd)
	rv, data = f.dram.Read(addr)
	return rv, data, e, lat
}

// fetchExclusive resolves a GETX miss: every remote copy is invalidated.
// When the current owner holds a dirty version, it is transferred
// cache-to-cache (dirtyXfer=true) instead of being written back through the
// LLC (§IV-A3 optimisation), saving both traffic and an OMC write. It
// returns addr's directory entry, which stays valid as fetch's does.
func (f *Frontend) fetchExclusive(vd int, addr uint64) (rv, data uint64, e *cache.DirEntry, dirtyXfer bool, lat uint64) {
	e = f.Entry(addr)
	haveData := false
	if e.Owner != -1 && e.Owner != vd {
		lat += f.Cfg.RemoteL2Lat
		newest, wasDirty := f.invalidateVD(e.Owner, addr)
		e.Owner = -1
		if wasDirty {
			rv, data, dirtyXfer, haveData = newest.OID, newest.Data, true, true
			f.stat.IncAt(c2cTransfers)
		} else if newest.Valid {
			rv, data, haveData = newest.OID, newest.Data, true
		}
		f.stat.IncAt(remoteInvalidations)
	}
	// Iterate a value copy, since the loop removes sharers as it goes; the
	// O(set-bits) walk visits them in ascending order.
	sharers := e.Sharers
	sharers.ForEach(func(other int) {
		if other == vd {
			return
		}
		lat += f.Cfg.RemoteL2Lat
		f.invalidateVD(other, addr)
		e.Sharers.Remove(other)
		f.stat.IncAt(remoteInvalidations)
	})
	if ln, ok := f.SliceOf(addr).Invalidate(addr); ok {
		if !haveData {
			rv, data, haveData = ln.OID, ln.Data, true
			f.stat.IncAt(llcHits)
		}
		// The LLC copy becomes stale under the new owner; refresh DRAM if it
		// carried the only working copy.
		if ln.Dirty {
			f.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
			f.stat.IncAt(llcDRAMWritebacks)
		}
	}
	if !haveData {
		f.stat.IncAt(llcMisses)
		lat += f.dram.Latency()
		rv, data = f.dram.Read(addr)
	}
	return rv, data, e, dirtyXfer, lat
}

// downgradeVD demotes a VD's copies to Shared for a remote GETS. The most
// recent version is written back to the LLC *and* the OMC (it is dirty and
// unpersisted); an older coexisting L2 dirty version goes to the OMC only.
// Returns the version served as the response (RV, data).
func (f *Frontend) downgradeVD(vd int, addr uint64) (rv, data uint64) {
	f.flushQueuedWalk(vd, addr)
	var newest cache.Line
	haveDirty := false
	lo, hi := f.CoresOf(vd)
	for c := lo; c < hi; c++ {
		if ln := f.L1(c).Peek(addr); ln != nil {
			if ln.Dirty {
				newest = *ln
				haveDirty = true
				ln.Dirty = false
			}
			ln.State = cache.Shared
		}
	}
	l2ln := f.L2(vd).Peek(addr)
	if l2ln != nil {
		if l2ln.Dirty {
			if haveDirty && l2ln.OID < newest.OID {
				// Both levels dirty: the older L2 version is not part of the
				// current image — OMC only (§IV-A3 observation 1).
				f.sendVersion(*l2ln, ReasonCoherence)
			} else if !haveDirty {
				newest = *l2ln
				haveDirty = true
			}
			l2ln.Dirty = false
		}
		if haveDirty {
			l2ln.OID = newest.OID
			l2ln.Data = newest.Data
		}
		l2ln.State = cache.Shared
	}
	if haveDirty {
		f.sendVersion(newest, ReasonCoherence)
		f.insertLLC(newest, true)
		return newest.OID, newest.Data
	}
	// Clean copies: serve whatever the L2 holds (it is current).
	if l2ln != nil {
		return l2ln.OID, l2ln.Data
	}
	// VD had no copy after all (directory conservatism): fall back to LLC.
	if ln := f.SliceOf(addr).Peek(addr); ln != nil {
		return ln.OID, ln.Data
	}
	return f.dram.Read(addr)
}

// invalidateVD removes every copy of addr from a VD for a remote GETX,
// returning the newest version (dirty => cache-to-cache transfer). An older
// coexisting dirty version is persisted to the OMC. The directory is left
// to the caller: fetchExclusive holds addr's entry across this call, so it
// must not insert or delete any entry.
func (f *Frontend) invalidateVD(vd int, addr uint64) (newest cache.Line, wasDirty bool) {
	f.flushQueuedWalk(vd, addr)
	lo, hi := f.CoresOf(vd)
	for c := lo; c < hi; c++ {
		if removed, ok := f.L1(c).Invalidate(addr); ok {
			if removed.Dirty {
				newest = removed
				wasDirty = true
			} else if !newest.Valid {
				newest = removed
			}
		}
	}
	if removed, ok := f.L2(vd).Invalidate(addr); ok {
		if removed.Dirty {
			if wasDirty && removed.OID < newest.OID {
				// Older version below the newest: OMC only.
				f.sendVersion(removed, ReasonCoherence)
			} else if !wasDirty {
				newest = removed
				wasDirty = true
			}
		} else if !newest.Valid {
			newest = removed
		}
	}
	return newest, wasDirty
}

// fillL2 installs a clean copy of addr into the VD's L2. ln is addr's
// resident L2 line as the caller looked it up, or nil when it missed.
func (f *Frontend) fillL2(vd int, ln *cache.Line, addr uint64, state cache.State, oid, data uint64) {
	if ln != nil {
		// Keep a resident dirty version; only the coherence state changes.
		if !ln.Dirty {
			ln.OID = oid
			ln.Data = data
		}
		ln.State = state
		return
	}
	ln, victim, evicted := f.L2(vd).Insert(addr)
	if evicted {
		f.evictL2Victim(vd, victim, ReasonCapacity)
	}
	ln.State = state
	ln.OID = oid
	ln.Data = data
	ln.Dirty = false
}

// fillL1 installs addr into tid's L1 and returns the line; dirty victims
// flow to the L2 through the version-checked PUTX path. dirtyXfer marks a
// cache-to-cache dirty transfer, which stays dirty in the L1 (it is still
// unpersisted).
func (f *Frontend) fillL1(tid int, addr uint64, state cache.State, oid, data uint64, dirtyXfer bool) *cache.Line {
	vd := f.Cfg.VDOf(tid)
	ln, victim, evicted := f.L1(tid).Insert(addr)
	if evicted && victim.Dirty {
		f.putxToL2(vd, victim, ReasonCapacity)
		f.stat.IncAt(l1DirtyEvictions)
	}
	ln.State = state
	ln.OID = oid
	ln.Data = data
	ln.Dirty = dirtyXfer
	if dirtyXfer {
		ln.State = cache.Modified
	}
	return ln
}

// ---------------------------------------------------------------------------
// Drain and invariants

// Drain flushes every dirty version out of the hierarchy (end of run) and
// reports final min-vers so the backend can merge everything.
func (f *Frontend) Drain(now uint64) {
	f.now = now
	f.stall = 0
	for vd := 0; vd < f.Cfg.VDs(); vd++ {
		q := &f.walkQ[vd]
		for _, ln := range q.live() {
			f.persist(ln, ReasonWalk)
		}
		q.pop(len(q.live()))
		f.walkReport[vd] = 0
	}
	for vd := 0; vd < f.Cfg.VDs(); vd++ {
		f.Walk(vd, cache.LevelL2, func(lv cache.Level, c *cache.Cache) {
			c.Flush(func(ln cache.Line) {
				if lv == cache.LevelL1 {
					f.putxToL2(vd, ln, ReasonDrain)
				} else {
					f.sendVersion(ln, ReasonDrain)
					f.insertLLC(ln, true)
				}
			})
		})
	}
	for i := 0; i < f.Slices(); i++ {
		f.LLCSlice(i).Flush(func(ln cache.Line) { f.dram.WriteBack(ln.Tag, ln.OID, ln.Data) })
	}
	f.Dir.Reset()
	// No min-ver reports here: the backend's Seal merges every remaining
	// epoch, and reporting would blur the walker's role in experiments.
}

// CheckInvariants validates the version-protocol invariants; tests call it
// after randomised runs. Beyond the shared hierarchy rules it checks the
// version-ordering invariant that an L1 version is never older than the
// L2 version of the same address (§IV-A2), that no L2 line is tagged past
// its domain's epoch, and the walker's fast-path claim.
func (f *Frontend) CheckInvariants() error {
	err := f.CheckShared(func(lv cache.Level, i int, ln *cache.Line) error {
		if lv == cache.LevelL1 {
			if l2ln := f.L2(f.Cfg.VDOf(i)).Peek(ln.Tag); ln.OID < l2ln.OID {
				return fmt.Errorf("L1 %d version %d of %#x older than L2 version %d",
					i, ln.OID, ln.Tag, l2ln.OID)
			}
		} else if ln.OID > f.cur[i] {
			return fmt.Errorf("L2 %d holds %#x tagged epoch %d beyond cur %d",
				i, ln.Tag, ln.OID, f.cur[i])
		}
		return nil
	})
	if err != nil || !f.walker {
		return err
	}
	// Walker fast-path soundness: with no dirty inflow since the last walk
	// and an empty walk queue, no stale dirty version may exist (the min-ver
	// report skips its rescan on exactly this claim). Only meaningful when
	// the walker actually runs at every advance.
	for vd := range f.cur {
		if f.dirtyInflow[vd] || len(f.walkQ[vd].live()) > 0 {
			continue
		}
		walked := f.walkedTo(vd)
		f.Walk(vd, cache.LevelL2, func(_ cache.Level, c *cache.Cache) {
			c.ForEach(func(ln *cache.Line) {
				if err == nil && ln.Dirty && ln.OID < walked {
					err = fmt.Errorf("%s holds stale dirty %#x@%d with no inflow flag",
						c.Name(), ln.Tag, ln.OID)
				}
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// walkedTo returns the epoch below which vd's caches are guaranteed clean
// when no dirty inflow is pending: the epoch of its last tag walk (cur at
// walk time). A pending report records it; otherwise the walk ran at the
// current epoch.
func (f *Frontend) walkedTo(vd int) uint64 {
	if f.walkReport[vd] != 0 {
		return f.walkReport[vd]
	}
	return f.cur[vd]
}
