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

// Reason classifies why a version was sent to the OMC, feeding the paper's
// Fig 15 evict-reason decomposition.
type Reason int

// Version write-back reasons.
const (
	ReasonCapacity   Reason = iota // L2 LRU victim
	ReasonCoherence                // inter-VD invalidation / downgrade
	ReasonWalk                     // tag-walker write-back
	ReasonStoreEvict               // store-eviction displaced an old version out of L2
	ReasonDrain                    // end-of-run flush
	numReasons
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonCapacity:
		return "capacity"
	case ReasonCoherence:
		return "coherence"
	case ReasonWalk:
		return "walk"
	case ReasonStoreEvict:
		return "storeevict"
	case ReasonDrain:
		return "drain"
	default:
		return fmt.Sprintf("reason%d", int(r))
	}
}

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

// Frontend is the version-tagged cache hierarchy of NVOverlay: per-core
// L1s and per-VD inclusive L2s running the version access protocol, over a
// non-inclusive victim LLC. Snapshot versions leaving a VD go to the
// Backend via the LLC-bypass path.
type Frontend struct {
	cfg     *sim.Config
	backend Backend
	dram    *mem.DRAM

	l1  []*cache.Cache
	l2  []*cache.Cache
	llc []*cache.Cache
	dir *cache.Directory

	cur       []uint64 // per-VD current epoch (starts at 1)
	storeCnt  []int    // stores in the current epoch, per VD
	totStores []uint64 // lifetime stores per VD (epoch-size schedule input)

	// Opportunistic tag walker state (§IV-C): at an epoch advance the
	// walker snapshots the VD's stale dirty versions (legal: they are
	// immutable) and drains them to the OMC a few per subsequent access,
	// spreading the write-back bandwidth across the epoch instead of
	// bursting at the boundary. min-ver is reported once the queue drains.
	walkQ      [][]cache.Line
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

	evicts [numReasons]uint64
	stat   *stats.Set
	bus    *obs.Bus // nil when the run is unobserved
}

// New builds the frontend. The tag walker is enabled per cfg.TagWalker; the
// wrap-around protocol per cfg.WrapEpochs.
func New(cfg *sim.Config, dram *mem.DRAM, backend Backend) *Frontend {
	f := &Frontend{
		cfg:         cfg,
		backend:     backend,
		dram:        dram,
		l1:          make([]*cache.Cache, cfg.Cores),
		l2:          make([]*cache.Cache, cfg.VDs()),
		llc:         make([]*cache.Cache, cfg.LLCSlices),
		dir:         cache.NewDirectory(),
		cur:         make([]uint64, cfg.VDs()),
		storeCnt:    make([]int, cfg.VDs()),
		totStores:   make([]uint64, cfg.VDs()),
		walkQ:       make([][]cache.Line, cfg.VDs()),
		walkReport:  make([]uint64, cfg.VDs()),
		dirtyInflow: make([]bool, cfg.VDs()),
		walker:      cfg.TagWalker,
		stat:        stats.NewSet("cst"),
		bus:         cfg.Obs,
	}
	for i := range f.l1 {
		f.l1[i] = cache.New(fmt.Sprintf("l1.%d", i), cfg.L1Size, cfg.L1Ways, cfg.LineSize)
	}
	for i := range f.l2 {
		f.l2[i] = cache.New(fmt.Sprintf("l2.%d", i), cfg.L2Size, cfg.L2Ways, cfg.LineSize)
	}
	sliceSize := cfg.LLCSize / cfg.LLCSlices
	for i := range f.llc {
		f.llc[i] = cache.NewStrided(fmt.Sprintf("llc.%d", i), sliceSize, cfg.LLCWays,
			cfg.LineSize, cfg.LLCSlices)
	}
	for vd := range f.cur {
		f.cur[vd] = 1 // epoch 0 is reserved as "before all snapshots"
	}
	if cfg.WrapEpochs {
		f.wrap = NewWrapSpace(cfg.WrapWidth)
	}
	return f
}

// CurEpoch returns a VD's current epoch.
func (f *Frontend) CurEpoch(vd int) uint64 { return f.cur[vd] }

// Stats returns the frontend counters: the event counters plus
// evict_<reason>, rendered from the per-reason tallies for every reason
// that has occurred.
func (f *Frontend) Stats() *stats.Set {
	s := stats.NewSet(f.stat.Name())
	s.Merge(f.stat)
	for r := Reason(0); r < numReasons; r++ {
		if f.evicts[r] > 0 {
			s.Add("evict_"+r.String(), int64(f.evicts[r]))
		}
	}
	return s
}

// EvictReason returns how many versions were sent to the OMC for a reason.
func (f *Frontend) EvictReason(r Reason) uint64 { return f.evicts[r] }

// L1 exposes core tid's L1 (tests and the walker use it).
func (f *Frontend) L1(tid int) *cache.Cache { return f.l1[tid] }

// L2 exposes VD vd's L2.
func (f *Frontend) L2(vd int) *cache.Cache { return f.l2[vd] }

// LLCSlice exposes LLC slice i.
func (f *Frontend) LLCSlice(i int) *cache.Cache { return f.llc[i] }

// WrapFlushes returns how many group-transition flushes occurred.
func (f *Frontend) WrapFlushes() int { return f.wrapFlush }

func (f *Frontend) sliceOf(addr uint64) *cache.Cache {
	return f.llc[int((addr/uint64(f.cfg.LineSize))%uint64(len(f.llc)))]
}

// entry resolves addr's directory entry, creating it on first touch. The
// pointer is valid until the next directory insertion or deletion (miss
// paths resolve it once per access and finish with it before installing
// new lines, whose L2 victims may delete entries).
func (f *Frontend) entry(addr uint64) *cache.DirEntry {
	return f.dir.GetOrCreate(addr)
}

func (f *Frontend) coresOf(vd int) (int, int) {
	return vd * f.cfg.CoresPerVD, (vd + 1) * f.cfg.CoresPerVD
}

// debugSendHook, when non-nil, observes every version send (test-only).
var debugSendHook func(ln cache.Line, reason Reason)

// sendVersion ships a dirty version to the OMC over the LLC-bypass path.
func (f *Frontend) sendVersion(ln cache.Line, reason Reason) {
	if debugSendHook != nil {
		debugSendHook(ln, reason)
	}
	f.evicts[reason]++
	f.bus.Emit(obs.KindVersionEvict, f.now+f.stall, -1, ln.OID, ln.Tag, uint64(reason), 0)
	// Bursts (walks, drains) issue at f.now advanced by the stalls already
	// incurred in this access, so a full NVM queue delays a burst linearly
	// (a blocking bounded queue), not quadratically.
	st := f.backend.ReceiveVersion(omc.Version{Addr: ln.Tag, Epoch: ln.OID, Data: ln.Data}, f.now+f.stall)
	f.stall += st
	f.stat.Add("stall_from_versions", int64(st))
}

// Access performs one memory operation and returns its timing. data is the
// payload token written by stores (ignored for loads).
func (f *Frontend) Access(tid int, addr uint64, write bool, data uint64, now uint64) Result {
	addr = f.cfg.LineAddr(addr)
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
	f.drainWalk(f.cfg.VDOf(tid))
	return Result{Lat: lat + f.stall, VDStall: f.vdStall, StoreOID: f.storeOID}
}

// walkDrainRate is how many pending walk write-backs the opportunistic
// walker retires per access of its VD.
const walkDrainRate = 4

// flushQueuedWalk immediately ships any queued walk version of addr held
// by vd's walker. Called before the address is handed to another VD
// (invalidation/downgrade): the other domain may produce a newer version
// of the same epoch, and the OMC's per-epoch tables keep the last receipt,
// so the queued copy must be ordered before the transfer.
func (f *Frontend) flushQueuedWalk(vd int, addr uint64) {
	q := f.walkQ[vd]
	for i := 0; i < len(q); i++ {
		if q[i].Tag == addr {
			f.sendVersion(q[i], ReasonWalk)
			f.dram.WriteBack(q[i].Tag, q[i].OID, q[i].Data)
			f.walkQ[vd] = append(q[:i], q[i+1:]...)
			if len(f.walkQ[vd]) == 0 && f.walkReport[vd] != 0 {
				f.reportMinVer(vd)
			}
			return
		}
	}
}

// drainWalk ships a few queued walk versions and reports min-ver when the
// backlog empties.
func (f *Frontend) drainWalk(vd int) {
	if len(f.walkQ[vd]) == 0 {
		return
	}
	n := walkDrainRate
	if n > len(f.walkQ[vd]) {
		n = len(f.walkQ[vd])
	}
	for _, ln := range f.walkQ[vd][:n] {
		f.sendVersion(ln, ReasonWalk)
		f.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
	}
	f.walkQ[vd] = f.walkQ[vd][n:]
	if len(f.walkQ[vd]) == 0 && f.walkReport[vd] != 0 {
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
		lo, hi := f.coresOf(vd)
		for c := lo; c < hi; c++ {
			f.l1[c].ForEach(scan)
		}
		f.l2[vd].ForEach(scan)
	}
	for _, q := range f.walkQ[vd] {
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
	vd := f.cfg.VDOf(tid)
	lat := f.cfg.L1Latency
	if ln := f.l1[tid].Lookup(addr); ln != nil {
		f.stat.Inc("l1_load_hits")
		return lat
	}
	lat += f.cfg.L2Latency
	if l2ln := f.l2[vd].Lookup(addr); l2ln != nil {
		f.stat.Inc("l2_load_hits")
		// Sibling downgrade inside the VD; the sibling's dirty version flows
		// through the L2 with the version check (it may displace an older
		// dirty version to the OMC).
		sibling := false
		lo, hi := f.coresOf(vd)
		for c := lo; c < hi; c++ {
			if c == tid {
				continue
			}
			if sib := f.l1[c].Peek(addr); sib != nil {
				sibling = true
				if sib.Dirty {
					f.mergeIntoL2(l2ln, *sib)
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
	lat += f.cfg.LLCLatency
	rv, data, extra := f.fetch(vd, addr, false)
	lat += extra
	f.maybeAdvance(vd, rv)
	e := f.entry(addr)
	state := cache.Shared
	if e.Sharers.Only(vd) && e.Owner == -1 {
		state = cache.Exclusive
		e.Sharers = cache.SharerSet{}
		e.Owner = vd
		// An Exclusive grant means no other cached copy may remain: drop
		// the LLC copy (the VD may silently write newer data in place).
		// Its dirty-toward-DRAM marker is honoured first.
		if ln := f.sliceOf(addr).Peek(addr); ln != nil {
			if ln.Dirty {
				f.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
				f.stat.Inc("llc_dram_writebacks")
			}
			f.sliceOf(addr).Invalidate(addr)
		}
	}
	f.fillL2(vd, addr, state, rv, data)
	f.fillL1(tid, addr, state, rv, data, false)
	return lat
}

// ---------------------------------------------------------------------------
// Stores (§IV-A1: version access protocol with store-eviction)

func (f *Frontend) store(tid int, addr uint64, data uint64) uint64 {
	vd := f.cfg.VDOf(tid)
	lat := f.cfg.L1Latency
	if ln := f.l1[tid].Lookup(addr); ln != nil && ln.State.Writable() {
		f.stat.Inc("l1_store_hits")
		f.performStore(tid, vd, ln, data)
		f.bumpStore(vd)
		return lat
	}
	lat += f.cfg.L2Latency
	if l2ln := f.l2[vd].Lookup(addr); l2ln != nil && l2ln.State.Writable() {
		f.stat.Inc("l2_store_hits")
		lo, hi := f.coresOf(vd)
		for c := lo; c < hi; c++ {
			if c == tid {
				continue
			}
			if removed, ok := f.l1[c].Invalidate(addr); ok && removed.Dirty {
				f.mergeIntoL2(l2ln, removed)
			}
		}
		f.maybeAdvance(vd, l2ln.OID)
		l2ln.State = cache.Modified
		// The L1 is filled with a clean copy; the L2 retains any dirty
		// version (the new store will create a fresh version in the L1).
		f.fillL1(tid, addr, cache.Exclusive, l2ln.OID, l2ln.Data, false)
		ln := f.l1[tid].Peek(addr)
		f.performStore(tid, vd, ln, data)
		f.bumpStore(vd)
		return lat
	}
	lat += f.cfg.LLCLatency
	rv, rdata, dirtyXfer, extra := f.fetchExclusive(vd, addr)
	lat += extra
	f.maybeAdvance(vd, rv)
	if dirtyXfer && rv < f.cur[vd] {
		// An unpersisted version of a closed epoch just migrated into this
		// VD; hold the recoverable epoch below it until our next walk.
		f.backend.LowerMinVer(vd, rv, f.now)
		f.dirtyInflow[vd] = true
	}
	lo, hi := f.coresOf(vd)
	for c := lo; c < hi; c++ {
		if c == tid {
			continue
		}
		f.l1[c].Invalidate(addr)
	}
	e := f.entry(addr)
	e.Sharers = cache.SharerSet{}
	e.Owner = vd
	// The L2 always receives a clean copy (inclusion); a dirty
	// cache-to-cache transfer lands in the requestor's L1 still dirty.
	f.fillL2(vd, addr, cache.Modified, rv, rdata)
	f.fillL1(tid, addr, cache.Exclusive, rv, rdata, dirtyXfer)
	ln := f.l1[tid].Peek(addr)
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
		f.stat.Inc("store_evictions")
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
	threshold := f.cfg.EpochSizeAt(f.totStores[vd] * uint64(f.cfg.VDs()))
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
		f.stat.Inc("coherence_epoch_advances")
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
		f.flushVDVersions(vd, newEpoch)
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
	f.vdStall += f.cfg.EpochAdvanceCost
	ctxStall := f.backend.DumpContext(vd, old, f.now+f.stall+f.vdStall)
	f.vdStall += ctxStall
	f.stat.Add("stall_from_context", int64(ctxStall))
	f.stat.Inc("epoch_advances")
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
// Walked lines are downgraded M->E in place (they are immutable, so the
// queued copies are exactly the epoch's values); stale L1 versions are
// first pulled into the L2 so the L2 holds the newest old version.
func (f *Frontend) tagWalk(vd int) {
	cur := f.cur[vd]
	lo, hi := f.coresOf(vd)
	for c := lo; c < hi; c++ {
		f.l1[c].ForEach(func(ln *cache.Line) {
			if ln.Dirty && ln.OID < cur {
				f.putxToL2(vd, *ln, ReasonWalk)
				ln.Dirty = false
				if ln.State == cache.Modified {
					ln.State = cache.Exclusive
				}
			}
		})
	}
	f.l2[vd].ForEach(func(ln *cache.Line) {
		if ln.Dirty && ln.OID < cur {
			f.walkQ[vd] = append(f.walkQ[vd], *ln)
			ln.Dirty = false
			if ln.State == cache.Modified {
				ln.State = cache.Exclusive
			}
		}
	})
	f.stat.Inc("tag_walks")
	// Every dirty line older than cur was just cleaned: any prior dirty
	// inflow has been walked out of the domain.
	f.dirtyInflow[vd] = false
	f.walkReport[vd] = cur
	f.bus.Emit(obs.KindWalkStart, f.now, vd, cur, 0, uint64(len(f.walkQ[vd])), 0)
	if len(f.walkQ[vd]) == 0 {
		// Nothing left to persist: report immediately.
		f.reportMinVer(vd)
	}
}

// flushVDVersions drains every dirty version older than newEpoch out of the
// VD (used by the wrap-around group transition).
func (f *Frontend) flushVDVersions(vd int, newEpoch uint64) {
	lo, hi := f.coresOf(vd)
	for c := lo; c < hi; c++ {
		f.l1[c].ForEach(func(ln *cache.Line) {
			if ln.Dirty && ln.OID < newEpoch {
				f.putxToL2(vd, *ln, ReasonDrain)
				ln.Dirty = false
			}
		})
	}
	f.l2[vd].ForEach(func(ln *cache.Line) {
		if ln.Dirty && ln.OID < newEpoch {
			f.sendVersion(*ln, ReasonDrain)
			f.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
			ln.Dirty = false
		}
	})
}

// ---------------------------------------------------------------------------
// L2 version handling

// mergeIntoL2 folds an L1 dirty version into a resident L2 line, evicting
// the L2's older dirty version to the OMC first (§IV-A2's PUTX rule; the
// "skip LLC" optimisation of §IV-A3 applies: the old version is not the
// current image, so only the OMC needs it).
func (f *Frontend) mergeIntoL2(l2ln *cache.Line, l1ln cache.Line) {
	if l2ln.Dirty && l2ln.OID < l1ln.OID {
		f.sendVersion(*l2ln, ReasonStoreEvict)
	}
	l2ln.OID = l1ln.OID
	l2ln.Data = l1ln.Data
	l2ln.Dirty = true
	l2ln.State = cache.Modified
}

// putxToL2 delivers an L1 dirty version to the L2, inserting the line if it
// is somehow absent (inclusion normally guarantees presence).
func (f *Frontend) putxToL2(vd int, l1ln cache.Line, reason Reason) {
	if l2ln := f.l2[vd].Peek(l1ln.Tag); l2ln != nil {
		if l2ln.Dirty && l2ln.OID < l1ln.OID {
			f.sendVersion(*l2ln, reason)
		}
		l2ln.OID = l1ln.OID
		l2ln.Data = l1ln.Data
		l2ln.Dirty = true
		l2ln.State = cache.Modified
		return
	}
	ln, victim, evicted := f.l2[vd].Insert(l1ln.Tag)
	if evicted {
		f.evictL2Victim(vd, victim, ReasonCapacity)
	}
	*ln = cache.Line{Valid: true, Tag: l1ln.Tag, State: cache.Modified,
		Dirty: true, OID: l1ln.OID, Data: l1ln.Data}
}

// evictL2Victim handles an L2 capacity victim: L1 copies are recalled
// (inclusive L2), the newest dirty version goes to both the LLC and the
// OMC, and an older coexisting dirty version goes to the OMC only.
func (f *Frontend) evictL2Victim(vd int, victim cache.Line, reason Reason) {
	lo, hi := f.coresOf(vd)
	for c := lo; c < hi; c++ {
		if removed, ok := f.l1[c].Invalidate(victim.Tag); ok && removed.Dirty {
			if victim.Dirty && victim.OID < removed.OID {
				f.sendVersion(victim, reason)
			}
			victim.Dirty = true
			victim.OID = removed.OID
			victim.Data = removed.Data
		}
	}
	if e := f.dir.Ptr(victim.Tag); e != nil {
		e.Sharers.Remove(vd)
		if e.Owner == vd {
			e.Owner = -1
		}
		f.dir.DeleteIfEmpty(victim.Tag)
	}
	if victim.Dirty {
		f.sendVersion(victim, reason)
		f.insertLLC(victim, true)
		return
	}
	// Victim-cache semantics: clean L2 victims also land in the
	// non-inclusive LLC (real non-inclusive hierarchies do the same), but a
	// stale shared copy must never shadow newer content: skip the insert
	// when the LLC or DRAM already holds a version at least as new.
	if ln := f.sliceOf(victim.Tag).Peek(victim.Tag); ln != nil && ln.OID >= victim.OID {
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
	slice := f.sliceOf(wb.Tag)
	ln, victim, evicted := slice.Insert(wb.Tag)
	if evicted && victim.Dirty {
		// LLC victims refresh the DRAM working copy; the version itself was
		// already persisted when it left its VD (§IV-A4).
		f.dram.WriteBack(victim.Tag, victim.OID, victim.Data)
		f.stat.Inc("llc_dram_writebacks")
	}
	ln.State = cache.Shared
	ln.OID = wb.OID
	ln.Data = wb.Data
	ln.Dirty = dirty
}

// ---------------------------------------------------------------------------
// Directory / inter-VD protocol

// fetch resolves a shared (GETS) VD miss. The RV of the response is the OID
// of the data served (§IV-A).
func (f *Frontend) fetch(vd int, addr uint64, exclusive bool) (rv, data uint64, lat uint64) {
	e := f.entry(addr)
	if e.Owner != -1 && e.Owner != vd {
		lat += f.cfg.RemoteL2Lat
		rv, data = f.downgradeVD(e.Owner, addr)
		e.Sharers.Add(e.Owner)
		e.Owner = -1
		e.Sharers.Add(vd)
		f.stat.Inc("remote_downgrades")
		return rv, data, lat
	}
	slice := f.sliceOf(addr)
	if ln := slice.Lookup(addr); ln != nil {
		f.stat.Inc("llc_hits")
		e.Sharers.Add(vd)
		return ln.OID, ln.Data, lat
	}
	f.stat.Inc("llc_misses")
	lat += f.dram.Latency()
	e.Sharers.Add(vd)
	return f.dram.OID(addr), f.dram.Data(addr), lat
}

// fetchExclusive resolves a GETX miss: every remote copy is invalidated.
// When the current owner holds a dirty version, it is transferred
// cache-to-cache (dirtyXfer=true) instead of being written back through the
// LLC (§IV-A3 optimisation), saving both traffic and an OMC write.
func (f *Frontend) fetchExclusive(vd int, addr uint64) (rv, data uint64, dirtyXfer bool, lat uint64) {
	e := f.entry(addr)
	haveData := false
	if e.Owner != -1 && e.Owner != vd {
		lat += f.cfg.RemoteL2Lat
		newest, wasDirty := f.invalidateVD(e.Owner, addr)
		e.Owner = -1
		if wasDirty {
			rv, data, dirtyXfer, haveData = newest.OID, newest.Data, true, true
			f.stat.Inc("c2c_transfers")
		} else if newest.Valid {
			rv, data, haveData = newest.OID, newest.Data, true
		}
		f.stat.Inc("remote_invalidations")
	}
	// Iterate a value copy: invalidateVD may touch the directory, and the
	// O(set-bits) walk replaces the old O(VDs) bitmask scan (same ascending
	// order, so invalidation event order is unchanged).
	sharers := e.Sharers
	sharers.ForEach(func(other int) {
		if other == vd {
			return
		}
		lat += f.cfg.RemoteL2Lat
		f.invalidateVD(other, addr)
		e.Sharers.Remove(other)
		f.stat.Inc("remote_invalidations")
	})
	slice := f.sliceOf(addr)
	if ln := slice.Peek(addr); ln != nil {
		if !haveData {
			rv, data, haveData = ln.OID, ln.Data, true
			f.stat.Inc("llc_hits")
		}
		// The LLC copy becomes stale under the new owner; refresh DRAM if it
		// carried the only working copy.
		if ln.Dirty {
			f.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
			f.stat.Inc("llc_dram_writebacks")
		}
		slice.Invalidate(addr)
	}
	if !haveData {
		f.stat.Inc("llc_misses")
		lat += f.dram.Latency()
		rv, data = f.dram.OID(addr), f.dram.Data(addr)
	}
	return rv, data, dirtyXfer, lat
}

// downgradeVD demotes a VD's copies to Shared for a remote GETS. The most
// recent version is written back to the LLC *and* the OMC (it is dirty and
// unpersisted); an older coexisting L2 dirty version goes to the OMC only.
// Returns the version served as the response (RV, data).
func (f *Frontend) downgradeVD(vd int, addr uint64) (rv, data uint64) {
	f.flushQueuedWalk(vd, addr)
	var newest cache.Line
	haveDirty := false
	lo, hi := f.coresOf(vd)
	for c := lo; c < hi; c++ {
		if ln := f.l1[c].Peek(addr); ln != nil {
			if ln.Dirty {
				newest = *ln
				haveDirty = true
				ln.Dirty = false
			}
			ln.State = cache.Shared
		}
	}
	l2ln := f.l2[vd].Peek(addr)
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
	if ln := f.sliceOf(addr).Peek(addr); ln != nil {
		return ln.OID, ln.Data
	}
	return f.dram.OID(addr), f.dram.Data(addr)
}

// invalidateVD removes every copy of addr from a VD for a remote GETX,
// returning the newest version (dirty => cache-to-cache transfer). An older
// coexisting dirty version is persisted to the OMC.
func (f *Frontend) invalidateVD(vd int, addr uint64) (newest cache.Line, wasDirty bool) {
	f.flushQueuedWalk(vd, addr)
	lo, hi := f.coresOf(vd)
	for c := lo; c < hi; c++ {
		if removed, ok := f.l1[c].Invalidate(addr); ok {
			if removed.Dirty {
				newest = removed
				wasDirty = true
			} else if !newest.Valid {
				newest = removed
			}
		}
	}
	if removed, ok := f.l2[vd].Invalidate(addr); ok {
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
	if e := f.dir.Ptr(addr); e != nil {
		e.Sharers.Remove(vd)
		if e.Owner == vd {
			e.Owner = -1
		}
	}
	return newest, wasDirty
}

// fillL2 installs a clean copy of addr into the VD's L2.
func (f *Frontend) fillL2(vd int, addr uint64, state cache.State, oid, data uint64) {
	if ln := f.l2[vd].Peek(addr); ln != nil {
		// Keep a resident dirty version; only the coherence state changes.
		if !ln.Dirty {
			ln.OID = oid
			ln.Data = data
		}
		ln.State = state
		return
	}
	ln, victim, evicted := f.l2[vd].Insert(addr)
	if evicted {
		f.evictL2Victim(vd, victim, ReasonCapacity)
	}
	ln.State = state
	ln.OID = oid
	ln.Data = data
	ln.Dirty = false
}

// fillL1 installs addr into tid's L1; dirty victims flow to the L2 through
// the version-checked PUTX path. dirtyXfer marks a cache-to-cache dirty
// transfer, which stays dirty in the L1 (it is still unpersisted).
func (f *Frontend) fillL1(tid int, addr uint64, state cache.State, oid, data uint64, dirtyXfer bool) {
	vd := f.cfg.VDOf(tid)
	ln, victim, evicted := f.l1[tid].Insert(addr)
	if evicted && victim.Dirty {
		f.putxToL2(vd, victim, ReasonCapacity)
		f.stat.Inc("l1_dirty_evictions")
	}
	ln.State = state
	ln.OID = oid
	ln.Data = data
	ln.Dirty = dirtyXfer
	if dirtyXfer {
		ln.State = cache.Modified
	}
}

// ---------------------------------------------------------------------------
// Drain and invariants

// Drain flushes every dirty version out of the hierarchy (end of run) and
// reports final min-vers so the backend can merge everything.
func (f *Frontend) Drain(now uint64) {
	f.now = now
	f.stall = 0
	for vd := 0; vd < f.cfg.VDs(); vd++ {
		for _, ln := range f.walkQ[vd] {
			f.sendVersion(ln, ReasonWalk)
			f.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
		}
		f.walkQ[vd] = nil
		f.walkReport[vd] = 0
	}
	for vd := 0; vd < f.cfg.VDs(); vd++ {
		lo, hi := f.coresOf(vd)
		for c := lo; c < hi; c++ {
			for _, ln := range f.l1[c].Flush() {
				if ln.Dirty {
					f.putxToL2(vd, ln, ReasonDrain)
				}
			}
		}
		for _, ln := range f.l2[vd].Flush() {
			if ln.Dirty {
				f.sendVersion(ln, ReasonDrain)
				f.insertLLC(ln, true)
			}
		}
	}
	for _, slice := range f.llc {
		for _, ln := range slice.Flush() {
			if ln.Dirty {
				f.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
			}
		}
	}
	f.dir.Reset()
	// No min-ver reports here: the backend's Seal merges every remaining
	// epoch, and reporting would blur the walker's role in experiments.
}

// CheckInvariants validates the version-protocol invariants; tests call it
// after randomised runs. Verified properties: L1⊆L2 inclusion, directory
// agreement, single-writer, and the version-ordering invariant that an L1
// version is never older than the L2 version of the same address (§IV-A2).
func (f *Frontend) CheckInvariants() error {
	for tid, l1 := range f.l1 {
		vd := f.cfg.VDOf(tid)
		var err error
		l1.ForEach(func(ln *cache.Line) {
			if err != nil {
				return
			}
			l2ln := f.l2[vd].Peek(ln.Tag)
			if l2ln == nil {
				err = fmt.Errorf("L1 %d holds %#x but L2 %d does not (inclusion)", tid, ln.Tag, vd)
				return
			}
			if ln.OID < l2ln.OID {
				err = fmt.Errorf("L1 %d version %d of %#x older than L2 version %d",
					tid, ln.OID, ln.Tag, l2ln.OID)
			}
			if ln.State.Writable() {
				lo, hi := f.coresOf(vd)
				for c := lo; c < hi; c++ {
					if c != tid && f.l1[c].Peek(ln.Tag) != nil {
						err = fmt.Errorf("L1 %d holds %#x writable while sibling %d caches it",
							tid, ln.Tag, c)
					}
				}
			}
		})
		if err != nil {
			return err
		}
	}
	for vd, l2 := range f.l2 {
		var err error
		l2.ForEach(func(ln *cache.Line) {
			if err != nil {
				return
			}
			e := f.dir.Ptr(ln.Tag)
			if e == nil {
				err = fmt.Errorf("L2 %d holds %#x with no directory entry", vd, ln.Tag)
				return
			}
			if e.Owner != vd && !e.Sharers.Has(vd) {
				err = fmt.Errorf("L2 %d holds %#x but directory disagrees", vd, ln.Tag)
			}
			if ln.State.Writable() && e.Owner != vd {
				err = fmt.Errorf("L2 %d holds %#x writable but owner=%d", vd, ln.Tag, e.Owner)
			}
			if ln.OID > f.cur[vd] {
				err = fmt.Errorf("L2 %d holds %#x tagged epoch %d beyond cur %d",
					vd, ln.Tag, ln.OID, f.cur[vd])
			}
		})
		if err != nil {
			return err
		}
	}
	// Walker fast-path soundness: with no dirty inflow since the last walk
	// and an empty walk queue, no stale dirty version may exist (the min-ver
	// report skips its rescan on exactly this claim). Only meaningful when
	// the walker actually runs at every advance.
	for vd := range f.l2 {
		if !f.walker || f.dirtyInflow[vd] || len(f.walkQ[vd]) > 0 {
			continue
		}
		var err error
		stale := func(where string) func(*cache.Line) {
			return func(ln *cache.Line) {
				if err == nil && ln.Dirty && ln.OID < f.walkedTo(vd) {
					err = fmt.Errorf("%s holds stale dirty %#x@%d with no inflow flag",
						where, ln.Tag, ln.OID)
				}
			}
		}
		lo, hi := f.coresOf(vd)
		for c := lo; c < hi; c++ {
			f.l1[c].ForEach(stale(fmt.Sprintf("L1 %d", c)))
		}
		f.l2[vd].ForEach(stale(fmt.Sprintf("L2 %d", vd)))
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
