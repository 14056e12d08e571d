// Package coherence implements a directory-based MESI cache hierarchy for
// the simulated multicore: per-core L1s, per-VD shared L2s, and a shared,
// address-interleaved, *inclusive* LLC. The five baseline schemes (software
// logging/shadowing, hardware shadow, PiCL, PiCL-L2) run on this hierarchy
// and observe protocol events through Callbacks.
//
// NVOverlay's Coherent Snapshot Tracking needs deeper protocol changes
// (store-eviction, multi-version residency, a non-inclusive LLC with an OMC
// bypass path) and therefore implements its own versioned hierarchy in
// internal/cst; the two share internal/cache's cache arrays and its
// directory (cache.Directory, a mem.Table of DirEntry per line address).
package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Reason classifies why a dirty line was written back.
type Reason int

// Write-back reasons, used for the paper's Fig 15 evict-reason decomposition.
const (
	ReasonCapacity  Reason = iota // LRU victim on a fill
	ReasonCoherence               // invalidation or downgrade from another VD
	ReasonWalk                    // tag-walker write-back
	ReasonDrain                   // end-of-run or epoch flush
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
	case ReasonDrain:
		return "drain"
	default:
		return fmt.Sprintf("reason%d", int(r))
	}
}

// Callbacks let a scheme observe and extend the protocol. Any field may be
// nil. Extra cycles returned by write-back hooks are added to the latency of
// the access that triggered the write-back (modelling backpressure).
type Callbacks struct {
	// OnStore fires once permissions are held, before the line is marked
	// dirty; the scheme may inspect the pre-store OID (first-store detection)
	// and retag the line.
	OnStore func(tid, vd int, ln *cache.Line) (extra uint64)
	// OnL2WriteBack fires when a dirty line leaves a VD for the LLC.
	OnL2WriteBack func(vd int, ln cache.Line, reason Reason) (extra uint64)
	// OnLLCWriteBack fires when a dirty line leaves the LLC for DRAM.
	OnLLCWriteBack func(ln cache.Line, reason Reason) (extra uint64)
	// OnResponse fires with the version (OID) of data delivered to a VD.
	OnResponse func(vd int, rv uint64) (extra uint64)
	// OnL2Fill fires when a line is installed in a VD's L2 on a miss fill;
	// schemes that track epoch tags only at the L2 (PiCL-L2) zero the OID
	// here, modelling the tag being lost below their tracking level.
	OnL2Fill func(vd int, ln *cache.Line)
	// OnLLCFill fires when a line is installed in the LLC from DRAM;
	// LLC-level trackers (PiCL) zero the OID here.
	OnLLCFill func(ln *cache.Line)
}

// Hierarchy is the full cache system of the simulated machine. The
// directory is a cache.Directory, a flat mem.Table keyed by line address:
// no per-entry allocation and no hash-seed randomisation on the per-access
// lookups that dominate the simulator's hot path.
type Hierarchy struct {
	cfg  *sim.Config
	l1   []*cache.Cache // per core
	l2   []*cache.Cache // per VD
	llc  []*cache.Cache // slices
	dir  *cache.Directory
	dram *mem.DRAM
	cb   Callbacks
	stat *stats.Set
	bus  *obs.Bus // nil when the run is unobserved
}

// New builds the hierarchy from the machine configuration.
func New(cfg *sim.Config, dram *mem.DRAM, cb Callbacks) *Hierarchy {
	h := &Hierarchy{
		cfg:  cfg,
		l1:   make([]*cache.Cache, cfg.Cores),
		l2:   make([]*cache.Cache, cfg.VDs()),
		llc:  make([]*cache.Cache, cfg.LLCSlices),
		dir:  cache.NewDirectory(),
		dram: dram,
		cb:   cb,
		stat: stats.NewSet("coherence"),
		bus:  cfg.Obs,
	}
	for i := range h.l1 {
		h.l1[i] = cache.New(fmt.Sprintf("l1.%d", i), cfg.L1Size, cfg.L1Ways, cfg.LineSize)
	}
	for i := range h.l2 {
		h.l2[i] = cache.New(fmt.Sprintf("l2.%d", i), cfg.L2Size, cfg.L2Ways, cfg.LineSize)
	}
	sliceSize := cfg.LLCSize / cfg.LLCSlices
	for i := range h.llc {
		h.llc[i] = cache.NewStrided(fmt.Sprintf("llc.%d", i), sliceSize, cfg.LLCWays,
			cfg.LineSize, cfg.LLCSlices)
	}
	return h
}

// L1 returns core tid's L1 array.
func (h *Hierarchy) L1(tid int) *cache.Cache { return h.l1[tid] }

// L2 returns versioned domain vd's L2 array.
func (h *Hierarchy) L2(vd int) *cache.Cache { return h.l2[vd] }

// LLCSlice returns LLC slice i.
func (h *Hierarchy) LLCSlice(i int) *cache.Cache { return h.llc[i] }

// Slices returns the number of LLC slices.
func (h *Hierarchy) Slices() int { return len(h.llc) }

// Stats returns the hierarchy counter set.
func (h *Hierarchy) Stats() *stats.Set { return h.stat }

func (h *Hierarchy) sliceOf(addr uint64) *cache.Cache {
	return h.llc[int((addr/uint64(h.cfg.LineSize))%uint64(len(h.llc)))]
}

// entry resolves addr's directory entry, creating it when absent. The
// returned pointer is valid until the next directory insertion or
// deletion, so a caller that evicts lines (which deletes their entries)
// resolves its entry again afterwards.
func (h *Hierarchy) entry(addr uint64) *cache.DirEntry {
	return h.dir.GetOrCreate(addr)
}

func (h *Hierarchy) coresOf(vd int) (lo, hi int) {
	return vd * h.cfg.CoresPerVD, (vd + 1) * h.cfg.CoresPerVD
}

// Load performs a read by thread tid and returns its latency in cycles.
func (h *Hierarchy) Load(tid int, addr uint64) uint64 {
	addr = h.cfg.LineAddr(addr)
	vd := h.cfg.VDOf(tid)
	lat := h.cfg.L1Latency
	if ln := h.l1[tid].Lookup(addr); ln != nil {
		h.stat.Inc("l1_load_hits")
		return lat
	}
	lat += h.cfg.L2Latency
	if ln := h.l2[vd].Lookup(addr); ln != nil {
		h.stat.Inc("l2_load_hits")
		lat += h.response(vd, ln.OID)
		// If a sibling L1 holds the line writable, downgrade it to Shared
		// (its dirty data merges into the L2) so no two L1s are writable.
		sibling := false
		lo, hi := h.coresOf(vd)
		for c := lo; c < hi; c++ {
			if c == tid {
				continue
			}
			if sib := h.l1[c].Peek(addr); sib != nil {
				sibling = true
				if sib.Dirty {
					ln.Dirty = true
					ln.OID = sib.OID
					ln.Data = sib.Data
					sib.Dirty = false
				}
				sib.State = cache.Shared
			}
		}
		state := cache.Shared
		if ln.State != cache.Shared && !sibling {
			state = cache.Exclusive
		}
		lat += h.fillL1(tid, addr, state, ln.OID, ln.Data)
		return lat
	}
	lat += h.cfg.LLCLatency
	rv, data, extra := h.fetch(vd, addr, false)
	lat += extra
	lat += h.response(vd, rv)
	e := h.entry(addr)
	state := cache.Shared
	if e.Sharers.Only(vd) && e.Owner == -1 {
		state = cache.Exclusive
		e.Sharers = cache.SharerSet{}
		e.Owner = vd
	}
	lat += h.fillL2(vd, addr, state, rv, data)
	if l2ln := h.l2[vd].Peek(addr); l2ln != nil {
		rv = l2ln.OID // the OnL2Fill hook may have adjusted the tag
	}
	lat += h.fillL1(tid, addr, state, rv, data)
	return lat
}

// Store performs a write by thread tid and returns its latency in cycles.
func (h *Hierarchy) Store(tid int, addr uint64) uint64 {
	addr = h.cfg.LineAddr(addr)
	vd := h.cfg.VDOf(tid)
	lat := h.cfg.L1Latency
	if ln := h.l1[tid].Lookup(addr); ln != nil && ln.State.Writable() {
		h.stat.Inc("l1_store_hits")
		lat += h.store(tid, vd, ln)
		return lat
	}
	lat += h.cfg.L2Latency
	if l2ln := h.l2[vd].Lookup(addr); l2ln != nil && l2ln.State.Writable() {
		h.stat.Inc("l2_store_hits")
		// Invalidate sibling L1 copies within the VD, merging dirty data.
		lo, hi := h.coresOf(vd)
		for c := lo; c < hi; c++ {
			if c == tid {
				continue
			}
			if removed, ok := h.l1[c].Invalidate(addr); ok && removed.Dirty {
				l2ln.Dirty = true
				l2ln.OID = removed.OID
				l2ln.Data = removed.Data
			}
		}
		lat += h.response(vd, l2ln.OID)
		l2ln.State = cache.Modified
		lat += h.fillL1(tid, addr, cache.Exclusive, l2ln.OID, l2ln.Data)
		ln := h.l1[tid].Peek(addr)
		lat += h.store(tid, vd, ln)
		return lat
	}
	lat += h.cfg.LLCLatency
	rv, data, extra := h.fetch(vd, addr, true)
	lat += extra
	lat += h.response(vd, rv)
	// Invalidate stale shared copies held by sibling L1s within this VD.
	lo, hi := h.coresOf(vd)
	for c := lo; c < hi; c++ {
		if c == tid {
			continue
		}
		h.l1[c].Invalidate(addr)
	}
	e := h.entry(addr)
	e.Sharers = cache.SharerSet{}
	e.Owner = vd
	lat += h.fillL2(vd, addr, cache.Modified, rv, data)
	if l2ln := h.l2[vd].Peek(addr); l2ln != nil {
		rv = l2ln.OID // the OnL2Fill hook may have adjusted the tag
	}
	lat += h.fillL1(tid, addr, cache.Exclusive, rv, data)
	ln := h.l1[tid].Peek(addr)
	lat += h.store(tid, vd, ln)
	return lat
}

func (h *Hierarchy) store(tid, vd int, ln *cache.Line) (extra uint64) {
	if h.cb.OnStore != nil {
		extra = h.cb.OnStore(tid, vd, ln)
	}
	ln.State = cache.Modified
	ln.Dirty = true
	return extra
}

func (h *Hierarchy) response(vd int, rv uint64) uint64 {
	if h.cb.OnResponse != nil {
		return h.cb.OnResponse(vd, rv)
	}
	return 0
}

// fetch resolves a VD miss at the directory: it invalidates or downgrades
// remote VDs, ensures the line is resident in the (inclusive) LLC, and
// returns the version of the data supplied plus any extra latency.
func (h *Hierarchy) fetch(vd int, addr uint64, exclusive bool) (rv, data uint64, lat uint64) {
	// Work on a copy of addr's entry and store it back at the end: the LLC
	// installs below may evict a victim, and deleting its entry can move
	// addr's entry within the directory table.
	e := *h.entry(addr)

	// Resolve remote copies.
	if e.Owner != -1 && e.Owner != vd {
		lat += h.cfg.RemoteL2Lat
		if exclusive {
			h.invalidateVD(e.Owner, addr, ReasonCoherence)
			e.Owner = -1
			h.stat.Inc("remote_invalidations")
		} else {
			h.downgradeVD(e.Owner, addr)
			e.Sharers.Add(e.Owner)
			e.Owner = -1
			h.stat.Inc("remote_downgrades")
		}
	}
	if exclusive && !e.Sharers.None() {
		// Value copy: O(set-bits) ascending walk, same invalidation order as
		// the old O(VDs) bitmask scan.
		sharers := e.Sharers
		sharers.ForEach(func(other int) {
			if other == vd {
				return
			}
			lat += h.cfg.RemoteL2Lat
			h.invalidateVD(other, addr, ReasonCoherence)
			e.Sharers.Remove(other)
			h.stat.Inc("remote_invalidations")
		})
	}

	// Ensure LLC residency (inclusive LLC: every VD-cached line is here).
	slice := h.sliceOf(addr)
	if ln := slice.Lookup(addr); ln != nil {
		h.stat.Inc("llc_hits")
		rv = ln.OID
		data = ln.Data
	} else {
		h.stat.Inc("llc_misses")
		lat += h.dram.Latency()
		rv = h.dram.OID(addr)
		data = h.dram.Data(addr)
		lat += h.installLLC(addr, rv, data, false)
		if h.cb.OnLLCFill != nil {
			if ln := h.sliceOf(addr).Peek(addr); ln != nil {
				h.cb.OnLLCFill(ln)
				rv = ln.OID
			}
		}
	}
	if !exclusive {
		e.Sharers.Add(vd)
	}
	*h.entry(addr) = e
	return rv, data, lat
}

// installLLC inserts addr into its LLC slice, handling the victim with
// back-invalidation (inclusive LLC) and DRAM write-back.
func (h *Hierarchy) installLLC(addr uint64, oid, data uint64, dirty bool) (lat uint64) {
	slice := h.sliceOf(addr)
	ln, victim, evicted := slice.Insert(addr)
	if evicted {
		lat += h.evictLLCVictim(victim)
	}
	ln.State = cache.Shared
	ln.OID = oid
	ln.Data = data
	ln.Dirty = dirty
	return lat
}

func (h *Hierarchy) evictLLCVictim(victim cache.Line) (lat uint64) {
	// Back-invalidate all

	// VD copies; their dirty data merges into the victim before write-back.
	if e := h.dir.Ptr(victim.Tag); e != nil {
		vds := e.Sharers
		if e.Owner != -1 {
			vds.Add(e.Owner)
		}
		vds.ForEach(func(vd int) {
			if wb, ok := h.recallVD(vd, victim.Tag); ok {
				victim.Dirty = true
				victim.OID = wb.OID
				victim.Data = wb.Data
			}
			h.stat.Inc("back_invalidations")
		})
		h.dir.Delete(victim.Tag)
	}
	if victim.Dirty {
		h.dram.WriteBack(victim.Tag, victim.OID, victim.Data)
		h.stat.Inc("llc_dirty_evictions")
		if h.cb.OnLLCWriteBack != nil {
			lat += h.cb.OnLLCWriteBack(victim, ReasonCapacity)
		}
	}
	return lat
}

// recallVD removes every copy of addr from a VD (back-invalidation) and
// returns the newest dirty line, if any. No LLC interaction: the caller owns
// the LLC side.
func (h *Hierarchy) recallVD(vd int, addr uint64) (newest cache.Line, dirty bool) {
	lo, hi := h.coresOf(vd)
	for c := lo; c < hi; c++ {
		if removed, ok := h.l1[c].Invalidate(addr); ok && removed.Dirty {
			newest = removed
			dirty = true
		}
	}
	if removed, ok := h.l2[vd].Invalidate(addr); ok && removed.Dirty && !dirty {
		newest = removed
		dirty = true
	}
	return newest, dirty
}

// invalidateVD removes addr from a VD in response to a remote GETX; dirty
// data is merged into the LLC line and reported via OnL2WriteBack.
func (h *Hierarchy) invalidateVD(vd int, addr uint64, reason Reason) {
	if wb, ok := h.recallVD(vd, addr); ok {
		h.mergeIntoLLC(wb)
		if h.cb.OnL2WriteBack != nil {
			h.cb.OnL2WriteBack(vd, wb, reason)
		}
		h.noteWriteBack(vd, wb, reason)
		h.stat.Inc("coherence_writebacks")
	}
}

// noteWriteBack reports a dirty line leaving a VD on the observability bus.
// The hierarchy itself is clockless (schemes keep their own time), so these
// events carry cycle 0; the bus sequence still preserves their order.
func (h *Hierarchy) noteWriteBack(vd int, ln cache.Line, reason Reason) {
	h.bus.Emit(obs.KindVersionEvict, 0, vd, ln.OID, ln.Tag, uint64(reason), 0)
}

// downgradeVD demotes a VD's copies of addr to Shared in response to a
// remote GETS; dirty data is merged into the LLC line.
func (h *Hierarchy) downgradeVD(vd int, addr uint64) {
	var wb cache.Line
	dirty := false
	lo, hi := h.coresOf(vd)
	for c := lo; c < hi; c++ {
		if ln := h.l1[c].Peek(addr); ln != nil {
			if ln.Dirty {
				wb = *ln
				dirty = true
				ln.Dirty = false
			}
			ln.State = cache.Shared
		}
	}
	if ln := h.l2[vd].Peek(addr); ln != nil {
		if ln.Dirty {
			if !dirty {
				wb = *ln
				dirty = true
			}
			ln.Dirty = false
		}
		if dirty {
			// The L1 write-back flows through the L2 (paper Fig 5): the L2
			// copy is refreshed so later intra-VD fills serve current data.
			ln.OID = wb.OID
			ln.Data = wb.Data
		}
		ln.State = cache.Shared
	}
	if dirty {
		h.mergeIntoLLC(wb)
		if h.cb.OnL2WriteBack != nil {
			h.cb.OnL2WriteBack(vd, wb, ReasonCoherence)
		}
		h.noteWriteBack(vd, wb, ReasonCoherence)
		h.stat.Inc("coherence_writebacks")
	}
}

// mergeIntoLLC folds a dirty line written back by a VD into the inclusive
// LLC copy (which must exist; defensively installs it otherwise).
func (h *Hierarchy) mergeIntoLLC(wb cache.Line) {
	slice := h.sliceOf(wb.Tag)
	if ln := slice.Peek(wb.Tag); ln != nil {
		ln.Dirty = true
		ln.OID = wb.OID
		ln.Data = wb.Data
		return
	}
	h.installLLC(wb.Tag, wb.OID, wb.Data, true)
}

// fillL2 installs addr into vd's L2; the victim is written back and its L1
// copies recalled (inclusive L2).
func (h *Hierarchy) fillL2(vd int, addr uint64, state cache.State, oid, data uint64) (lat uint64) {
	ln, victim, evicted := h.l2[vd].Insert(addr)
	if evicted {
		lat += h.evictL2Victim(vd, victim, ReasonCapacity)
	}
	ln.State = state
	ln.OID = oid
	ln.Data = data
	ln.Dirty = false
	if h.cb.OnL2Fill != nil {
		h.cb.OnL2Fill(vd, ln)
	}
	return lat
}

func (h *Hierarchy) evictL2Victim(vd int, victim cache.Line, reason Reason) (lat uint64) {
	// Recall L1 copies first (inclusive L2); newest dirty data wins.
	lo, hi := h.coresOf(vd)
	for c := lo; c < hi; c++ {
		if removed, ok := h.l1[c].Invalidate(victim.Tag); ok && removed.Dirty {
			victim.Dirty = true
			victim.OID = removed.OID
			victim.Data = removed.Data
		}
	}
	// Directory: this VD no longer caches the line.
	if e := h.dir.Ptr(victim.Tag); e != nil {
		e.Sharers.Remove(vd)
		if e.Owner == vd {
			e.Owner = -1
		}
		h.dir.DeleteIfEmpty(victim.Tag)
	}
	if victim.Dirty {
		h.mergeIntoLLC(victim)
		if h.cb.OnL2WriteBack != nil {
			lat += h.cb.OnL2WriteBack(vd, victim, reason)
		}
		h.noteWriteBack(vd, victim, reason)
		h.stat.Inc("l2_dirty_evictions")
	}
	return lat
}

// fillL1 installs addr into tid's L1 with the given state; a dirty victim is
// written back into the L2 (which holds it by inclusion).
func (h *Hierarchy) fillL1(tid int, addr uint64, state cache.State, oid, data uint64) (lat uint64) {
	vd := h.cfg.VDOf(tid)
	ln, victim, evicted := h.l1[tid].Insert(addr)
	if evicted && victim.Dirty {
		if l2ln := h.l2[vd].Peek(victim.Tag); l2ln != nil {
			l2ln.Dirty = true
			l2ln.OID = victim.OID
			l2ln.Data = victim.Data
			l2ln.State = cache.Modified
		} else {
			// L2 lost the line (shouldn't happen under inclusion); push to LLC.
			h.mergeIntoLLC(victim)
		}
		h.stat.Inc("l1_dirty_evictions")
	}
	ln.State = state
	ln.OID = oid
	ln.Data = data
	ln.Dirty = false
	return lat
}

// WriteBackLLCLine persists an LLC-resident dirty line in place (tag-walk
// style): the line is downgraded to clean Exclusive-equivalent without
// leaving the LLC. Returns false if the line is not dirty/resident.
func (h *Hierarchy) WriteBackLLCLine(addr uint64) (cache.Line, bool) {
	slice := h.sliceOf(addr)
	ln := slice.Peek(addr)
	if ln == nil || !ln.Dirty {
		return cache.Line{}, false
	}
	copyLn := *ln
	ln.Dirty = false
	h.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
	return copyLn, true
}

// FlushVD recalls every line of a VD (L1s + L2), returning all dirty lines.
// Used by epoch drains in schemes that track at VD granularity.
func (h *Hierarchy) FlushVD(vd int) []cache.Line {
	var dirty []cache.Line
	lo, hi := h.coresOf(vd)
	for c := lo; c < hi; c++ {
		for _, ln := range h.l1[c].Flush() {
			dirty = append(dirty, ln)
		}
	}
	for _, ln := range h.l2[vd].Flush() {
		dirty = append(dirty, ln)
	}
	// Merge into LLC and fix the directory.
	for _, ln := range dirty {
		h.mergeIntoLLC(ln)
	}
	// The directory may not be modified while it is iterated: collect the
	// addresses first, then update and prune.
	addrs := make([]uint64, 0, h.dir.Len())
	h.dir.ForEach(func(addr uint64, _ cache.DirEntry) { addrs = append(addrs, addr) })
	for _, addr := range addrs {
		e := h.dir.Ptr(addr)
		e.Sharers.Remove(vd)
		if e.Owner == vd {
			e.Owner = -1
		}
		h.dir.DeleteIfEmpty(addr)
	}
	return dirty
}

// DirtyLines returns copies of all dirty lines currently in the hierarchy
// whose OID is at most maxOID, deduplicated by address keeping the newest
// copy (L1 over L2 over LLC). Schemes use it for epoch-boundary flushes.
func (h *Hierarchy) DirtyLines(maxOID uint64) []cache.Line {
	seen := make(map[uint64]bool)
	var out []cache.Line
	add := func(ln *cache.Line) {
		if ln.Dirty && ln.OID <= maxOID && !seen[ln.Tag] {
			seen[ln.Tag] = true
			out = append(out, *ln)
		}
	}
	for _, c := range h.l1 {
		c.ForEach(add)
	}
	for _, c := range h.l2 {
		c.ForEach(add)
	}
	for _, c := range h.llc {
		c.ForEach(add)
	}
	return out
}

// CheckInvariants validates inclusion and directory consistency; tests call
// it after randomised access sequences. It returns the first violation.
func (h *Hierarchy) CheckInvariants() error {
	// L1 ⊆ L2 ⊆ LLC.
	for tid, l1 := range h.l1 {
		vd := h.cfg.VDOf(tid)
		var err error
		l1.ForEach(func(ln *cache.Line) {
			if err != nil {
				return
			}
			if h.l2[vd].Peek(ln.Tag) == nil {
				err = fmt.Errorf("L1 %d holds %#x but L2 %d does not (inclusion)", tid, ln.Tag, vd)
			}
		})
		if err != nil {
			return err
		}
	}
	for vd, l2 := range h.l2 {
		var err error
		l2.ForEach(func(ln *cache.Line) {
			if err != nil {
				return
			}
			if h.sliceOf(ln.Tag).Peek(ln.Tag) == nil {
				err = fmt.Errorf("L2 %d holds %#x but LLC does not (inclusion)", vd, ln.Tag)
			}
			e := h.dir.Ptr(ln.Tag)
			if e == nil {
				err = fmt.Errorf("L2 %d holds %#x with no directory entry", vd, ln.Tag)
				return
			}
			if e.Owner != vd && !e.Sharers.Has(vd) {
				err = fmt.Errorf("L2 %d holds %#x but directory disagrees (owner=%d sharers=%s)",
					vd, ln.Tag, e.Owner, e.Sharers)
			}
			if ln.State.Writable() && e.Owner != vd {
				err = fmt.Errorf("L2 %d holds %#x writable but owner=%d", vd, ln.Tag, e.Owner)
			}
		})
		if err != nil {
			return err
		}
	}
	// At most one writable VD per address. Walk the directory in address
	// order so the first violation reported is stable across runs.
	for _, addr := range h.dir.SortedKeys() {
		e := h.dir.Ptr(addr)
		if e.Owner != -1 && e.Sharers.Has(e.Owner) {
			return fmt.Errorf("addr %#x: owner %d also listed as sharer", addr, e.Owner)
		}
	}
	// At most one writable L1 copy per address within a VD.
	for tid, l1 := range h.l1 {
		vd := h.cfg.VDOf(tid)
		var err error
		l1.ForEach(func(ln *cache.Line) {
			if err != nil || !ln.State.Writable() {
				return
			}
			lo, hi := h.coresOf(vd)
			for c := lo; c < hi; c++ {
				if c == tid {
					continue
				}
				if h.l1[c].Peek(ln.Tag) != nil {
					err = fmt.Errorf("L1 %d holds %#x writable while sibling %d caches it", tid, ln.Tag, c)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
