// Package coherence runs a directory-based MESI protocol over the
// simulated multicore of cache.Levels: per-core L1s, per-VD shared L2s,
// and a shared, address-interleaved, *inclusive* LLC. The five baseline
// schemes (software logging/shadowing, hardware shadow, PiCL, PiCL-L2) run
// on this hierarchy and observe protocol events through Callbacks.
//
// NVOverlay's Coherent Snapshot Tracking runs a different protocol over
// the same cache.Levels in internal/cst: store-eviction, multi-version
// residency, and a non-inclusive victim LLC with an OMC bypass path. The
// arrays, the directory, the cache walk and the shared invariant rules
// live in cache.Levels; each package keeps only its protocol.
package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Callbacks let a scheme observe and extend the protocol. Any field may be
// nil. Extra cycles returned by write-back hooks are added to the latency of
// the access that triggered the write-back (modelling backpressure).
type Callbacks struct {
	// OnStore fires once permissions are held, before the line is marked
	// dirty; the scheme may inspect the pre-store OID (first-store detection)
	// and retag the line.
	OnStore func(tid, vd int, ln *cache.Line) (extra uint64)
	// OnL2WriteBack fires when a dirty line leaves a VD for the LLC.
	OnL2WriteBack func(vd int, ln cache.Line, reason cache.Reason) (extra uint64)
	// OnLLCWriteBack fires when a dirty line leaves the LLC for DRAM.
	OnLLCWriteBack func(ln cache.Line, reason cache.Reason) (extra uint64)
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

// Hierarchy is the full cache system of the simulated machine: the MESI
// protocol over the shared cache.Levels, which it embeds by value so the
// per-access paths reach the arrays and the directory without an extra
// pointer hop.
type Hierarchy struct {
	cache.Levels
	dram *mem.DRAM
	cb   Callbacks
	stat *stats.Set
	bus  *obs.Bus // nil when the run is unobserved
}

// New builds the hierarchy from the machine configuration.
func New(cfg *sim.Config, dram *mem.DRAM, cb Callbacks) *Hierarchy {
	return &Hierarchy{
		Levels: cache.NewLevels(cfg),
		dram:   dram,
		cb:     cb,
		stat:   stats.FromTable("coherence", counterNames[:]),
		bus:    cfg.Obs,
	}
}

// Stats returns a snapshot of the hierarchy counters.
func (h *Hierarchy) Stats() *stats.Set { return h.stat.Clone() }

// Load performs a read by thread tid and returns its latency in cycles.
func (h *Hierarchy) Load(tid int, addr uint64) uint64 {
	addr = h.Cfg.LineAddr(addr)
	vd := h.Cfg.VDOf(tid)
	lat := h.Cfg.L1Latency
	if ln := h.L1(tid).Lookup(addr); ln != nil {
		h.stat.IncAt(l1LoadHits)
		return lat
	}
	lat += h.Cfg.L2Latency
	if ln := h.L2(vd).Lookup(addr); ln != nil {
		h.stat.IncAt(l2LoadHits)
		lat += h.response(vd, ln.OID)
		// If a sibling L1 holds the line writable, downgrade it to Shared
		// (its dirty data merges into the L2) so no two L1s are writable.
		sibling := false
		lo, hi := h.CoresOf(vd)
		for c := lo; c < hi; c++ {
			if c == tid {
				continue
			}
			if sib := h.L1(c).Peek(addr); sib != nil {
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
		h.fillL1(tid, addr, state, ln.OID, ln.Data)
		return lat
	}
	lat += h.Cfg.LLCLatency
	rv, data, e, extra := h.fetch(vd, addr, false)
	lat += extra
	// e stays valid until fillL2: OnResponse does not insert into or
	// delete from the directory.
	lat += h.response(vd, rv)
	state := cache.Shared
	if e.Sharers.Only(vd) && e.Owner == -1 {
		state = cache.Exclusive
		e.Sharers = cache.SharerSet{}
		e.Owner = vd
	}
	l2ln, fill := h.fillL2(vd, addr, state, rv, data)
	h.fillL1(tid, addr, state, l2ln.OID, data) // OnL2Fill may have retagged the line
	return lat + fill
}

// Store performs a write of payload data by thread tid and returns its
// latency in cycles.
func (h *Hierarchy) Store(tid int, addr, data uint64) uint64 {
	addr = h.Cfg.LineAddr(addr)
	vd := h.Cfg.VDOf(tid)
	lat := h.Cfg.L1Latency
	if ln := h.L1(tid).Lookup(addr); ln != nil && ln.State.Writable() {
		h.stat.IncAt(l1StoreHits)
		lat += h.store(tid, vd, ln, data)
		return lat
	}
	lat += h.Cfg.L2Latency
	if l2ln := h.L2(vd).Lookup(addr); l2ln != nil && l2ln.State.Writable() {
		h.stat.IncAt(l2StoreHits)
		// Invalidate sibling L1 copies within the VD, merging dirty data.
		lo, hi := h.CoresOf(vd)
		for c := lo; c < hi; c++ {
			if c == tid {
				continue
			}
			if removed, ok := h.L1(c).Invalidate(addr); ok && removed.Dirty {
				l2ln.Dirty = true
				l2ln.OID = removed.OID
				l2ln.Data = removed.Data
			}
		}
		lat += h.response(vd, l2ln.OID)
		l2ln.State = cache.Modified
		ln := h.fillL1(tid, addr, cache.Exclusive, l2ln.OID, l2ln.Data)
		return lat + h.store(tid, vd, ln, data)
	}
	lat += h.Cfg.LLCLatency
	rv, old, e, extra := h.fetch(vd, addr, true)
	lat += extra
	// e stays valid until fillL2: OnResponse and the L1 invalidations do
	// not insert into or delete from the directory.
	lat += h.response(vd, rv)
	// Invalidate stale shared copies held by sibling L1s within this VD.
	lo, hi := h.CoresOf(vd)
	for c := lo; c < hi; c++ {
		if c == tid {
			continue
		}
		h.L1(c).Invalidate(addr)
	}
	e.Sharers = cache.SharerSet{}
	e.Owner = vd
	l2ln, fill := h.fillL2(vd, addr, cache.Modified, rv, old)
	ln := h.fillL1(tid, addr, cache.Exclusive, l2ln.OID, old) // OnL2Fill may have retagged the line
	return lat + fill + h.store(tid, vd, ln, data)
}

// store completes a write to the L1 line ln, which the caller holds
// writable: OnStore sees the pre-store line, then the line takes the
// payload and turns Modified.
func (h *Hierarchy) store(tid, vd int, ln *cache.Line, data uint64) (extra uint64) {
	if h.cb.OnStore != nil {
		extra = h.cb.OnStore(tid, vd, ln)
	}
	ln.State = cache.Modified
	ln.Dirty = true
	ln.Data = data
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
// returns the version of the data supplied, addr's directory entry and
// any extra latency.
func (h *Hierarchy) fetch(vd int, addr uint64, exclusive bool) (rv, data uint64, e *cache.DirEntry, lat uint64) {
	// The remote invalidations and downgrades below, and the scheme
	// callbacks they fire, never insert into or delete from the directory,
	// so e stays valid until an LLC install evicts a victim.
	e = h.Entry(addr)

	// Resolve remote copies.
	if e.Owner != -1 && e.Owner != vd {
		lat += h.Cfg.RemoteL2Lat
		if exclusive {
			h.invalidateVD(e.Owner, addr, cache.ReasonCoherence)
			e.Owner = -1
			h.stat.IncAt(remoteInvalidations)
		} else {
			h.downgradeVD(e.Owner, addr)
			e.Sharers.Add(e.Owner)
			e.Owner = -1
			h.stat.IncAt(remoteDowngrades)
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
			lat += h.Cfg.RemoteL2Lat
			h.invalidateVD(other, addr, cache.ReasonCoherence)
			e.Sharers.Remove(other)
			h.stat.IncAt(remoteInvalidations)
		})
	}

	// Ensure LLC residency (inclusive LLC: every VD-cached line is here).
	if ln := h.SliceOf(addr).Lookup(addr); ln != nil {
		h.stat.IncAt(llcHits)
		rv = ln.OID
		data = ln.Data
	} else {
		h.stat.IncAt(llcMisses)
		lat += h.dram.Latency()
		rv, data = h.dram.Read(addr)
		ln, victim, evicted := h.SliceOf(addr).Insert(addr)
		if evicted {
			lat += h.evictLLCVictim(victim)
			// Deleting the victim's entry may have shifted addr's entry.
			e = h.Dir.Ptr(addr)
		}
		ln.State, ln.OID, ln.Data = cache.Shared, rv, data
		if h.cb.OnLLCFill != nil {
			h.cb.OnLLCFill(ln)
			rv = ln.OID
		}
	}
	if !exclusive {
		e.Sharers.Add(vd)
	}
	return rv, data, e, lat
}

// evictLLCVictim handles an LLC victim with back-invalidation (inclusive
// LLC) and DRAM write-back.
func (h *Hierarchy) evictLLCVictim(victim cache.Line) (lat uint64) {
	// Back-invalidate all VD copies; their dirty data merges into the
	// victim before write-back.
	if e, ok := h.Dir.Take(victim.Tag); ok {
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
			h.stat.IncAt(backInvalidations)
		})
	}
	if victim.Dirty {
		h.dram.WriteBack(victim.Tag, victim.OID, victim.Data)
		h.stat.IncAt(llcDirtyEvictions)
		if h.cb.OnLLCWriteBack != nil {
			lat += h.cb.OnLLCWriteBack(victim, cache.ReasonCapacity)
		}
	}
	return lat
}

// recallVD removes every copy of addr from a VD (back-invalidation) and
// returns the newest dirty line, if any. No LLC interaction: the caller owns
// the LLC side.
func (h *Hierarchy) recallVD(vd int, addr uint64) (newest cache.Line, dirty bool) {
	lo, hi := h.CoresOf(vd)
	for c := lo; c < hi; c++ {
		if removed, ok := h.L1(c).Invalidate(addr); ok && removed.Dirty {
			newest = removed
			dirty = true
		}
	}
	if removed, ok := h.L2(vd).Invalidate(addr); ok && removed.Dirty && !dirty {
		newest = removed
		dirty = true
	}
	return newest, dirty
}

// invalidateVD removes addr from a VD in response to a remote GETX; dirty
// data is merged into the LLC line and reported via OnL2WriteBack.
func (h *Hierarchy) invalidateVD(vd int, addr uint64, reason cache.Reason) {
	if wb, ok := h.recallVD(vd, addr); ok {
		h.mergeIntoLLC(wb)
		if h.cb.OnL2WriteBack != nil {
			h.cb.OnL2WriteBack(vd, wb, reason)
		}
		h.noteWriteBack(vd, wb, reason)
		h.stat.IncAt(coherenceWritebacks)
	}
}

// noteWriteBack reports a dirty line leaving a VD on the observability bus.
// The hierarchy itself is clockless (schemes keep their own time), so these
// events carry cycle 0; the bus sequence still preserves their order.
func (h *Hierarchy) noteWriteBack(vd int, ln cache.Line, reason cache.Reason) {
	h.bus.Emit(obs.KindVersionEvict, 0, vd, ln.OID, ln.Tag, uint64(reason), 0)
}

// downgradeVD demotes a VD's copies of addr to Shared in response to a
// remote GETS; dirty data is merged into the LLC line.
func (h *Hierarchy) downgradeVD(vd int, addr uint64) {
	var wb cache.Line
	dirty := false
	lo, hi := h.CoresOf(vd)
	for c := lo; c < hi; c++ {
		if ln := h.L1(c).Peek(addr); ln != nil {
			if ln.Dirty {
				wb = *ln
				dirty = true
				ln.Dirty = false
			}
			ln.State = cache.Shared
		}
	}
	if ln := h.L2(vd).Peek(addr); ln != nil {
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
			h.cb.OnL2WriteBack(vd, wb, cache.ReasonCoherence)
		}
		h.noteWriteBack(vd, wb, cache.ReasonCoherence)
		h.stat.IncAt(coherenceWritebacks)
	}
}

// mergeIntoLLC folds a dirty line written back by a VD into the LLC copy,
// which exists by inclusion (L2 ⊆ LLC).
func (h *Hierarchy) mergeIntoLLC(wb cache.Line) {
	ln := h.SliceOf(wb.Tag).Peek(wb.Tag)
	if ln == nil {
		panic(fmt.Sprintf("coherence: written-back line %#x absent from the LLC: L2 ⊆ LLC inclusion broken", wb.Tag))
	}
	ln.Dirty = true
	ln.OID = wb.OID
	ln.Data = wb.Data
}

// fillL2 installs addr into vd's L2 and returns the installed line; the
// victim is written back and its L1 copies recalled (inclusive L2).
func (h *Hierarchy) fillL2(vd int, addr uint64, state cache.State, oid, data uint64) (ln *cache.Line, lat uint64) {
	ln, victim, evicted := h.L2(vd).Insert(addr)
	if evicted {
		lat = h.evictL2Victim(vd, victim, cache.ReasonCapacity)
	}
	ln.State = state
	ln.OID = oid
	ln.Data = data
	ln.Dirty = false
	if h.cb.OnL2Fill != nil {
		h.cb.OnL2Fill(vd, ln)
	}
	return ln, lat
}

func (h *Hierarchy) evictL2Victim(vd int, victim cache.Line, reason cache.Reason) (lat uint64) {
	// Recall L1 copies first (inclusive L2); newest dirty data wins.
	lo, hi := h.CoresOf(vd)
	for c := lo; c < hi; c++ {
		if removed, ok := h.L1(c).Invalidate(victim.Tag); ok && removed.Dirty {
			victim.Dirty = true
			victim.OID = removed.OID
			victim.Data = removed.Data
		}
	}
	h.DropVD(vd, victim.Tag)
	if victim.Dirty {
		h.mergeIntoLLC(victim)
		if h.cb.OnL2WriteBack != nil {
			lat += h.cb.OnL2WriteBack(vd, victim, reason)
		}
		h.noteWriteBack(vd, victim, reason)
		h.stat.IncAt(l2DirtyEvictions)
	}
	return lat
}

// fillL1 installs addr into tid's L1 with the given state and returns the
// installed line; a dirty victim is written back into the L2 (which holds
// it by inclusion).
func (h *Hierarchy) fillL1(tid int, addr uint64, state cache.State, oid, data uint64) *cache.Line {
	vd := h.Cfg.VDOf(tid)
	ln, victim, evicted := h.L1(tid).Insert(addr)
	if evicted && victim.Dirty {
		l2ln := h.L2(vd).Peek(victim.Tag)
		if l2ln == nil {
			panic(fmt.Sprintf("coherence: L1 victim %#x absent from L2 of VD %d: L1 ⊆ L2 inclusion broken", victim.Tag, vd))
		}
		l2ln.Dirty = true
		l2ln.OID = victim.OID
		l2ln.Data = victim.Data
		l2ln.State = cache.Modified
		h.stat.IncAt(l1DirtyEvictions)
	}
	ln.State = state
	ln.OID = oid
	ln.Data = data
	ln.Dirty = false
	return ln
}

// PersistDirty is the one walk behind every baseline checkpoint. It visits
// the L1s down to deepest in Walk order and hands fn each dirty line it
// meets: the first copy of an address seen, which is the newest (L1 over
// L2 over LLC). It then sets every cached copy of that address, down to
// the LLC whatever deepest is, to that line's data and OID and clears its
// dirty bit. So no address is handed out twice, and no stale copy can
// resurface once the clean copies are silently dropped. fn must not touch
// the hierarchy.
func (h *Hierarchy) PersistDirty(deepest cache.Level, fn func(cache.Line)) {
	h.Walk(cache.AllVDs, deepest, func(_ cache.Level, c *cache.Cache) {
		c.ForEach(func(ln *cache.Line) {
			if ln.Dirty {
				newest := *ln
				fn(newest)
				h.syncCopies(newest)
			}
		})
	})
}

// syncCopies sets every cached copy of newest's address to its data and
// OID and clears the dirty bit. By inclusion the copies are in the L1s and
// L2 of the domains the directory names as owner or sharer, and in the
// address's LLC slice.
func (h *Hierarchy) syncCopies(newest cache.Line) {
	sync := func(ln *cache.Line) {
		if ln != nil {
			ln.Dirty = false
			ln.OID = newest.OID
			ln.Data = newest.Data
		}
	}
	if e := h.Dir.Ptr(newest.Tag); e != nil {
		vds := e.Sharers
		if e.Owner != -1 {
			vds.Add(e.Owner)
		}
		vds.ForEach(func(vd int) {
			lo, hi := h.CoresOf(vd)
			for c := lo; c < hi; c++ {
				sync(h.L1(c).Peek(newest.Tag))
			}
			sync(h.L2(vd).Peek(newest.Tag))
		})
	}
	sync(h.SliceOf(newest.Tag).Peek(newest.Tag))
}

// CheckInvariants validates the shared hierarchy rules plus L2 ⊆ LLC
// inclusion; tests call it after randomised access sequences. It returns
// the first violation.
func (h *Hierarchy) CheckInvariants() error {
	return h.CheckShared(func(lv cache.Level, vd int, ln *cache.Line) error {
		if lv == cache.LevelL2 && h.SliceOf(ln.Tag).Peek(ln.Tag) == nil {
			return fmt.Errorf("L2 %d holds %#x but LLC does not (inclusion)", vd, ln.Tag)
		}
		return nil
	})
}
