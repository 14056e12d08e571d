package omc

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// OMC is one Overlay Memory Controller (paper §V). It receives versions
// evicted from versioned domains, persists them into pool pages, tracks
// them in per-epoch mapping tables, and continuously merges recoverable
// epochs into the persistent Master Table. Mapping-table updates and merges
// are background operations: they cost NVM bandwidth (bank bookings) but do
// not stall execution except through bandwidth backpressure.
type OMC struct {
	cfg *sim.Config
	nvm *mem.NVM
	id  int

	epochs   *mem.Table[*Table] // volatile per-epoch tables, unmerged
	retained *mem.Table[*Table] // merged tables kept for time-travel reads
	free     nodeFree           // nodes of merged, unretained tables
	master   *Table
	pool     *Pool
	buf      *Buffer

	payload  *mem.Table[uint64] // nvmAddr -> data token; kept only when nvm.HasPlane()
	metaNext uint64

	recEpoch uint64
	maxEpoch uint64

	// Durable-record log cursors: commit slot 0 is the genesis record, so
	// commit records start at sequence 1; seal records start at 0.
	commitSeq int
	sealSeq   int

	// now is the cycle of the in-flight operation; background work (merges,
	// compaction, master-table writes) issues its NVM traffic at this time.
	now uint64

	stat *stats.Set
	bus  *obs.Bus // nil when the run is unobserved
}

// New constructs OMC number id of n, owning the address partition
// (addr>>12) % n == id. cfg.OMCBufferBytes sizes its write-back buffer and
// cfg.RetainEpochs keeps merged epochs for time-travel reads.
func New(cfg *sim.Config, nvm *mem.NVM, id int) *OMC {
	o := &OMC{
		cfg:      cfg,
		nvm:      nvm,
		id:       id,
		epochs:   mem.NewTable[*Table](0),
		retained: mem.NewTable[*Table](0),
		pool:     NewPool(PoolBase+uint64(id)*omcRegion, cfg.PageSize, cfg.LineSize, cfg.NVMPoolPages),
		payload:  mem.NewTable[uint64](0),
		stat:     stats.FromTable("omc", counterNames[:]),
		bus:      cfg.Obs,
	}
	o.metaNext = MetaBase + uint64(id)*omcRegion
	o.commitSeq = 1 // slot 0 is the genesis record
	o.master = NewMasterTable(
		o.allocMeta,
		func(nvmAddr uint64, size int, word uint64) {
			// Master Table mutations are persistent 8-byte writes; merge
			// bursts advance the controller's local time so a full queue
			// delays the merge rather than compounding stalls.
			o.now += o.nvm.Persist(mem.WMeta, nvmAddr, size, []uint64{word}, o.now)
			o.stat.IncAt(metaWrites)
		},
	)
	if cfg.OMCBufferBytes > 0 {
		o.buf = NewBuffer(cfg, cfg.OMCBufferBytes)
	}
	return o
}

// allocMeta hands out NVM homes for mapping-table nodes (master and
// per-epoch alike) from this OMC's metadata region.
func (o *OMC) allocMeta(size int) uint64 {
	addr := o.metaNext
	o.metaNext += uint64(size)
	return addr
}

// newEpochTable builds a per-epoch mapping table whose slot writes are
// recorded on the device's content plane without booking extra bank time:
// the M_e tables live in NVM (paper §V-A) but their write timing is
// already charged through the OMC's data/meta paths, so the content rides
// silently — durable once the bank's completion clock passes, torn or
// lost at a power cut just like booked traffic.
func (o *OMC) newEpochTable() *Table {
	t := NewMasterTable(
		o.allocMeta,
		func(nvmAddr uint64, size int, word uint64) {
			o.nvm.PersistSilent(nvmAddr, []uint64{word}, o.now)
		},
	)
	t.free = &o.free
	return t
}

// ReceiveVersion accepts a snapshot line from the frontend at cycle now and
// returns the backpressure stall to charge the evicting access.
func (o *OMC) ReceiveVersion(v Version, now uint64) (stall uint64) {
	o.now = now
	o.stat.IncAt(versionsReceived)
	if v.Epoch > o.maxEpoch {
		o.maxEpoch = v.Epoch
	}
	if o.buf != nil {
		flush := o.buf.Absorb(v)
		for _, fv := range flush {
			stall += o.writeVersion(fv, now+stall)
		}
		return stall
	}
	return o.writeVersion(v, now)
}

// lateVersionHook, when set, observes versions arriving for epochs at or
// below the recoverable epoch (a min-ver protocol violation; test-only).
var lateVersionHook func(v Version, recEpoch uint64)

// SetLateVersionHook installs the test-only late-version observer.
func SetLateVersionHook(f func(v Version, recEpoch uint64)) { lateVersionHook = f }

// writeVersion persists one version into its epoch's overlay.
func (o *OMC) writeVersion(v Version, now uint64) (stall uint64) {
	if lateVersionHook != nil && v.Epoch <= o.recEpoch {
		lateVersionHook(v, o.recEpoch)
	}
	nvmAddr, newPage := o.pool.Alloc(v.Epoch)
	if newPage {
		o.stat.IncAt(pagesAllocated)
	}
	// The persisted line carries [data, epoch, checksum]: binding address
	// and epoch into the checksum lets recovery reject stale records at
	// reused pool addresses instead of trusting them.
	stall += o.nvm.Persist(mem.WData, nvmAddr, o.cfg.LineSize,
		[]uint64{v.Data, v.Epoch, LineCheck(v.Addr, v.Epoch, v.Data)}, now)
	keep := o.nvm.HasPlane()
	if keep {
		o.payload.Put(nvmAddr, v.Data)
	}
	tp, ok := o.epochs.Upsert(v.Epoch)
	if !ok {
		*tp = o.newEpochTable()
	}
	t := *tp
	if old, replaced := t.Insert(v.Addr, nvmAddr); replaced {
		// The epoch's snapshot keeps only its newest version of an address.
		if keep {
			o.payload.Delete(old)
		}
		o.pool.Release(old)
		o.stat.IncAt(sameEpochReplacements)
	}
	if o.pool.OverQuota() {
		stall += o.Compact(now + stall)
	}
	return stall
}

// advanceRecEpochTo raises the recoverable epoch to er (the floor the
// group's min-ver ledger established), merging the epochs that became
// recoverable.
func (o *OMC) advanceRecEpochTo(er, now uint64) {
	o.now = now
	if er <= o.recEpoch {
		return
	}
	if o.buf != nil {
		// Buffered versions of closed epochs must persist before the epochs
		// can be declared recoverable.
		for _, fv := range o.buf.FlushBefore(er + 1) {
			o.now += o.writeVersion(fv, o.now)
		}
	}
	// Merge every newly recoverable epoch, in order.
	for _, e := range o.epochs.SortedKeys() {
		if e > o.recEpoch && e <= er {
			o.mergeEpoch(e, now)
		}
	}
	o.recEpoch = er
	o.bus.Emit(obs.KindRecEpoch, now, o.id, er, 0, 0, 0)
	// Persist the new rec-epoch pointer atomically (8-byte write), then
	// append the commit record that makes the advance provable: it pins
	// the epoch plus the Master Table's entry count and digest.
	o.nvm.Persist(mem.WMeta, RecEpochAddr-uint64(o.id)*8, 8, []uint64{er}, now)
	o.writeCommitRecord(now)
	// On a durable (file) plane the advance is also the epoch-seal
	// persistence barrier: drain bank queues and publish the manifest.
	o.nvm.SealDurable(o.recEpoch, o.now)
	o.stat.IncAt(recepochAdvances)
}

// mergeEpoch folds M_e into the Master Table: table entries are copied, no
// data pages move (paper §V-C).
func (o *OMC) mergeEpoch(e uint64, now uint64) {
	t, _ := o.epochs.Get(e)
	if t == nil {
		return
	}
	o.now = now
	keep := o.nvm.HasPlane()
	t.ForEach(func(lineAddr, nvmAddr uint64) {
		if old, replaced := o.master.Insert(lineAddr, nvmAddr); replaced {
			// The unmapped version becomes stale; release unless retained
			// for time travel.
			if !o.cfg.RetainEpochs {
				if keep {
					o.payload.Delete(old)
				}
				o.pool.Release(old)
			}
			o.stat.IncAt(versionsUnmapped)
		}
	})
	// Seal the merged table: its record is what lets recovery walk back
	// to this epoch when newer state turns out torn.
	o.writeSealRecord(e, t, now)
	o.pool.CloseEpoch(e)
	o.stat.IncAt(epochsMerged)
	o.stat.AddAt(entriesMerged, int64(t.Entries()))
	o.epochs.Delete(e)
	if o.cfg.RetainEpochs {
		o.retained.Put(e, t)
	} else {
		// Nothing reads an unretained table after its merge: later
		// epoch tables reuse its nodes.
		t.release()
	}
}

// Compact performs version compaction (paper §V-D): live versions on the
// oldest recoverable epoch's pages are rewritten as if stored in the
// current epoch, freeing their source pages. Returns NVM backpressure.
func (o *OMC) Compact(now uint64) (stall uint64) {
	o.now = now
	oldest, ok := o.pool.OldestEpochWithPages()
	if !ok || oldest > o.recEpoch || oldest == o.maxEpoch {
		// Only merged epochs can be compacted, and compacting the current
		// epoch into itself would be pointless.
		return 0
	}
	victims := o.pool.PagesOfEpoch(oldest)
	inVictim := func(a uint64) bool {
		base := a &^ uint64(o.cfg.PageSize-1)
		for _, vb := range victims {
			if vb == base {
				return true
			}
		}
		return false
	}
	type move struct{ lineAddr, nvmAddr uint64 }
	var moves []move
	o.master.ForEach(func(lineAddr, nvmAddr uint64) {
		if inVictim(nvmAddr) {
			moves = append(moves, move{lineAddr, nvmAddr})
		}
	})
	keep := o.nvm.HasPlane()
	for _, m := range moves {
		newAddr, _ := o.pool.Alloc(o.maxEpoch)
		// With no plane the moved words are dropped at drain, so the zero
		// data token changes nothing the device books or emits.
		var data uint64
		if keep {
			data, _ = o.payload.Get(m.nvmAddr)
		}
		stall += o.nvm.Persist(mem.WData, newAddr, o.cfg.LineSize,
			[]uint64{data, o.maxEpoch, LineCheck(m.lineAddr, o.maxEpoch, data)}, now+stall)
		if keep {
			o.payload.Put(newAddr, data)
			o.payload.Delete(m.nvmAddr)
		}
		o.master.Insert(m.lineAddr, newAddr)
		o.pool.Release(m.nvmAddr)
		o.stat.IncAt(versionsCompacted)
	}
	// Pages of the victim epoch holding no live data are reclaimed even if
	// the epoch's cursor was still open.
	o.pool.CloseEpoch(oldest)
	if len(moves) > 0 {
		// Compaction rewrote master mappings; the standing commit record's
		// digest no longer matches, so append a fresh one.
		o.writeCommitRecord(now)
	}
	o.stat.IncAt(compactions)
	return stall
}

// DumpContext persists a VD's processor context at an epoch boundary.
func (o *OMC) DumpContext(vd int, epoch, now uint64) (stall uint64) {
	addr := ContextBase + uint64(o.id)*omcRegion + uint64(vd)*uint64(o.cfg.ContextDumpBytes)
	stall = o.nvm.Write(mem.WContext, addr, int(o.cfg.ContextDumpBytes), now)
	o.stat.IncAt(contextDumps)
	return stall
}

// SealTo finalises the OMC at end of run: buffered versions are flushed
// and every remaining epoch table is merged, making the final epoch
// recoverable. It also raises the recoverable epoch to at least floor
// (the group-wide maximum epoch). Taking the floor before the commit
// record is written — rather than patching recEpoch afterwards, as
// Group.Seal used to — means the durable record reflects the epoch the
// group actually recovers to.
func (o *OMC) SealTo(now, floor uint64) {
	o.now = now
	if o.buf != nil {
		o.buf.Flush(func(fv Version) { o.now += o.writeVersion(fv, o.now) })
	}
	for _, e := range o.epochs.SortedKeys() {
		o.mergeEpoch(e, now)
	}
	if o.maxEpoch > o.recEpoch {
		o.recEpoch = o.maxEpoch
	}
	if floor > o.recEpoch {
		o.recEpoch = floor
	}
	o.nvm.Persist(mem.WMeta, RecEpochAddr-uint64(o.id)*8, 8, []uint64{o.recEpoch}, now)
	o.writeCommitRecord(now)
	o.nvm.SealDurable(o.recEpoch, o.now)
}

// RecEpoch returns the recoverable epoch from this OMC's perspective.
func (o *OMC) RecEpoch() uint64 { return o.recEpoch }

// Stats returns the OMC counter set.
func (o *OMC) Stats() *stats.Set { return o.stat.Clone() }

// TimeTravelRead returns the value of addr as of the given epoch using the
// paper's fall-through semantics (§V-E): the largest epoch E' <= epoch whose
// table maps the address wins; retained (merged) epochs participate when
// retention is enabled. The boolean reports whether any version <= epoch
// exists and is still materialised (compaction may have reclaimed it).
// Like every content reader it panics when the device has no plane.
func (o *OMC) TimeTravelRead(addr uint64, epoch uint64) (data uint64, foundEpoch uint64, ok bool) {
	o.nvm.RequirePlane("omc.TimeTravelRead")
	lookup := func(e uint64, t *Table) {
		if e > epoch || (ok && e <= foundEpoch) {
			return
		}
		nvmAddr, hit := t.Lookup(addr)
		if !hit {
			return
		}
		if d, live := o.payload.Get(nvmAddr); live {
			data, foundEpoch, ok = d, e, true
		}
	}
	o.epochs.ForEach(lookup)
	o.retained.ForEach(lookup)
	return data, foundEpoch, ok
}

// recoverInto adds the consistent image of rec-epoch to img and returns
// the simulated recovery latency (NVM reads for every mapped line, paper
// §V-E).
func (o *OMC) recoverInto(img *mem.Table[uint64]) (lat uint64) {
	o.nvm.RequirePlane("omc.Group.RecoverImage")
	o.master.ForEach(func(lineAddr, nvmAddr uint64) {
		if data, ok := o.payload.Get(nvmAddr); ok {
			img.Put(lineAddr, data)
			lat += o.nvm.Read()
		}
	})
	return lat
}

// deltaInto adds epoch e's incremental changes to delta when a table of e
// is accessible (unmerged, or retained).
func (o *OMC) deltaInto(e uint64, delta *mem.Table[uint64]) {
	o.nvm.RequirePlane("omc.Group.EpochDelta")
	t, _ := o.epochs.Get(e)
	if t == nil {
		t, _ = o.retained.Get(e)
	}
	if t == nil {
		return
	}
	t.ForEach(func(lineAddr, nvmAddr uint64) {
		if d, ok := o.payload.Get(nvmAddr); ok {
			delta.Put(lineAddr, d)
		}
	})
}

// Epochs returns the ids of all epochs with accessible tables (unmerged
// plus retained), sorted ascending so reports and exports derived from it
// are byte-stable across runs.
func (o *OMC) Epochs() []uint64 {
	out := append(o.epochs.SortedKeys(), o.retained.SortedKeys()...)
	slices.Sort(out)
	return slices.Compact(out)
}
