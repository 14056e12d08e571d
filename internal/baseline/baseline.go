// Package baseline implements the five comparison schemes of the paper's
// evaluation (§VI-B) plus the no-snapshotting ideal that Figure 11
// normalises against:
//
//   - Ideal      — plain hierarchy, no persistence work at all.
//   - SWLog      — software undo logging: a synchronous 72-byte log entry
//     behind a persistence barrier on the first write to each
//     line per epoch, plus a synchronous write-set flush at
//     every epoch boundary.
//   - SWShadow   — software shadow paging: a synchronous shadow-copy write
//     on first write, plus a synchronous flush and persistent
//     mapping-table update at every boundary.
//   - HWShadow   — ThyNVM-style hardware shadow paging: data persistence is
//     overlapped with execution, but the centralized mapping
//     table is updated synchronously at each boundary.
//   - PiCL       — hardware undo logging with a version-tagged inclusive
//     LLC and an epoch-boundary LLC tag walk (ACS).
//   - PiCLL2     — the paper's hypothetical PiCL variant tracking at the
//     L2, for machines without a monolithic inclusive LLC.
//
// All six run on the directory-MESI hierarchy of internal/coherence and
// share one Access and the epoch bookkeeping via the embedded base type;
// a scheme is its store hook (coherence callbacks) plus its boundary work.
package baseline

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// NVM address-space regions used by baseline persistence traffic.
const (
	logBase    uint64 = 1 << 43 // undo/redo log area
	shadowBase uint64 = 1 << 44 // shadow-copy area
	tableBase  uint64 = 1 << 45 // persistent mapping tables
)

// base carries the state shared by every baseline: the hierarchy, devices,
// a global epoch driven by the total store count, and counters.
type base struct {
	name   string
	cfg    *sim.Config
	nvm    *mem.NVM
	dram   *mem.DRAM
	h      *coherence.Hierarchy
	clocks *sim.Clocks
	stat   *stats.Set

	// boundary is the scheme's epoch-boundary work. A nil boundary (the
	// Ideal system) counts no stores and closes no epochs.
	boundary func()

	epoch     uint64
	stores    int
	totStores uint64
	logCursor uint64

	// evict-reason accounting for Fig 15.
	evCapacity, evCoherence, evWalk, evLog uint64
}

func newBase(name string, cfg *sim.Config) *base {
	return &base{
		name:      name,
		cfg:       cfg,
		nvm:       mem.NewNVM(cfg),
		dram:      mem.NewDRAM(cfg),
		stat:      stats.FromTable(name, counterNames[:]),
		epoch:     1,
		logCursor: logBase,
	}
}

// Name implements trace.Scheme.
func (b *base) Name() string { return b.name }

// Bind implements trace.Scheme.
func (b *base) Bind(clocks *sim.Clocks) { b.clocks = clocks }

// Stats implements trace.Scheme.
func (b *base) Stats() *stats.Set {
	s := stats.NewSet(b.name)
	s.Merge(b.stat)
	s.Merge(b.h.Stats())
	s.Merge(b.nvm.Stats())
	return s
}

// NVM implements trace.Scheme.
func (b *base) NVM() *mem.NVM { return b.nvm }

// Hierarchy exposes the cache hierarchy (tests).
func (b *base) Hierarchy() *coherence.Hierarchy { return b.h }

// DRAM exposes the working-memory model; the differential harness reads it
// as the crash-free image oracle for the baseline schemes.
func (b *base) DRAM() *mem.DRAM { return b.dram }

// Epoch returns the current global epoch.
func (b *base) Epoch() uint64 { return b.epoch }

// EvictReasons returns (capacity, coherence, walk) version/data write
// counts for the Fig 15 decomposition; log writes are reported separately.
func (b *base) EvictReasons() (capacity, coher, walk, logw uint64) {
	return b.evCapacity, b.evCoherence, b.evWalk, b.evLog
}

// now returns the current time of thread tid (schemes issue background NVM
// traffic at the triggering thread's clock).
func (b *base) now(tid int) uint64 { return b.clocks.Now(tid) }

// maxNow returns the latest thread clock (epoch-boundary work happens when
// the whole machine reaches the boundary).
func (b *base) maxNow() uint64 { return b.clocks.Max() }

// nextLog returns the next log-entry address, striding across NVM banks.
func (b *base) nextLog() uint64 {
	a := b.logCursor
	b.logCursor += uint64(b.cfg.LineSize) // 72B entries padded to a line stride
	if b.logCursor >= logBase+(1<<30) {
		b.logCursor = logBase
	}
	return a
}

// Access implements trace.Scheme: every baseline runs the same
// hierarchy access, and a store counts toward the global epoch, which
// closes after cfg.EpochSize stores with the scheme's boundary work.
func (b *base) Access(tid int, addr uint64, write bool, data uint64) uint64 {
	if !write {
		return b.h.Load(tid, addr)
	}
	lat := b.h.Store(tid, addr, data)
	if b.boundary == nil {
		return lat
	}
	b.stores++
	b.totStores++
	if b.stores >= b.cfg.EpochSizeAt(b.totStores) {
		b.stores = 0
		b.epoch++
		b.stat.IncAt(epochBoundaries)
		b.boundary()
	}
	return lat
}

// logFirstStore is PiCL's store hook, at whichever level tracks epochs:
// the first store to a line in an epoch logs its old value to NVM in the
// background (a 72-byte entry) and tags the line with the epoch.
func (b *base) logFirstStore(tid, vd int, ln *cache.Line) uint64 {
	var extra uint64
	if ln.OID < b.epoch {
		b.evLog++
		b.stat.IncAt(logEntries)
		extra = b.nvm.Write(mem.WLog, b.nextLog(), 72, b.now(tid))
	}
	ln.OID = b.epoch
	return extra
}

// stallAll stalls every thread for cost cycles (software barriers and
// synchronous table updates are global).
func (b *base) stallAll(cost uint64) {
	if cost > 0 {
		b.clocks.StallGroup(0, b.cfg.Cores, cost)
		b.stat.AddAt(barrierStallCycles, int64(cost))
	}
}

// checkpoint is every baseline's one persist-and-clean walk. Each dirty
// line from the L1s down to deepest is written once to region+address on
// NVM, newest copy first, and refreshes the DRAM working copy so the
// oracle stays consistent; every cached copy is left clean. Synchronous
// writes all issue at the latest thread clock and lat is when the last
// one is durable; background writes issue back to back from there (bank
// bookings only) and lat is their summed stall. It returns the number of
// lines written.
func (b *base) checkpoint(deepest cache.Level, region uint64, sync bool) (n int, lat uint64) {
	now := b.maxNow()
	b.h.PersistDirty(deepest, func(ln cache.Line) {
		if sync {
			lat = max(lat, b.nvm.WriteSync(mem.WData, region+ln.Tag, b.cfg.LineSize, now))
		} else {
			lat += b.nvm.Write(mem.WData, region+ln.Tag, b.cfg.LineSize, now+lat)
		}
		b.dram.WriteBack(ln.Tag, ln.OID, ln.Data)
		n++
	})
	return n, lat
}

// flushDirtySync synchronously writes every dirty line to region (home or
// shadow) and returns when the last write is durable.
func (b *base) flushDirtySync(region uint64) uint64 {
	n, finish := b.checkpoint(cache.LevelLLC, region, true)
	b.stat.AddAt(flushedLines, int64(n))
	return finish
}

// flushDirtyAsync writes every dirty line to region in the background, for
// the hardware schemes that overlap persistence, and returns the number of
// lines written.
func (b *base) flushDirtyAsync(region uint64) int {
	n, _ := b.checkpoint(cache.LevelLLC, region, false)
	b.stat.AddAt(flushedLines, int64(n))
	return n
}

// ackWalk is the PiCL tag walk (ACS) at an epoch boundary: every dirty
// line from the L1s down to deepest (the LLC for PiCL, the L2s for
// PiCL-L2) is written home in the background and marked clean. When the
// walker is disabled (ablation), dirty lines persist only through natural
// evictions.
func (b *base) ackWalk(deepest cache.Level) {
	if !b.cfg.TagWalker {
		return
	}
	n, _ := b.checkpoint(deepest, 0, false)
	b.evWalk += uint64(n)
	b.stat.AddAt(acsWritebacks, int64(n))
	b.stat.IncAt(acsWalks)
}
