package baseline

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// swTrackCost is the software bookkeeping cost (cycles) charged on the
// first write to a line in an epoch: the transactional library records the
// address in its write set.
const swTrackCost = 20

// SWLog is software undo logging (§VI-B "SW Logging"): before the first
// write to a line in an epoch, a 72-byte undo entry is flushed to NVM
// behind a persistence barrier — the storing thread waits for durability.
// At every epoch boundary the library synchronously flushes the write set
// to the data's home locations; execution resumes only when the flush is
// durable.
type SWLog struct {
	*base
}

// NewSWLog builds the scheme.
func NewSWLog(cfg *sim.Config) *SWLog {
	s := &SWLog{base: newBase("SWLog", cfg)}
	// Synchronous write-set flush: all threads stall until durable.
	s.boundary = func() { s.stallAll(s.flushDirtySync(0)) }
	s.h = coherence.New(cfg, s.dram, coherence.Callbacks{
		OnStore: func(tid, vd int, ln *cache.Line) uint64 {
			if ln.OID >= s.epoch {
				return 0 // already logged this epoch
			}
			ln.OID = s.epoch
			s.evLog++
			s.stat.IncAt(logEntries)
			// Synchronous barrier: pipeline waits for the log entry.
			return swTrackCost + s.nvm.WriteSync(mem.WLog, s.nextLog(), 72, s.now(tid))
		},
	})
	return s
}

// Drain implements trace.Scheme.
func (s *SWLog) Drain(now uint64) {
	s.flushDirtySync(0)
}

var _ trace.Scheme = (*SWLog)(nil)

// SWShadow is software shadow paging (§VI-B "SW Shadow", Romulus-style):
// the first write to a line in an epoch synchronously copies the line to
// its shadow location; at the boundary the library synchronously flushes
// the write set's final values and updates the persistent mapping table
// (one 8-byte pointer per dirty line) behind barriers.
type SWShadow struct {
	*base
}

// NewSWShadow builds the scheme.
func NewSWShadow(cfg *sim.Config) *SWShadow {
	s := &SWShadow{base: newBase("SWShadow", cfg)}
	s.boundary = func() {
		flush := s.flushDirtySync(shadowBase)
		table := s.tableUpdateSync()
		s.stallAll(flush + table)
	}
	s.h = coherence.New(cfg, s.dram, coherence.Callbacks{
		OnStore: func(tid, vd int, ln *cache.Line) uint64 {
			if ln.OID >= s.epoch {
				return 0
			}
			// Shadow paging defers the NVM write to the commit-time flush;
			// the first write only pays the software write-set tracking.
			ln.OID = s.epoch
			s.stat.IncAt(shadowCopies)
			return swTrackCost
		},
	})
	return s
}

// tableUpdateSync writes the persistent mapping-table entries for the
// epoch's write set, serialized (software walks its write set).
func (s *SWShadow) tableUpdateSync() uint64 {
	n := s.stat.GetAt(flushedLines) - s.stat.GetAt(tableLinesDone)
	s.stat.AddAt(tableLinesDone, n)
	now := s.maxNow()
	var finish uint64
	for i := int64(0); i < n; i++ {
		lat := s.nvm.WriteSync(mem.WMeta, tableBase+uint64(i*8)%(1<<20), 8, now)
		if lat > finish {
			finish = lat
		}
	}
	return finish
}

// Drain implements trace.Scheme.
func (s *SWShadow) Drain(now uint64) {
	s.flushDirtySync(shadowBase)
	s.tableUpdateSync()
}

var _ trace.Scheme = (*SWShadow)(nil)
