package baseline

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HWShadow models hardware shadow paging in the style of ThyNVM (§VI-B "HW
// Shadow"): dirty data of the closing epoch is persisted to shadow
// locations in the background, overlapped with the next epoch's execution,
// but the *centralized* mapping table is updated synchronously at each
// boundary — every thread stalls while the single controller writes one
// 8-byte entry per checkpointed line through a single serialization point.
type HWShadow struct {
	*base
	tableCursor uint64
}

// NewHWShadow builds the scheme.
func NewHWShadow(cfg *sim.Config) *HWShadow {
	s := &HWShadow{base: newBase("HWShadow", cfg)}
	s.boundary = func() {
		// Data persistence overlaps with execution: background writes only.
		n := s.flushDirtyAsync(shadowBase)
		s.evWalk += uint64(n)
		// The mapping-table update cannot be overlapped: it must complete
		// before the next epoch's writes may land in the shadow area.
		s.stallAll(s.tableUpdateSync(n))
	}
	s.h = coherence.New(cfg, s.dram, coherence.Callbacks{
		OnStore: func(tid, vd int, ln *cache.Line) uint64 {
			// Hardware tags the line with the epoch; no software cost.
			ln.OID = s.epoch
			return 0
		},
		OnLLCWriteBack: func(ln cache.Line, reason cache.Reason) uint64 {
			// Dirty data leaving the LLC mid-epoch is persisted to its
			// shadow location in the background.
			s.evCapacity++
			s.stat.IncAt(backgroundWrites)
			return s.nvm.Write(mem.WData, shadowBase+ln.Tag, s.cfg.LineSize, s.maxNow())
		},
	})
	return s
}

// tableUpdateSync serializes n 8-byte entry writes through the centralized
// controller (a single NVM bank region), returning the completion latency.
func (s *HWShadow) tableUpdateSync(n int) uint64 {
	now := s.maxNow()
	var finish uint64
	for i := 0; i < n; i++ {
		// All entries funnel through one table region: same-bank addresses
		// serialize, which is exactly the centralization the paper faults.
		addr := tableBase + s.tableCursor%(1<<12)
		s.tableCursor += 8
		lat := s.nvm.WriteSync(mem.WMeta, addr, 8, now)
		if lat > finish {
			finish = lat
		}
	}
	s.stat.AddAt(tableEntries, int64(n))
	return finish
}

// Drain implements trace.Scheme.
func (s *HWShadow) Drain(now uint64) {
	s.flushDirtyAsync(shadowBase)
}

var _ trace.Scheme = (*HWShadow)(nil)
