package baseline

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PiCL is hardware undo logging at the LLC (Nguyen & Wentzlaff, MICRO'18;
// §VI-B): on the first store to a line in an epoch the old value is logged
// to NVM in the background (72-byte entry); the inclusive LLC is
// version-tagged, and after each epoch boundary a tag walker (ACS) writes
// the previous epoch's dirty lines back to their NVM home. Dirty lines
// evicted from the LLC mid-epoch also write their home location. Per the
// paper we ignore global epoch-synchronisation overhead and model the data
// path only.
type PiCL struct {
	*base
}

// NewPiCL builds the scheme.
func NewPiCL(cfg *sim.Config) *PiCL {
	s := &PiCL{base: newBase("PiCL", cfg)}
	s.boundary = func() { s.ackWalk(cache.LevelLLC) }
	s.h = coherence.New(cfg, s.dram, coherence.Callbacks{
		OnStore: s.logFirstStore,
		OnLLCWriteBack: func(ln cache.Line, reason cache.Reason) uint64 {
			// A dirty line leaving the LLC writes its NVM home.
			s.evCapacity++
			s.stat.IncAt(homeWrites)
			return s.nvm.Write(mem.WData, ln.Tag, s.cfg.LineSize, s.maxNow())
		},
		OnLLCFill: func(ln *cache.Line) {
			// Epoch tags live in the LLC only: a line refetched from DRAM
			// has lost its tag and will be re-logged on its next store.
			ln.OID = 0
		},
	})
	return s
}

// Drain implements trace.Scheme.
func (s *PiCL) Drain(now uint64) {
	s.flushDirtyAsync(0)
}

var _ trace.Scheme = (*PiCL)(nil)

// PiCLL2 is the paper's hypothetical PiCL variant that tracks epochs at
// the per-VD L2 instead of a monolithic inclusive LLC (§VI-B "PiCL-L2"):
// large multicores with non-inclusive LLCs cannot host PiCL's tag walker,
// so logging and walking move to the (much smaller) L2s. The smaller
// on-chip tracked set causes both extra data write-backs and extra log
// entries — lines evicted from an L2 lose their epoch tag and are
// re-logged when refetched and stored to again.
type PiCLL2 struct {
	*base
}

// NewPiCLL2 builds the scheme.
func NewPiCLL2(cfg *sim.Config) *PiCLL2 {
	s := &PiCLL2{base: newBase("PiCL-L2", cfg)}
	s.boundary = func() { s.ackWalk(cache.LevelL2) }
	s.h = coherence.New(cfg, s.dram, coherence.Callbacks{
		OnStore: s.logFirstStore,
		OnL2WriteBack: func(vd int, ln cache.Line, reason cache.Reason) uint64 {
			// Dirty data leaving an L2 writes its NVM home (the L2 is the
			// last tracked level).
			if reason == cache.ReasonCoherence {
				s.evCoherence++
			} else {
				s.evCapacity++
			}
			s.stat.IncAt(homeWrites)
			return s.nvm.Write(mem.WData, ln.Tag, s.cfg.LineSize, s.maxNow())
		},
		OnL2Fill: func(vd int, ln *cache.Line) {
			// Tags are tracked at the L2 only: fills from below lose them.
			ln.OID = 0
		},
	})
	return s
}

// Drain implements trace.Scheme.
func (s *PiCLL2) Drain(now uint64) {
	s.flushDirtyAsync(0)
}

var _ trace.Scheme = (*PiCLL2)(nil)
