package baseline

import (
	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Ideal is the no-snapshotting system every Fig 11 bar is normalised to:
// the plain hierarchy with zero persistence work.
type Ideal struct {
	*base
}

// NewIdeal builds the ideal baseline.
func NewIdeal(cfg *sim.Config) *Ideal {
	s := &Ideal{base: newBase("Ideal", cfg)}
	s.h = coherence.New(cfg, s.dram, coherence.Callbacks{})
	return s
}

// Access implements trace.Scheme.
func (s *Ideal) Access(tid int, addr uint64, write bool, data uint64) uint64 {
	if write {
		return s.h.Store(tid, addr, data)
	}
	return s.h.Load(tid, addr)
}

// Drain implements trace.Scheme (nothing to persist).
func (s *Ideal) Drain(now uint64) {}

var _ trace.Scheme = (*Ideal)(nil)
