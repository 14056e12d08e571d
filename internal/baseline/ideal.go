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

// Drain implements trace.Scheme (nothing to persist).
func (s *Ideal) Drain(now uint64) {}

var _ trace.Scheme = (*Ideal)(nil)
