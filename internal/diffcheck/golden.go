// Package diffcheck is the differential verification harness for the
// snapshot stack. It replays seeded randomized multi-core traces through
// the full NVOverlay stack (cst + omc + recovery) and the baseline schemes
// while maintaining a trivially-correct golden shadow-memory model, and
// cross-checks the recovered image at every recoverable-epoch advance, at
// swept mid-run crash points, and at end of run. Any divergence is
// reported with a deterministic reproducer (seed + step index).
//
// The golden model works because of one protocol invariant the frontend
// provides: the epoch tag assigned to successive stores of the same line
// is non-decreasing (coherence-driven Lamport synchronisation, §IV-B2).
// Golden.Store checks that invariant directly; everything else about the
// hardware image then reduces to "last write with tag <= rec-epoch wins".
package diffcheck

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// write is one store observed by the golden model.
type write struct {
	step  int
	epoch uint64
	data  uint64
}

// Golden is the trivially-correct shadow memory: a flat table keyed by
// line address whose per-address history is versioned by the epoch tags
// the hardware itself assigned. It has no caches, no protocol and no
// timing — just the semantics the snapshot stack must preserve.
type Golden struct {
	hist *mem.Table[[]write]
}

// NewGolden returns an empty shadow memory.
func NewGolden() *Golden {
	return &Golden{hist: mem.NewTable[[]write](0)}
}

// Store records a write of data to line addr tagged with epoch at trace
// step. It returns an error when the tag regresses for the address — the
// monotonicity invariant every later golden comparison relies on.
func (g *Golden) Store(step int, addr, epoch, data uint64) error {
	h, _ := g.hist.Upsert(addr)
	if n := len(*h); n > 0 && epoch < (*h)[n-1].epoch {
		return fmt.Errorf("golden: line %#x tagged epoch %d at step %d after epoch %d at step %d",
			addr, epoch, step, (*h)[n-1].epoch, (*h)[n-1].step)
	}
	*h = append(*h, write{step: step, epoch: epoch, data: data})
	return nil
}

// Lines returns how many distinct line addresses have been written.
func (g *Golden) Lines() int { return g.hist.Len() }

// Addrs returns every written line address in ascending order.
func (g *Golden) Addrs() []uint64 { return g.hist.SortedKeys() }

// Final returns the crash-free final image: the last write per address.
func (g *Golden) Final() *mem.Table[uint64] {
	img := mem.NewTable[uint64](g.hist.Len())
	g.hist.ForEach(func(a uint64, h []write) { img.Put(a, h[len(h)-1].data) })
	return img
}

// ImageAt returns the consistent image of the given epoch: per address,
// the last write whose tag is <= epoch; addresses first written in a later
// epoch are absent. This is what recovery.Recover must reproduce when the
// recoverable epoch equals epoch.
func (g *Golden) ImageAt(epoch uint64) *mem.Table[uint64] {
	img := mem.NewTable[uint64](g.hist.Len())
	g.hist.ForEach(func(a uint64, h []write) {
		// Per-address epochs are non-decreasing, so the writes with tag
		// <= epoch form a prefix of the history.
		i := sort.Search(len(h), func(i int) bool { return h[i].epoch > epoch })
		if i > 0 {
			img.Put(a, h[i-1].data)
		}
	})
	return img
}

// VersionAt returns addr's value as of the given epoch with the paper's
// fall-through semantics: the last write of the greatest epoch <= epoch,
// that epoch, and whether any such write exists. It is the golden
// counterpart of omc.Group.TimeTravelRead under full retention.
func (g *Golden) VersionAt(addr, epoch uint64) (data uint64, foundEpoch uint64, ok bool) {
	h, _ := g.hist.Get(addr)
	i := sort.Search(len(h), func(i int) bool { return h[i].epoch > epoch })
	if i == 0 {
		return 0, 0, false
	}
	return h[i-1].data, h[i-1].epoch, true
}
