// Package workload implements the paper's twelve benchmarks (§VI-C): the
// four index data-structure workloads (hash table, B+Tree, ART, red-black
// tree — insert-only with random keys, mimicking bulk database-index
// insertion) and re-implementations of the eight STAMP applications'
// memory behaviour (labyrinth, bayes, yada, intruder, vacation, kmeans,
// genome, ssca2). Every workload is a real algorithm running over the
// tracked heap; worker threads step operations against shared state, so
// coherence traffic, capacity pressure and write bursts arise naturally.
// Beyond the paper's twelve, the big-machine scale sweeps add two
// zipfian production-skew generators (oltp, social — see kernels3.go);
// they are registered for Get but excluded from Names so the default
// figure grids stay exactly the paper's.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Registry maps workload names to constructors. Sizes are tuned so a run
// of a few million accesses exhibits each benchmark's cache regime on the
// Table II machine (the paper runs 100M instructions/thread on zsim; we
// keep the same capacity relationships at simulation-friendly scale).
var registry = map[string]func() trace.Workload{
	"hashtable": func() trace.Workload { return NewDSLoad("hashtable") },
	"btree":     func() trace.Workload { return NewDSLoad("btree") },
	"art":       func() trace.Workload { return NewDSLoad("art") },
	"rbtree":    func() trace.Workload { return NewDSLoad("rbtree") },
	"labyrinth": func() trace.Workload { return NewLabyrinth() },
	"bayes":     func() trace.Workload { return NewBayes() },
	"yada":      func() trace.Workload { return NewYada() },
	"intruder":  func() trace.Workload { return NewIntruder() },
	"vacation":  func() trace.Workload { return NewVacation() },
	"kmeans":    func() trace.Workload { return NewKMeans() },
	"genome":    func() trace.Workload { return NewGenome() },
	"ssca2":     func() trace.Workload { return NewSSCA2() },
	// Beyond-the-paper scale-sweep generators (zipfian production skew).
	"oltp":   func() trace.Workload { return NewOLTP() },
	"social": func() trace.Workload { return NewSocial() },
}

// Names returns the paper's twelve workload names in Figure 11 order. The
// figure experiments iterate exactly this set, so the beyond-the-paper
// scale generators (oltp, social) are registered but not listed here —
// appending them would silently change the default figure grids.
func Names() []string {
	return []string{
		"hashtable", "btree", "art", "rbtree",
		"labyrinth", "bayes", "yada", "intruder",
		"vacation", "kmeans", "genome", "ssca2",
	}
}

// Get constructs a workload by name.
func Get(name string) (trace.Workload, error) {
	ctor, ok := registry[name]
	if !ok {
		known := make([]string, 0, len(registry))
		for k := range registry {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("workload: unknown %q (have %v)", name, known)
	}
	return ctor(), nil
}

// opBudget caps per-thread operations so workloads terminate on their own
// even when the driver's access bound is generous.
const opBudget = 1 << 20

// threads tracks per-thread completed operations.
type threads struct {
	done  []int
	quota int
}

func newThreads(quota int) *threads {
	return &threads{done: make([]int, 64), quota: quota}
}

// next reports whether tid may run another op, counting it.
func (t *threads) next(tid int) bool {
	t.done = growTids(t.done, tid)
	if t.done[tid] >= t.quota {
		return false
	}
	t.done[tid]++
	return true
}

// growTids extends a per-thread counter slice to cover tid. Workloads size
// these slices for the historical 16-core machine at construction; the
// big-machine scale sweeps run the same workloads with up to 256 threads,
// and growing on demand keeps the behaviour for existing thread ids
// byte-identical (their counters never move or reset).
func growTids(s []int, tid int) []int {
	for len(s) <= tid {
		s = append(s, 0)
	}
	return s
}
