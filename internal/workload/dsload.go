package workload

import (
	"repro/internal/ds"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DSLoad is the data-structure benchmark family: 16 threads bulk-insert
// random keys into one shared index (paper §VI-C: "an insert-only workload
// with random keys to mimic bulk insertion into a database index").
type DSLoad struct {
	kind string
	kv   ds.KV
	th   *threads
}

// NewDSLoad creates the benchmark for one of "hashtable", "btree", "art",
// "rbtree".
func NewDSLoad(kind string) *DSLoad {
	return &DSLoad{kind: kind, th: newThreads(opBudget)}
}

// Name implements trace.Workload.
func (w *DSLoad) Name() string { return w.kind }

// Setup implements trace.Workload: the index is pre-warmed with a small
// seed population so early operations exercise real tree depth.
func (w *DSLoad) Setup(h *trace.Heap, rng *sim.RNG) {
	switch w.kind {
	case "hashtable":
		w.kv = ds.NewHashTable(h, 1024)
	case "btree":
		w.kv = ds.NewBTree(h)
	case "art":
		w.kv = ds.NewART(h)
	case "rbtree":
		w.kv = ds.NewRBTree(h)
	default:
		panic("workload: unknown ds kind " + w.kind)
	}
	for i := 0; i < 4096; i++ {
		w.kv.Insert(rng.Uint64(), rng.Uint64())
	}
}

// Step implements trace.Workload: one random-key insertion.
func (w *DSLoad) Step(tid int, h *trace.Heap, rng *sim.RNG) bool {
	if !w.th.next(tid) {
		return false
	}
	w.kv.Insert(rng.Uint64(), rng.Uint64())
	return true
}
