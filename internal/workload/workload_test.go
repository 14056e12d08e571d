package workload

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func wlCfg() *sim.Config {
	cfg := sim.DefaultConfig()
	return &cfg
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("expected 12 workloads, have %d", len(names))
	}
	for _, n := range names {
		w, err := Get(n)
		if err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		if w.Name() != n {
			t.Fatalf("workload %q reports name %q", n, w.Name())
		}
	}
	// The paper's twelve plus the scale-sweep generators are the whole
	// registry.
	all := append(Names(), "oltp", "social")
	if len(all) != len(registry) {
		t.Fatalf("%d workloads named, registry has %d", len(all), len(registry))
	}
	for _, n := range all {
		w, err := Get(n)
		if err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		if w.Name() != n {
			t.Fatalf("workload %q reports name %q", n, w.Name())
		}
	}
	if _, err := Get("nonsense"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestEveryWorkloadEmitsMixedTraffic(t *testing.T) {
	cfg := wlCfg()
	for _, name := range Names() {
		w, _ := Get(name)
		h := trace.NewHeap(cfg)
		rng := sim.NewRNG(1)
		w.Setup(h, rng)
		var loads, stores int
		h.SetConsumer(func(op trace.Op) {
			if op.Write {
				stores++
			} else {
				loads++
			}
		})
		perThread := sim.NewRNG(2)
		for i := 0; i < 2000; i++ {
			tid := i % 16
			if !w.Step(tid, h, perThread) {
				break
			}
		}
		if loads == 0 || stores == 0 {
			t.Fatalf("%s: loads=%d stores=%d after 2000 ops", name, loads, stores)
		}
		if h.Footprint() == 0 {
			t.Fatalf("%s: nothing allocated", name)
		}
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	cfg := wlCfg()
	for _, name := range Names() {
		collect := func() []trace.Op {
			w, _ := Get(name)
			h := trace.NewHeap(cfg)
			w.Setup(h, sim.NewRNG(7))
			r := sim.NewRNG(8)
			var all []trace.Op
			h.SetConsumer(func(op trace.Op) { all = append(all, op) })
			for i := 0; i < 500; i++ {
				if !w.Step(i%16, h, r) {
					break
				}
			}
			return all
		}
		a, b := collect(), collect()
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic op counts %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i].Addr != b[i].Addr || a[i].Write != b[i].Write {
				t.Fatalf("%s: nondeterministic op %d", name, i)
			}
		}
	}
}

func TestThreadsQuota(t *testing.T) {
	th := newThreads(3)
	for i := 0; i < 3; i++ {
		if !th.next(0) {
			t.Fatalf("op %d refused", i)
		}
	}
	if th.next(0) {
		t.Fatal("quota exceeded")
	}
	if !th.next(1) {
		t.Fatal("independent thread blocked")
	}
}

func TestDSLoadSharedIndexGrows(t *testing.T) {
	cfg := wlCfg()
	w := NewDSLoad("btree")
	h := trace.NewHeap(cfg)
	w.Setup(h, sim.NewRNG(1))
	r := sim.NewRNG(2)
	for i := 0; i < 1000; i++ {
		w.Step(i%16, h, r)
	}
	if w.kv.Len() < 5000 { // 4096 seed + 1000 inserts (few dup keys)
		t.Fatalf("index size = %d", w.kv.Len())
	}
}

func TestKMeansStreamingFootprint(t *testing.T) {
	cfg := wlCfg()
	w := NewKMeans()
	h := trace.NewHeap(cfg)
	w.Setup(h, sim.NewRNG(1))
	// The point stream must exceed the L2 but fit the LLC (paper §VII-B).
	if h.Footprint() < int64(cfg.L2Size)*4 {
		t.Fatalf("kmeans footprint %d too small to thrash L2", h.Footprint())
	}
	if h.Footprint() > int64(cfg.LLCSize) {
		t.Fatalf("kmeans footprint %d exceeds LLC", h.Footprint())
	}
}

func TestYadaSparseAllocation(t *testing.T) {
	cfg := wlCfg()
	w := NewYada()
	h := trace.NewHeap(cfg)
	w.Setup(h, sim.NewRNG(1))
	r := sim.NewRNG(2)
	// Collect store addresses; they must be sparse within 4KB pages (the
	// Fig 13 occupancy outlier).
	pages := map[uint64]map[uint64]bool{}
	h.SetConsumer(func(op trace.Op) {
		if !op.Write {
			return
		}
		pg := op.Addr &^ 4095
		if pages[pg] == nil {
			pages[pg] = map[uint64]bool{}
		}
		pages[pg][op.Addr&^63] = true
	})
	for i := 0; i < 3000; i++ {
		w.Step(i%16, h, r)
	}
	var lines, npages int
	for _, lns := range pages {
		npages++
		lines += len(lns)
	}
	occ := float64(lines) / float64(npages*64)
	if occ > 0.5 {
		t.Fatalf("yada page occupancy %.2f not sparse", occ)
	}
}
