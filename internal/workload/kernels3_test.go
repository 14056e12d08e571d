package workload

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestZipfCDFWellFormed(t *testing.T) {
	z := NewZipf(1000, 0.99)
	if len(z.cdf) != 1000 {
		t.Fatalf("%d ranks, want 1000", len(z.cdf))
	}
	if got := z.Share(1000); got != 1 {
		t.Fatalf("full share = %v", got)
	}
	if math.Abs(z.cdf[len(z.cdf)-1]-1) > 1e-12 {
		t.Fatalf("cdf does not end at 1: %v", z.cdf[len(z.cdf)-1])
	}
	for i := 1; i < len(z.cdf); i++ {
		if z.cdf[i] < z.cdf[i-1] {
			t.Fatalf("cdf not monotone at %d", i)
		}
	}
}

// TestZipfSkewSanity checks the configured traffic concentration: with the
// scale sweeps' exponents, the top 1% of ranks must soak up far more than
// their uniform share of samples, and the empirical share must track the
// analytic CDF mass.
func TestZipfSkewSanity(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		s    float64
	}{
		{"oltp-rows", OLTPRows, OLTPRowS},
		{"social-hot", 64 << 10, SocialHotS},
	} {
		z := NewZipf(tc.n, tc.s)
		top := tc.n / 100
		want := z.Share(top)
		if want < 0.20 {
			t.Fatalf("%s: top-1%% analytic share %.3f not skewed", tc.name, want)
		}
		rng := sim.NewRNG(99)
		const draws = 200000
		var hits int
		for i := 0; i < draws; i++ {
			if z.Sample(rng) < top {
				hits++
			}
		}
		got := float64(hits) / draws
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("%s: empirical top-1%% share %.3f, analytic %.3f", tc.name, got, want)
		}
	}
}

func TestZipfUniformAtZeroExponent(t *testing.T) {
	z := NewZipf(100, 0)
	if got := z.Share(50); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("uniform top-half share = %v", got)
	}
}

// TestScaleWorkloadsDeterministic locks the scale generators the same way
// TestWorkloadsAreDeterministic locks the paper's twelve: identical seeds
// must yield byte-identical op streams, including at thread counts beyond
// the historical 16-core machine.
func TestScaleWorkloadsDeterministic(t *testing.T) {
	cfg := wlCfg()
	for _, name := range []string{"oltp", "social"} {
		for _, nthreads := range []int{16, 256} {
			collect := func() []trace.Op {
				w, err := Get(name)
				if err != nil {
					t.Fatalf("Get(%q): %v", name, err)
				}
				h := trace.NewHeap(cfg)
				w.Setup(h, sim.NewRNG(7))
				r := sim.NewRNG(8)
				var all []trace.Op
				h.SetConsumer(func(op trace.Op) { all = append(all, op) })
				for i := 0; i < 800; i++ {
					if !w.Step(i%nthreads, h, r) {
						break
					}
				}
				return all
			}
			a, b := collect(), collect()
			if len(a) == 0 {
				t.Fatalf("%s/%d threads: empty op stream", name, nthreads)
			}
			if len(a) != len(b) {
				t.Fatalf("%s/%d threads: nondeterministic op counts %d vs %d", name, nthreads, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s/%d threads: nondeterministic op %d", name, nthreads, i)
				}
			}
		}
	}
}

// TestScaleWorkloadsMixedTraffic mirrors TestEveryWorkloadEmitsMixedTraffic
// for the generators outside Names().
func TestScaleWorkloadsMixedTraffic(t *testing.T) {
	cfg := wlCfg()
	for _, name := range []string{"oltp", "social"} {
		w, _ := Get(name)
		h := trace.NewHeap(cfg)
		w.Setup(h, sim.NewRNG(1))
		var loads, stores int
		h.SetConsumer(func(op trace.Op) {
			if op.Write {
				stores++
			} else {
				loads++
			}
		})
		r := sim.NewRNG(2)
		for i := 0; i < 2000; i++ {
			if !w.Step(i%256, h, r) {
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

// TestGrowTids locks the auto-grow semantics the 256-thread sweeps rely on:
// existing counters never move or reset.
func TestGrowTids(t *testing.T) {
	th := newThreads(2)
	if !th.next(0) || !th.next(0) || th.next(0) {
		t.Fatal("quota broken for tid 0")
	}
	if !th.next(200) {
		t.Fatal("high tid refused")
	}
	if th.done[0] != 2 {
		t.Fatalf("tid 0 counter moved: %d", th.done[0])
	}
	if len(th.done) < 201 {
		t.Fatalf("slice not grown: %d", len(th.done))
	}
}
