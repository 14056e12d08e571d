package workload_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRefusingStepEmitsNothing locks what lets the driver issue each
// access as the heap records it: a Step that returns false, because its
// thread is past its quota, has emitted no access. Were it otherwise, the
// driver would charge the accesses to a thread it then retires.
func TestRefusingStepEmitsNothing(t *testing.T) {
	cfg := sim.DefaultConfig()
	for _, name := range append(workload.Names(), experiments.Scale256Workloads...) {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		h := trace.NewHeap(&cfg)
		w.Setup(h, sim.NewRNG(1))
		emitted := 0
		h.SetConsumer(func(trace.Op) { emitted++ })
		const tid, quota = 5, 3
		workload.SetQuota(w, quota)
		r := sim.NewRNG(2)
		for i := 0; i < quota; i++ {
			if !w.Step(tid, h, r) {
				t.Fatalf("%s: op %d of %d refused", name, i+1, quota)
			}
		}
		if emitted == 0 {
			t.Fatalf("%s: %d ops emitted no access", name, quota)
		}
		emitted = 0
		if w.Step(tid, h, r) {
			t.Fatalf("%s: op past the quota ran", name)
		}
		if emitted != 0 {
			t.Fatalf("%s: the refused op emitted %d accesses", name, emitted)
		}
	}
}
