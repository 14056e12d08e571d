package recovery_test

import (
	"fmt"
	"testing"

	"repro/internal/diffcheck"
	"repro/internal/fault"
	"repro/internal/store"
)

// A SIGKILL while the writer is parked on an announced boundary leaves
// exactly the effects of the mutating syscalls issued before it: the
// crash-consistency sweep's process-death state for a cut at the next
// syscall. These tests replay the kill grid of a re-exec kill -9 soak that
// way, in process.

// killGrid indexes the writer's announced boundaries. The early indices
// land before any durability was promised (justified refusals), the middle
// on segment-sync/manifest-rename boundaries, and the tail deep in the run
// after checkpoints were written and old segments compacted away.
var killGrid = []int{0, 1, 2, 4, 6, 9, 13, 18, 24, 31, 45}

var soakSeeds = []int64{1, 2, 3}

// milestone is one announced writer boundary.
type milestone struct {
	ops     int    // mutating syscalls issued before the announcement
	durable uint64 // durable epoch once it was announced
}

// milestones runs the writer of seed fault-free and returns its announced
// boundaries in order plus its total mutating-syscall count.
func milestones(t *testing.T, seed int64) ([]milestone, int) {
	t.Helper()
	ffs := fault.NewFaultFS(fault.NewMemFS(), fault.DiskConfig{})
	var d store.Durable
	var ms []milestone
	err := store.WriteSoak(ffs, store.DefaultSoakParams("store", seed), func(point string, epoch uint64) {
		d.Hit(point, epoch)
		ms = append(ms, milestone{ops: ffs.Ops(), durable: d.Epoch})
	})
	if err != nil {
		t.Fatalf("control run: %v", err)
	}
	return ms, ffs.Ops()
}

// TestCrashRestartSoak kills the writer at every grid boundary: the cell
// must pass the sweep's verdict in both crash states, with the durable
// epoch the announced boundaries promised.
func TestCrashRestartSoak(t *testing.T) {
	for _, seed := range soakSeeds {
		ms, n := milestones(t, seed)
		for _, k := range killGrid {
			t.Run(fmt.Sprintf("seed%d_kill%02d", seed, k), func(t *testing.T) {
				if k >= len(ms) {
					t.Fatalf("kill index %d not reached (%d milestones)", k, len(ms))
				}
				cut := ms[k].ops + 1 // the syscall the kill prevented
				if ms[k].ops == n {
					cut = 0 // nothing left to prevent
				}
				pts, _, d := diffcheck.DiskCell("crash", seed, cut)
				if d != nil {
					t.Fatal(d)
				}
				for _, pt := range pts {
					if pt.DurableEpoch != ms[k].durable {
						t.Fatalf("%s: durable epoch %d, the boundaries promised %d",
							pt.State, pt.DurableEpoch, ms[k].durable)
					}
				}
			})
		}
	}
}

// TestCrashSoakCompletes is the control case: an uncut run publishes every
// epoch, both crash states restore exactly the final one, and the kill
// grid fits inside the run's boundaries.
func TestCrashSoakCompletes(t *testing.T) {
	ms, _ := milestones(t, 99)
	if max := killGrid[len(killGrid)-1]; len(ms) <= max {
		t.Fatalf("run has %d milestones, kill grid reaches %d", len(ms), max)
	}
	pts, _, d := diffcheck.DiskCell("crash", 99, 0)
	if d != nil {
		t.Fatal(d)
	}
	want := uint64(store.DefaultSoakParams("", 99).Epochs)
	for _, pt := range pts {
		if pt.DurableEpoch != want || pt.RestoredEpoch != want {
			t.Fatalf("%s: durable %d, restored %d, want %d", pt.State, pt.DurableEpoch, pt.RestoredEpoch, want)
		}
	}
}
