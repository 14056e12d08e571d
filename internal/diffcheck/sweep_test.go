package diffcheck

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/soak"
)

// sweep runs p on jobs workers and fails the test on any error.
func sweep(t *testing.T, p SweepParams, jobs int) SweepResult {
	t.Helper()
	res, err := RunSweep(context.Background(), p, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFaultGrid is the nvm acceptance grid: every fault class x 4 seeds x
// 9 power cuts must satisfy salvage-or-refuse, and each class must really
// exercise both outcomes rather than degenerate into all-clean runs.
func TestFaultGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("fault grid is a long test")
	}
	var classes []string
	for _, c := range fault.Classes {
		classes = append(classes, LayerNVM+":"+c)
	}
	res := sweep(t, SweepParams{Classes: classes, Seeds: []int64{1, 2, 3, 4}, Cuts: 8}, 4)
	if want := len(classes) * 4 * 9; res.Cells != want || res.PowerLoss.States != want {
		t.Fatalf("swept %d cells / %d states, want %d", res.Cells, res.PowerLoss.States, want)
	}
	faults := make(map[string]int)
	clean := make(map[string]int)
	dirty := make(map[string]int)
	for _, pt := range res.Points {
		faults[pt.Class] += pt.Faults
		if pt.Refused || pt.WalkedBack {
			dirty[pt.Class]++
		} else {
			clean[pt.Class]++
		}
	}
	for _, class := range fault.Classes {
		if faults[class] == 0 {
			t.Errorf("class=%s: zero faults injected across the grid", class)
		}
		if clean[class] == 0 {
			t.Errorf("class=%s: no cell across the grid restored its claimed epoch cleanly", class)
		}
		// Torn/lost in-flight state beyond the commit point is survivable
		// cleanly, so not every seed forces a walk-back — but across four
		// seeds each destructive class must hurt at least once. NAKs only
		// add latency unless the (rare) retry budget is exhausted.
		if class != "nak" && dirty[class] == 0 {
			t.Errorf("class=%s: faults never forced a walk-back or refusal across the grid", class)
		}
	}
}

// TestFaultReplayDeterminism: the same sweep replays the same fault
// schedule byte-for-byte and reaches identical salvage outcomes.
func TestFaultReplayDeterminism(t *testing.T) {
	p := SweepParams{Classes: []string{"nvm:all"}, Seeds: []int64{7}, Cuts: 8}
	a, b := sweep(t, p, 1), sweep(t, p, 1)
	if a.Faults == 0 {
		t.Fatal("injector never fired")
	}
	if a.Schedule != b.Schedule {
		t.Fatalf("fault schedule not byte-identical across replays:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			a.Schedule, b.Schedule)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatalf("salvage outcomes differ across replays:\n%+v\n%+v", a.Points, b.Points)
	}
}

// TestFaultFreeSweep: with no nvm fault class every power cut still loses
// in-flight queue contents, so salvage must restore or walk back, never
// corrupt, and no fault events may be recorded.
func TestFaultFreeSweep(t *testing.T) {
	res := sweep(t, SweepParams{Classes: []string{"nvm:"}, Seeds: []int64{11}, Cuts: 8}, 1)
	if res.Faults != 0 {
		t.Fatalf("fault-free sweep recorded %d fault events", res.Faults)
	}
	if res.PowerLoss.Restored == 0 {
		t.Fatal("fault-free sweep never restored cleanly")
	}
}

// TestDiskSweepContract runs the disk acceptance grid — every disk fault
// class x 3 seeds x 8 cuts plus the no-cut cell — in both crash states:
// zero silent corruptions, zero untyped errors, zero durable epochs lost,
// and every outcome represented.
func TestDiskSweepContract(t *testing.T) {
	p := SweepParams{Classes: ParseClasses(LayerDisk), Seeds: []int64{1, 2, 3}, Cuts: 8}
	res := sweep(t, p, 4)
	want := len(p.Classes) * len(p.Seeds) * (p.Cuts + 1)
	if res.Cells != want || res.PowerLoss.States != want || res.ProcessDeath.States != want {
		t.Fatalf("swept %d cells (%d power-loss, %d process-death states), want %d",
			res.Cells, res.PowerLoss.States, res.ProcessDeath.States, want)
	}
	for _, tl := range []Tally{res.PowerLoss, res.ProcessDeath} {
		if tl.Restored+tl.WalkedBack == 0 {
			t.Fatalf("no state restored anything; the grid is vacuous: %+v", tl)
		}
	}
	if res.PowerLoss.Refused == 0 {
		t.Fatal("no power-loss state refused; early cuts should refuse with durable == 0")
	}
	if res.Wounded == 0 {
		t.Fatal("no cell wounded the plane; the fault rates are too low to test degradation")
	}
	if res.Faults == 0 {
		t.Fatal("no faults injected across the whole grid")
	}
	// Refusals are legitimate only before anything is durable; the verdict
	// enforces this per state, recheck the aggregate for drift.
	for _, pt := range res.Points {
		if pt.Refused && pt.DurableEpoch > 0 {
			t.Fatalf("state %+v refused after epoch %d was durable", pt, pt.DurableEpoch)
		}
		if !pt.Refused && pt.RestoredEpoch < pt.DurableEpoch {
			t.Fatalf("state %+v restored below its durable epoch", pt)
		}
	}
}

// TestDiskSweepDeterminism: the result — including the concatenated fault
// schedule — is byte-identical across jobs counts and replays.
func TestDiskSweepDeterminism(t *testing.T) {
	p := SweepParams{Classes: []string{"disk:all"}, Seeds: []int64{7, 8}, Cuts: 4}
	a, b, c := sweep(t, p, 1), sweep(t, p, 4), sweep(t, p, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sweep differs between jobs=1 and jobs=4")
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("sweep differs across replays")
	}
	if !strings.Contains(a.Schedule, "# disk:all seed=7 cut=") {
		t.Fatalf("schedule missing cell headers:\n%.200s", a.Schedule)
	}
}

// TestDiskSweepEveryCut cuts the crash class at every mutating syscall of
// three seeded runs and salvages both crash states of each cell. Beyond
// every state's verdict it pins what only the two-state sweep sees: a
// SIGKILL leaves interrupted temp files for salvage to step over, and the
// two states of one cut can restore different epochs.
func TestDiskSweepEveryCut(t *testing.T) {
	p := SweepParams{Classes: []string{"disk:crash"}, Seeds: []int64{1, 2, 3}, Cuts: 1 << 20}
	res := sweep(t, p, 4)
	cells := 0
	for _, seed := range p.Seeds {
		n, err := controlOps(seed)
		if err != nil {
			t.Fatal(err)
		}
		cells += n + 1
	}
	if res.Cells != cells || len(res.Points) != 2*cells {
		t.Fatalf("swept %d cells / %d states, want every cut: %d cells", res.Cells, len(res.Points), cells)
	}
	staleTemp, split := false, false
	for i := 0; i < len(res.Points); i += 2 {
		death, power := res.Points[i], res.Points[i+1]
		if death.State != StateProcessDeath || power.State != StatePowerLoss || death.Cut != power.Cut {
			t.Fatalf("states out of order: %+v / %+v", death, power)
		}
		for _, kind := range death.Damage {
			staleTemp = staleTemp || kind == "file-stale-temp"
		}
		split = split || death.RestoredEpoch != power.RestoredEpoch
	}
	if !staleTemp {
		t.Fatal("no process-death state listed an interrupted *.tmp")
	}
	if !split {
		t.Fatal("no cut restored different epochs in its two crash states")
	}
}

// TestDiskCuts: cuts are distinct syscall ordinals in [1, n], clamped to n,
// and keep the even spread of the CI grids while fewer than n.
func TestDiskCuts(t *testing.T) {
	const n = 135
	for _, cuts := range []int{1, 8, n - 1, n, 2 * n} {
		got := diskCuts(cuts, n)
		want := cuts
		if want > n {
			want = n
		}
		if len(got) != want {
			t.Fatalf("cuts=%d: %d cut points, want %d", cuts, len(got), want)
		}
		seen := make(map[int]bool)
		for j, c := range got {
			if c < 1 || c > n || seen[c] {
				t.Fatalf("cuts=%d: cut %d = %d repeats or leaves [1, %d]", cuts, j, c, n)
			}
			seen[c] = true
			if cuts < n && c != (j+1)*n/(cuts+1) {
				t.Fatalf("cuts=%d: cut %d moved to %d from %d", cuts, j, c, (j+1)*n/(cuts+1))
			}
		}
	}
}

// TestDiskPointCrashBaseline: the pure power-cut class passes at every
// cut, a complete run restores its final epoch in both crash states, and
// the class's only injected event is the cut itself.
func TestDiskPointCrashBaseline(t *testing.T) {
	n, err := controlOps(11)
	if err != nil {
		t.Fatal(err)
	}
	epochs := uint64(soak.DefaultParams("", 11).Epochs)
	for _, cut := range []int{n / 4, n / 2, 3 * n / 4, 0} {
		pts, sched, d := DiskCell("crash", 11, cut)
		if d != nil {
			t.Fatalf("cut=%d: %v", cut, d)
		}
		for _, pt := range pts {
			if cut == 0 && (pt.Refused || pt.RestoredEpoch != epochs) {
				t.Fatalf("%s: clean run restored epoch %d (refused=%v), want %d",
					pt.State, pt.RestoredEpoch, pt.Refused, epochs)
			}
		}
		if cut > 0 && !strings.Contains(sched, "crash") {
			t.Fatalf("cut=%d schedule missing the crash event:\n%s", cut, sched)
		}
	}
}

// TestWoundedPlaneStaysSalvageable: a crash cut at 3/4 of the writer's
// syscalls fails every later op, wounding the plane with sealed epochs
// behind it; both crash states must still salvage everything durable.
func TestWoundedPlaneStaysSalvageable(t *testing.T) {
	n, err := controlOps(3)
	if err != nil {
		t.Fatal(err)
	}
	pts, _, d := DiskCell("crash", 3, 3*n/4)
	if d != nil {
		t.Fatalf("wounded store failed the verdict: %v", d)
	}
	for _, pt := range pts {
		if pt.Err == "" {
			t.Fatalf("%s: the writer survived a crash cut at 3/4 of its syscalls", pt.State)
		}
		if pt.DurableEpoch == 0 {
			t.Fatalf("%s: nothing became durable before the cut; the test is vacuous", pt.State)
		}
		if pt.Refused || pt.RestoredEpoch < pt.DurableEpoch {
			t.Fatalf("%s: restored %d (refused=%v) with epoch %d durable",
				pt.State, pt.RestoredEpoch, pt.Refused, pt.DurableEpoch)
		}
	}
}

// TestSweepDivergenceReproducer: a sweep divergence prints the one-line
// nvcheck sweep command that reruns its (class, seed) regime; a custom nvm
// trace reruns as one faulted trace through nvcheck diff instead.
func TestSweepDivergenceReproducer(t *testing.T) {
	p := SweepParams{Classes: ParseClasses(LayerDisk), Seeds: []int64{5, 6, 7}, Cuts: 8}
	d := &SweepDivergence{
		Cell: Point{Layer: LayerDisk, Class: "eio", Seed: 7, Cut: 40, State: StatePowerLoss},
		Kind: "silent-corruption", Detail: "x", Reproducer: p.Reproducer(LayerDisk, "eio", 7),
	}
	want := "\n  reproduce: go run ./cmd/nvcheck sweep -classes disk:eio -seed 7 -seeds 1 -cuts 8"
	if !strings.Contains(d.Error(), want) {
		t.Fatalf("divergence report missing %q:\n%s", want, d.Error())
	}
	tp := SweepParams{Classes: []string{"nvm:torn"}, Seeds: []int64{3}, Cuts: 2, Trace: RegimeParams(0, 3)}
	got := tp.Reproducer(LayerNVM, "torn", 3)
	for _, want := range []string{"go run ./cmd/nvcheck diff -seed 3 ", "-crash 2", "-fault torn"} {
		if !strings.Contains(got, want) {
			t.Fatalf("custom-trace reproducer %q missing %q", got, want)
		}
	}
}
