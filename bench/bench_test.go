package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cst"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// small runs every cell at a few thousand accesses.
func small(t *testing.T, accesses uint64) {
	t.Helper()
	old := testAccesses
	testAccesses = accesses
	t.Cleanup(func() { testAccesses = old })
}

// TestOverlayMatchesCore holds the benchmark's decorated NVOverlay
// assembly equal to core.New: same Summary, same counters.
func TestOverlayMatchesCore(t *testing.T) {
	for _, name := range []string{"hashtable", "kmeans", "oltp"} {
		w := benchWorkload{scale: quickThird}
		if name == "oltp" {
			w.mod = scale64Machine
		}
		cfgA, err := w.config(7)
		if err != nil {
			t.Fatal(err)
		}
		cfgB := cfgA
		stock := core.New(&cfgA)
		tr := newTracer(&spanLog{})
		asm := traceScheme(newOverlay(&cfgB, tr), tr)
		run := func(cfg *sim.Config, s trace.Scheme, traced bool) trace.Summary {
			wl, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if traced {
				wl = tracedWorkload{Workload: wl, t: tr}
			}
			return trace.NewDriver(cfg, s, wl, 30_000).Run()
		}
		a, b := run(&cfgA, stock, false), run(&cfgB, asm, true)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: summary %+v, core.New gives %+v", name, b, a)
		}
		if sa, sb := stock.Stats().String(), asm.Stats().String(); sa != sb {
			t.Errorf("%s: stats\n%s\ncore.New gives\n%s", name, sb, sa)
		}
		if tr.acc[layerOMC].calls == 0 || tr.acc[layerPlane].calls == 0 {
			t.Errorf("%s: decorators saw %d omc calls and %d plane applies", name,
				tr.acc[layerOMC].calls, tr.acc[layerPlane].calls)
		}
	}
}

// TestScale64MatchesScale256 holds the scale64-zipf machine equal to
// experiments.Scale256 at 64 cores.
func TestScale64MatchesScale256(t *testing.T) {
	small(t, 20_000)
	w, err := findWorkload("scale64-zipf")
	if err != nil {
		t.Fatal(err)
	}
	scale := w.scale
	scale.MaxAccesses = w.accesses()
	scale.Seed = 42
	scale.Jobs = 1
	points, err := experiments.Scale256(scale, []int{64}, experiments.Scale256Workloads)
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner(t, w, 42, nil)
	got := map[string]outputs{}
	for _, c := range w.cells {
		cr := r.exec(c, false, -1)
		if cr.err != nil {
			t.Fatal(cr.err)
		}
		got[c.name()] = cr.out
	}
	if len(points) != 4 {
		t.Fatalf("Scale256 at 64 cores gave %d points, want 4", len(points))
	}
	cfg, err := w.config(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		o := got[p.Scheme+"/"+p.Workload]
		ideal := got["Ideal/"+p.Workload]
		if o.Cycles != p.Cycles || o.Accesses != p.Accesses {
			t.Errorf("%s/%s: %d cycles, %d accesses; Scale256 gives %d, %d",
				p.Scheme, p.Workload, o.Cycles, o.Accesses, p.Cycles, p.Accesses)
		}
		if norm := float64(o.Cycles) / float64(ideal.Cycles); norm != p.NormCycles {
			t.Errorf("%s/%s: %.6f x Ideal, Scale256 gives %.6f", p.Scheme, p.Workload, norm, p.NormCycles)
		}
		if p.Cores != cfg.Cores || p.VDs != cfg.VDs() || p.OMCs != cfg.OMCs {
			t.Errorf("Scale256 machine %d cores/%d VDs/%d OMCs, benchmark %d/%d/%d",
				p.Cores, p.VDs, p.OMCs, cfg.Cores, cfg.VDs(), cfg.OMCs)
		}
	}
}

func testRunner(t *testing.T, w benchWorkload, seed int64, fsys fault.FS) *runner {
	t.Helper()
	r, err := newRunner(w, seed, fsys, &spanLog{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.probe.close() })
	return r
}

// setUp records a replay workload's traces and returns a runner and a
// consistency-only checker for it.
func setUp(t *testing.T, name string, seed int64) (*runner, *checker) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	_, fsys, recs, err := w.setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	return testRunner(t, w, seed, fsys), newChecker(nil, name, recs)
}

// TestIdealReplayMatchesRecording replays each Ideal-recorded trace under
// Ideal and requires the recording run's outputs back.
func TestIdealReplayMatchesRecording(t *testing.T) {
	small(t, 20_000)
	r, c := setUp(t, "baseline-write", 3)
	for _, cell := range r.w.cells {
		if cell.scheme != "Ideal" {
			continue
		}
		res := r.exec(cell, false, -1)
		if why := c.check(res, true); why != "" {
			t.Errorf("%s: %s", cell.name(), why)
		}
		rec := c.recs[cell.source]
		if res.out.Cycles != rec.out.Cycles || res.out.Accesses != rec.records {
			t.Errorf("%s: %d cycles over %d accesses, recording %d over %d", cell.name(),
				res.out.Cycles, res.out.Accesses, rec.out.Cycles, rec.records)
		}
		// The check must notice a replay that drifts from its recording.
		res.out.L1Hits++
		if why := newChecker(nil, "", c.recs).check(res, true); !strings.Contains(why, "l1_hits") {
			t.Errorf("%s: drifted replay passed the check (%q)", cell.name(), why)
		}
	}
}

// TestDecoratorsKeepOutputs runs every cell of every workload with and
// without the timing decorators and requires identical outputs.
func TestDecoratorsKeepOutputs(t *testing.T) {
	small(t, 4_000)
	for _, w := range workloads() {
		var r *runner
		c := newChecker(nil, w.name, nil)
		if w.replay() {
			r, c = setUp(t, w.name, 5)
		} else {
			r = testRunner(t, w, 5, nil)
		}
		plain, _ := r.pass(false, -1)
		traced, _ := r.pass(true, -1)
		for i := range plain {
			for _, res := range []cellResult{plain[i], traced[i]} {
				if why := c.check(res, w.replay()); why != "" {
					t.Errorf("%s %s traced=%v: %s", w.name, res.spec.name(), res.traced, why)
				}
			}
		}
	}
}

// spinScheme spends a known host time in each Access and in a nested
// backend call, so the layer accounting can be checked against it.
type spinScheme struct {
	nvm     *mem.NVM
	backend cst.Backend
	self    time.Duration
}

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// Name borrows Ideal's accumulator, which files under the baseline layer.
func (s *spinScheme) Name() string      { return "Ideal" }
func (s *spinScheme) Bind(*sim.Clocks)  {}
func (s *spinScheme) Drain(uint64)      {}
func (s *spinScheme) Stats() *stats.Set { return stats.NewSet("spin") }
func (s *spinScheme) NVM() *mem.NVM     { return s.nvm }
func (s *spinScheme) Access(tid int, addr uint64, write bool, data uint64) uint64 {
	spin(s.self)
	s.backend.ReceiveVersion(omc.Version{Addr: addr}, 0)
	return 1
}

type spinBackend struct{ d time.Duration }

func (b spinBackend) ReceiveVersion(omc.Version, uint64) uint64 { spin(b.d); return 0 }
func (b spinBackend) ReportMinVer(int, uint64, uint64)          {}
func (b spinBackend) LowerMinVer(int, uint64, uint64)           {}
func (b spinBackend) DumpContext(int, uint64, uint64) uint64    { return 0 }

// countSource yields n loads.
type countSource struct{ n int }

func (s *countSource) Next() (trace.Access, error) {
	if s.n == 0 {
		return trace.Access{}, io.EOF
	}
	s.n--
	return trace.Access{Addr: uint64(s.n) * 64}, nil
}

// TestSelfTimesRecoverKnownCosts drives a scheme and backend that spin for
// known times and checks the calibrated self times come back within 10%
// and the self times sum to the traced wall time within 5%.
func TestSelfTimesRecoverKnownCosts(t *testing.T) {
	const n = 2000
	const schemeCost, backendCost = 6 * time.Microsecond, 3 * time.Microsecond
	cal := calibrate()
	if cal.span <= 0 || cal.inside <= 0 || cal.inside > cal.span {
		t.Fatalf("calibration %+v", cal)
	}
	cfg := sim.DefaultConfig()
	tr := newTracer(&spanLog{})
	s := &spinScheme{nvm: mem.NewNVM(&cfg), backend: tracedBackend{b: spinBackend{backendCost}, t: tr}, self: schemeCost}
	d := trace.NewDriver(&cfg, traceScheme(s, tr), nil, n)
	start := time.Now()
	if _, err := d.RunReplay(tracedSource{src: &countSource{n: n}, t: tr}); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	lt := reduce(tr, wall, wall, cal)
	for layer, want := range map[string]time.Duration{"baseline": schemeCost, "omc": backendCost} {
		got := lt.self[layer] / n
		if rel := got/ns(want) - 1; rel < -0.1 || rel > 0.1 {
			t.Errorf("%s self %.0f ns per call, spun %v (%.1f%% off)", layer, got, want, 100*rel)
		}
	}
	if rel := lt.selfSum()/lt.wall - 1; rel < -0.05 || rel > 0.05 {
		t.Errorf("self times sum to %.1f%% of traced wall", 100*(1+rel))
	}
}

// TestMetricsMatchBenchmarkJSON runs each kind of workload small, untraced
// and traced, and requires exactly the metrics BENCHMARK.json names, with
// its units, and the workloads it names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	small(t, 3_000)
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range ms {
			m[x.Name] = x.Unit
		}
		return m
	}
	for _, name := range []string{"overlay-write", "scale64-zipf"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, options{seed: 9, trace: traced}, io.Discard) // one pass
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: %d of %d cells failed", name, traced, res.Failed, res.Attempted)
			}
			want := units(spec.EndToEnd)
			if traced {
				want = units(spec.PerLayer)
			}
			got := map[string]string{}
			for k, m := range res.Metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json %v", name, traced, sortedKeys(got), sortedKeys(want))
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k, u := range m {
		ks = append(ks, k+" "+u)
	}
	sort.Strings(ks)
	return ks
}

// TestExpectationsNameFirstDifference checks the committed expectations
// load and a mismatch names the first differing field.
func TestExpectationsNameFirstDifference(t *testing.T) {
	for _, seed := range []int64{42, 1042} {
		e, err := loadExpectations(seed)
		if err != nil || e == nil {
			t.Fatalf("seed %d: expectations %v, %v", seed, e, err)
		}
		for _, w := range workloads() {
			ew, ok := e.Workloads[w.name]
			if !ok || len(ew.Cells) != len(w.cells) {
				t.Errorf("seed %d %s: %d expected cells, workload has %d", seed, w.name, len(ew.Cells), len(w.cells))
			}
		}
	}
	want := outputs{Cycles: 10, Accesses: 5, Stores: 2}
	got := want
	got.Stores, got.LLCHits = 3, 1
	if d := firstDiff(got, want); d != "stores = 3, want 2" {
		t.Errorf("firstDiff = %q", d)
	}
	if loaded, err := loadExpectations(7); loaded != nil || err != nil {
		t.Errorf("seed 7 has expectations %v, %v", loaded, err)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace"})
	want := []string{"--workload", "x", "--trace=1", "--seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}
