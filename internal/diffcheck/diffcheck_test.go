package diffcheck

import (
	"strings"
	"testing"
)

// traceBudget is the sweep size. The -short acceptance budget is 504
// traces (84 per regime); full mode doubles it.
func traceBudget() int {
	if testing.Short() {
		return 504
	}
	return 1008
}

// TestDifferentialTraces is the tentpole sweep: every trace of the regime
// rotation must replay divergence-free through NVOverlay, the baseline
// rotation and the golden model, and must actually exercise the machinery
// it claims to (epochs, crash probes, wrap transitions).
func TestDifferentialTraces(t *testing.T) {
	n := traceBudget()
	const shards = 8
	for s := 0; s < shards; s++ {
		s := s
		t.Run("", func(t *testing.T) {
			t.Parallel()
			for i := s; i < n; i += shards {
				p := RegimeParams(i, 1)
				res, d := Run(p, nil)
				if d != nil {
					t.Fatal(d.Error())
				}
				if res.MaxEpoch < 9 {
					t.Fatalf("trace %d (%s): reached epoch %d, want >= 9", i, p.FlagString(), res.MaxEpoch)
				}
				if res.CrashVerifies < p.CrashPoints {
					t.Fatalf("trace %d (%s): %d crash verifies, want >= %d",
						i, p.FlagString(), res.CrashVerifies, p.CrashPoints)
				}
				if res.BoundaryVerifies < 3 {
					t.Fatalf("trace %d (%s): %d boundary verifies, want >= 3",
						i, p.FlagString(), res.BoundaryVerifies)
				}
				if p.Wrap && res.WrapFlushes < 1 {
					t.Fatalf("trace %d (%s): wrap regime crossed no group transition", i, p.FlagString())
				}
				if res.Lines == 0 {
					t.Fatalf("trace %d (%s): no lines written", i, p.FlagString())
				}
			}
		})
	}
}

// TestNoWalkerRegime covers the walker-disabled ablation: min-ver is never
// reported so the recoverable epoch stays at zero until the final seal,
// but the sealed image must still match the golden final state.
func TestNoWalkerRegime(t *testing.T) {
	p := RegimeParams(0, 77)
	p.Walker = false
	res, d := Run(p, nil)
	if d != nil {
		t.Fatal(d.Error())
	}
	if res.BoundaryVerifies != 0 {
		t.Fatalf("walker disabled but %d boundary verifies fired", res.BoundaryVerifies)
	}
	if res.RecEpoch < 9 {
		t.Fatalf("sealed rec-epoch %d, want >= 9", res.RecEpoch)
	}
}

// TestRunDeterminism re-runs one trace per regime and requires identical
// results: the property the reproducer in every divergence report rests on.
func TestRunDeterminism(t *testing.T) {
	for i := 0; i < RegimeCount; i++ {
		p := RegimeParams(i, 4242)
		a, da := Run(p, nil)
		b, db := Run(p, nil)
		if (da == nil) != (db == nil) {
			t.Fatalf("regime %d: divergence not deterministic: %v vs %v", i, da, db)
		}
		if a.MaxEpoch != b.MaxEpoch || a.RecEpoch != b.RecEpoch ||
			a.BoundaryVerifies != b.BoundaryVerifies || a.CrashVerifies != b.CrashVerifies ||
			a.WrapFlushes != b.WrapFlushes || a.Lines != b.Lines {
			t.Fatalf("regime %d: results differ across identical runs:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestGoldenModel unit-tests the shadow memory in isolation.
func TestGoldenModel(t *testing.T) {
	g := NewGolden()
	must := func(step int, addr, epoch, data uint64) {
		t.Helper()
		if err := g.Store(step, addr, epoch, data); err != nil {
			t.Fatal(err)
		}
	}
	must(0, 0x40, 1, 10)
	must(1, 0x80, 1, 11)
	must(2, 0x40, 1, 12)
	must(3, 0x40, 3, 13)
	must(4, 0xc0, 4, 14)

	if err := g.Store(5, 0x40, 2, 99); err == nil {
		t.Fatal("epoch regression not rejected")
	}
	if g.Lines() != 3 {
		t.Fatalf("Lines() = %d, want 3", g.Lines())
	}
	wantFinal := map[uint64]uint64{0x40: 13, 0x80: 11, 0xc0: 14}
	for a, w := range wantFinal {
		if got := g.Final()[a]; got != w {
			t.Fatalf("Final()[%#x] = %d, want %d", a, got, w)
		}
	}
	img := g.ImageAt(2)
	if len(img) != 2 || img[0x40] != 12 || img[0x80] != 11 {
		t.Fatalf("ImageAt(2) = %v, want {0x40:12, 0x80:11}", img)
	}
	if img := g.ImageAt(0); len(img) != 0 {
		t.Fatalf("ImageAt(0) = %v, want empty", img)
	}
	if d, e, ok := g.VersionAt(0x40, 5); !ok || d != 13 || e != 3 {
		t.Fatalf("VersionAt(0x40, 5) = (%d,%d,%v), want (13,3,true)", d, e, ok)
	}
	if d, e, ok := g.VersionAt(0x40, 1); !ok || d != 12 || e != 1 {
		t.Fatalf("VersionAt(0x40, 1) = (%d,%d,%v), want (12,1,true)", d, e, ok)
	}
	if _, _, ok := g.VersionAt(0xc0, 3); ok {
		t.Fatal("VersionAt(0xc0, 3) found a version before the first write")
	}
}

// TestTraceGen checks the generator's determinism and knobs.
func TestTraceGen(t *testing.T) {
	p := RegimeParams(0, 9)
	a, b := p.Ops(), p.Ops()
	if len(a) != p.Steps {
		t.Fatalf("generated %d steps, want %d", len(a), p.Steps)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs across identical generations: %+v vs %+v", i, a[i], b[i])
		}
	}
	var writes int
	for _, op := range a {
		if op.Write {
			writes++
			if op.Data == 0 {
				t.Fatal("store with zero data token")
			}
		}
		if op.Tid < 0 || op.Tid >= p.Cores {
			t.Fatalf("step tid %d out of range", op.Tid)
		}
	}
	if writes < p.Steps/4 || writes > 3*p.Steps/4 {
		t.Fatalf("write mix %d/%d far from WritePct %d", writes, p.Steps, p.WritePct)
	}
	all := Params{Seed: 5, Cores: 2, CoresPerVD: 1, Steps: 200, Lines: 8, SharePct: 100,
		WritePct: 100, EpochSize: 4, Pattern: PatternUniform, Walker: true, OMCs: 1, CrashPoints: 0}
	for _, op := range all.Ops() {
		if !op.Write {
			t.Fatal("WritePct=100 generated a load")
		}
	}
}

// TestParamsValidate covers the guard rails the fuzz clamp relies on.
func TestParamsValidate(t *testing.T) {
	good := RegimeParams(0, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Cores = 0 },
		func(p *Params) { p.CoresPerVD = 3 },
		func(p *Params) { p.Steps = 0 },
		func(p *Params) { p.Lines = 0 },
		func(p *Params) { p.SharePct = 101 },
		func(p *Params) { p.WritePct = -1 },
		func(p *Params) { p.EpochSize = 0 },
		func(p *Params) { p.Pattern = "zipf" },
		func(p *Params) { p.Wrap = true; p.WrapWidth = 3 },
		func(p *Params) { p.OMCs = 0 },
		func(p *Params) { p.CrashPoints = p.Steps },
	}
	for i, mod := range bad {
		p := good
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("mutation %d accepted: %+v", i, p)
		}
	}
}

// TestDivergenceReport checks the reproducer format end to end without
// needing a real protocol bug: the report must carry the seed, the step,
// the nvcheck flags, and the minimized prefix.
func TestDivergenceReport(t *testing.T) {
	p := RegimeParams(1, 123)
	d := &Divergence{Params: p, Scheme: "NVOverlay", Kind: "crash-image", Step: 812,
		MinSteps: 97, Detail: "rec-epoch 7: line 0x40 = 3, want 5"}
	msg := d.Error()
	for _, want := range []string{
		"seed=124", "step 812", "kind=crash-image",
		"-seed 124", "-wrap -wrapwidth 5", "nvcheck", "first 97 steps",
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("divergence report missing %q:\n%s", want, msg)
		}
	}
	dEnd := &Divergence{Params: p, Scheme: "PiCL", Kind: "final-dram", Step: -1, Detail: "x"}
	if !strings.Contains(dEnd.Error(), "end of run") {
		t.Fatalf("end-of-run divergence mislabelled:\n%s", dEnd.Error())
	}
}

// TestDiffImages pins the deterministic divergence diff rendering.
func TestDiffImages(t *testing.T) {
	got := map[uint64]uint64{0x40: 1, 0x80: 2}
	want := map[uint64]uint64{0x40: 1, 0x80: 3, 0xc0: 4}
	s := diffImages(got, want)
	if !strings.Contains(s, "0x80: got 2 want 3") || !strings.Contains(s, "0xc0: missing (want 4)") {
		t.Fatalf("diff = %q", s)
	}
	if s := diffImages(got, got); s != "images identical" {
		t.Fatalf("self-diff = %q", s)
	}
}
