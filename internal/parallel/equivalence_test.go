package parallel_test

// End-to-end determinism contract of the sweep engine: fanning simulation
// cells over workers must leave every observable result — summaries,
// rendered figures, fault schedules — byte-identical to the serial sweep.
// These tests are the -race companions to the unit tests in parallel_test.go:
// they drive the real simulator through internal/experiments and
// internal/diffcheck at -j 1 and -j 8 and compare outputs exactly.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/diffcheck"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// TestParallelEqualsSerial runs a (scheme x workload x seed) grid of full
// simulations through parallel.Map at 1 and 8 workers and requires every
// run summary — including the Final golden-image map — to match exactly.
func TestParallelEqualsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation grid; skipped in -short")
	}
	grids := []struct {
		name    string
		schemes []string
		wls     []string
		seeds   []int64
	}{
		{"baselines", []string{"Ideal", "PiCL"}, []string{"btree", "hashtable"}, []int64{0}},
		{"nvoverlay-seeds", []string{"NVOverlay"}, []string{"btree"}, []int64{0, 7, 99}},
		{"mixed", []string{"NVOverlay", "SWLog"}, []string{"art"}, []int64{3}},
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			type cell struct {
				scheme, wl string
				seed       int64
			}
			var cells []cell
			for _, sc := range g.schemes {
				for _, wl := range g.wls {
					for _, seed := range g.seeds {
						cells = append(cells, cell{sc, wl, seed})
					}
				}
			}
			runAll := func(jobs int) []interface{} {
				return parallel.Map(jobs, len(cells), func(i int) interface{} {
					scale := experiments.Smoke
					scale.Seed = cells[i].seed
					r, err := experiments.Run(cells[i].scheme, cells[i].wl, scale, nil)
					if err != nil {
						t.Errorf("cell %d (%+v): %v", i, cells[i], err)
						return nil
					}
					return r.Sum
				})
			}
			serial := runAll(1)
			par := runAll(8)
			for i := range cells {
				if !reflect.DeepEqual(serial[i], par[i]) {
					t.Fatalf("cell %d (%+v): -j 8 summary diverges from -j 1:\nserial: %+v\nparallel: %+v",
						i, cells[i], serial[i], par[i])
				}
			}
		})
	}
}

// TestFig11BytesEqualAcrossJobs renders the same figure at Jobs=1 and
// Jobs=8 and compares the printed matrix byte-for-byte — the exact check
// CI's nvbench output would fail if canonical-order merging ever broke.
func TestFig11BytesEqualAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation figure; skipped in -short")
	}
	render := func(jobs int) []byte {
		scale := experiments.Smoke
		scale.Jobs = jobs
		m, err := experiments.Fig11(scale, []string{"btree", "hashtable"})
		if err != nil {
			t.Fatalf("Fig11 jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		experiments.PrintMatrix(&buf, m)
		return buf.Bytes()
	}
	serial := render(1)
	par := render(8)
	if !bytes.Equal(serial, par) {
		t.Fatalf("Fig11 output differs between Jobs=1 and Jobs=8:\n-- serial --\n%s\n-- parallel --\n%s", serial, par)
	}
}

// TestScaleSweepEqualAcrossJobs is the same contract for the big-machine
// scale sweep: a 64-core smoke grid over both zipfian generators must
// render byte-identically at Jobs=1 and Jobs=8 — the exact check CI's
// scale-smoke job applies to the 256-core quick cells via cmp.
func TestScaleSweepEqualAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation sweep; skipped in -short")
	}
	render := func(jobs int) []byte {
		scale := experiments.Smoke
		scale.Jobs = jobs
		pts, err := experiments.Scale256(scale, []int{64}, nil)
		if err != nil {
			t.Fatalf("Scale256 jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		experiments.PrintScale256(&buf, pts)
		return buf.Bytes()
	}
	serial := render(1)
	par := render(8)
	if !bytes.Equal(serial, par) {
		t.Fatalf("Scale256 output differs between Jobs=1 and Jobs=8:\n-- serial --\n%s\n-- parallel --\n%s", serial, par)
	}
}

// TestFaultSweepEqualAcrossJobs checks the crash-consistency sweep: nvm
// regimes and the every-cut disk grid must yield deeply equal results —
// points, tallies and the concatenated canonical fault schedule — at 1 and
// 8 workers.
func TestFaultSweepEqualAcrossJobs(t *testing.T) {
	for _, p := range []diffcheck.SweepParams{
		{Classes: []string{"nvm:torn", "nvm:all"}, Seeds: []int64{11}, Cuts: 8},
		{Classes: []string{"disk:crash"}, Seeds: []int64{1, 2, 3}, Cuts: 1 << 20},
	} {
		serial, err1 := diffcheck.RunSweep(context.Background(), p, 1, nil)
		par, err8 := diffcheck.RunSweep(context.Background(), p, 8, nil)
		if err1 != nil || err8 != nil {
			t.Fatalf("%v: unexpected error (serial=%v parallel=%v)", p.Classes, err1, err8)
		}
		if serial.Cells == 0 || serial.Schedule == "" {
			t.Fatalf("%v: empty sweep", p.Classes)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("%v: sweep diverges between jobs=1 and jobs=8:\nserial: %+v\nparallel: %+v",
				p.Classes, serial, par)
		}
	}
}

// TestDistributionMergeAcrossJobs is the parallel-sweep cross-check for
// stats.Distribution.Merge and stats.Histogram.Merge: per-cell sample
// distributions fanned over workers and merged in cell order must render
// byte-identically at every worker count, including when some cells (here
// every third) observe nothing.
func TestDistributionMergeAcrossJobs(t *testing.T) {
	const cells = 64
	sweep := func(jobs int) (string, string) {
		type pair struct {
			d stats.Distribution
			h stats.Histogram
		}
		out := parallel.Map(jobs, cells, func(i int) pair {
			var p pair
			if i%3 == 2 {
				return p // empty cell: Merge must not clobber min/max
			}
			// A deterministic per-cell stream, pure function of the index.
			v := int64(i*i + 1)
			for k := 0; k < 50; k++ {
				p.d.Observe(v)
				p.h.Observe(v)
				v = (v*6364136223846793005 + int64(i)) % 100_000
			}
			return p
		})
		var d stats.Distribution
		var h stats.Histogram
		for i := range out {
			d.Merge(&out[i].d)
			h.Merge(&out[i].h)
		}
		return d.String(), h.String()
	}
	d1, h1 := sweep(1)
	d8, h8 := sweep(8)
	if d1 != d8 {
		t.Fatalf("merged distribution differs across jobs:\n-j 1: %s\n-j 8: %s", d1, d8)
	}
	if h1 != h8 {
		t.Fatalf("merged histogram differs across jobs:\n-j 1: %s\n-j 8: %s", h1, h8)
	}
	if d1 == "n=0 (empty)" || h1 == "n=0 (empty)" {
		t.Fatal("sweep observed nothing; the cross-check is vacuous")
	}
}
