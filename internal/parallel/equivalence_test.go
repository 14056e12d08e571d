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
	"repro/internal/mem"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenCell is one grid cell's run summary and the golden final image a
// trace.Golden sink built during the run.
type goldenCell struct {
	Sum   trace.Summary
	Final *mem.Table[uint64]
}

// runGolden runs one (scheme, workload) cell the way experiments.Run does
// at scale, with a trace.Golden sink attached to the driver.
func runGolden(scheme, wl string, scale experiments.Scale) (goldenCell, error) {
	cfg := sim.DefaultConfig()
	cfg.EpochSize = scale.EpochSize
	if scale.Seed != 0 {
		cfg.Seed = scale.Seed
	}
	cfg.FaultClass = scale.FaultClass
	if scale.Machine != nil {
		scale.Machine(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return goldenCell{}, err
	}
	s, err := experiments.NewScheme(scheme, &cfg)
	if err != nil {
		return goldenCell{}, err
	}
	w, err := workload.Get(wl)
	if err != nil {
		return goldenCell{}, err
	}
	d := trace.NewDriver(&cfg, s, w, scale.MaxAccesses)
	g := trace.NewGolden(&cfg)
	d.SetSink(g)
	return goldenCell{Sum: d.Run(), Final: g.Final()}, nil
}

// TestParallelEqualsSerial runs a (scheme x workload x seed) grid of full
// simulations through parallel.Map at 1 and 8 workers and requires every
// run summary and every golden final image (the last token stored to each
// line, built by a trace.Golden sink) to match exactly. The serial pass
// also requires each cell's summary to equal experiments.Run's, so the
// sink-attached run is the run the figures make.
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
			runAll := func(jobs int) []goldenCell {
				return parallel.Map(jobs, len(cells), func(i int) goldenCell {
					scale := experiments.Smoke
					scale.Seed = cells[i].seed
					gc, err := runGolden(cells[i].scheme, cells[i].wl, scale)
					if err != nil {
						t.Errorf("cell %d (%+v): %v", i, cells[i], err)
						return goldenCell{}
					}
					if gc.Final.Len() == 0 {
						t.Errorf("cell %d (%+v): empty golden image", i, cells[i])
					}
					if jobs == 1 {
						r, err := experiments.Run(cells[i].scheme, cells[i].wl, scale, nil)
						if err != nil {
							t.Errorf("cell %d (%+v): %v", i, cells[i], err)
						} else if !reflect.DeepEqual(r.Sum, gc.Sum) {
							t.Errorf("cell %d (%+v): summary with the golden sink differs from experiments.Run's:\nsink: %+v\nRun: %+v",
								i, cells[i], gc.Sum, r.Sum)
						}
					}
					return gc
				})
			}
			serial := runAll(1)
			par := runAll(8)
			for i := range cells {
				if !reflect.DeepEqual(serial[i].Sum, par[i].Sum) {
					t.Fatalf("cell %d (%+v): -j 8 summary diverges from -j 1:\nserial: %+v\nparallel: %+v",
						i, cells[i], serial[i].Sum, par[i].Sum)
				}
				// DeepEqual on the tables compares their slot arrays, so
				// equal contents in a different iteration order fail too.
				if !reflect.DeepEqual(serial[i].Final, par[i].Final) {
					t.Fatalf("cell %d (%+v): -j 8 golden image diverges from -j 1 (%d vs %d lines)",
						i, cells[i], serial[i].Final.Len(), par[i].Final.Len())
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
