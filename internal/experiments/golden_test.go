package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// update rewrites the committed golden files instead of comparing:
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenWorkloads are the NVM-write-heavy paper workloads the behaviour
// lock pins for every scheme.
var goldenWorkloads = []string{"hashtable", "yada", "ssca2"}

const goldenCellsFile = "testdata/golden/cells.txt"

// wrap5 turns on the epoch wrap-around protocol with a 5-bit wire, narrow
// enough that a Smoke run crosses many group boundaries and so reaches
// the group-transition flush.
func wrap5(c *sim.Config) {
	c.WrapWidth = 5
}

// goldenRun is one golden cell's run with the golden final image a
// trace.Golden sink built during it.
type goldenRun struct {
	RunResult
	final *mem.Table[uint64]
}

// runGoldenCells runs every cell the way runCells does, with a golden
// sink attached to each driver.
func runGoldenCells(cells []cellSpec) ([]goldenRun, error) {
	type outcome struct {
		r   goldenRun
		err error
	}
	res := parallel.Map(parallel.Jobs(Smoke.Jobs), len(cells), func(i int) outcome {
		d, s, cfg, err := newRun(cells[i].scheme, cells[i].wl, Smoke, cells[i].mod)
		if err != nil {
			return outcome{err: err}
		}
		g := trace.NewGolden(cfg)
		d.SetSink(g)
		return outcome{r: goldenRun{RunResult{Sum: d.Run(), Scheme: s}, g.Final()}}
	})
	out := make([]goldenRun, len(cells))
	for i, o := range res {
		if o.err != nil {
			return nil, o.err
		}
		out[i] = o.r
	}
	return out, nil
}

// goldenCell renders one (scheme, workload) run at Smoke as a block of
// text: a header naming the cell (variant marks a modified config), the
// Summary scalars, a digest of the golden final image and the scheme's
// counter set.
func goldenCell(r goldenRun, variant string) string {
	s := r.Sum
	var b strings.Builder
	fmt.Fprintf(&b, "== %s%s/%s\n", s.Scheme, variant, s.Workload)
	fmt.Fprintf(&b, "cycles=%d accesses=%d stores=%d ops=%d footprint=%d\n",
		s.Cycles, s.Accesses, s.Stores, s.Ops, s.Footprint)
	fmt.Fprintf(&b, "nvm=%d data=%d log=%d meta=%d ctx=%d\n",
		s.NVMBytes, s.DataBytes, s.LogBytes, s.MetaBytes, s.CtxBytes)
	lines, digest := finalDigest(r.final)
	fmt.Fprintf(&b, "final lines=%d digest=%016x\n", lines, digest)
	fmt.Fprintf(&b, "%s\n", r.Scheme.Stats().String())
	return b.String()
}

// finalDigest folds the golden final image, in ascending address order,
// into one word.
func finalDigest(final *mem.Table[uint64]) (int, uint64) {
	d := uint64(0xcbf29ce484222325)
	keys := final.SortedKeys()
	for _, a := range keys {
		v, _ := final.Get(a)
		d = (d ^ a) * 0x100000001b3
		d = (d ^ v) * 0x100000001b3
	}
	return len(keys), d
}

// TestSchemeStatsGolden is the behaviour lock: every scheme on every
// golden workload must reproduce its committed Summary, final-image
// digest and counters byte for byte. A failure names every cell that
// moved. cmd/nvbench's TestAllSmokeGolden pins the figures themselves.
func TestSchemeStatsGolden(t *testing.T) {
	var cells []cellSpec
	var variants []string
	for _, wl := range goldenWorkloads {
		for _, sc := range append([]string{"Ideal"}, SchemeNames...) {
			cells = append(cells, cellSpec{scheme: sc, wl: wl})
			variants = append(variants, "")
		}
	}
	for _, wl := range goldenWorkloads {
		cells = append(cells, cellSpec{scheme: "NVOverlay", wl: wl, mod: wrap5})
		variants = append(variants, "+wrap5")
	}
	// One 64-core cell of the scale256 sweep: 32 VDs and 16 OMCs on
	// zipfian oltp keys, so sharer-set words past the first, the clock
	// tree and a 16-partition OMC group run.
	cells = append(cells, cellSpec{scheme: "NVOverlay", wl: "oltp", mod: scale256Machine(Smoke, 64, 2)})
	variants = append(variants, "+scale256-64")
	res, err := runGoldenCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for i, r := range res {
		got.WriteString(goldenCell(r, variants[i]))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenCellsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCellsFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenCellsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotNames, gotBlocks := splitBlocks(got.String())
	wantNames, wantBlocks := splitBlocks(string(want))
	for _, name := range wantNames {
		if g, ok := gotBlocks[name]; !ok {
			t.Errorf("%s: cell missing from the run", name)
		} else if w := wantBlocks[name]; g != w {
			t.Errorf("%s changed:\n got: %s\nwant: %s", name, g, w)
		}
	}
	for _, name := range gotNames {
		if _, ok := wantBlocks[name]; !ok {
			t.Errorf("%s: cell not in %s", name, goldenCellsFile)
		}
	}
}

// splitBlocks indexes a golden rendering by its "== scheme/workload"
// headers and returns the names in file order.
func splitBlocks(s string) ([]string, map[string]string) {
	var names []string
	out := make(map[string]string)
	for _, blk := range strings.Split(s, "== ")[1:] {
		name, body, _ := strings.Cut(blk, "\n")
		names = append(names, name)
		out[name] = body
	}
	return names, out
}

// TestGoldenSinkLeavesRunUnchanged checks that attaching the golden sink
// only observes: the Summary and the counters match a run without it.
func TestGoldenSinkLeavesRunUnchanged(t *testing.T) {
	for _, sc := range []string{"Ideal", "PiCL-L2", "NVOverlay"} {
		plain, err := Run(sc, "yada", Smoke, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runGoldenCells([]cellSpec{{scheme: sc, wl: "yada"}})
		if err != nil {
			t.Fatal(err)
		}
		withSink := res[0]
		if withSink.final.Len() == 0 {
			t.Fatalf("%s: golden sink saw no stores", sc)
		}
		if plain.Sum != withSink.Sum {
			t.Errorf("%s: summary with the golden sink %+v, without %+v", sc, withSink.Sum, plain.Sum)
		}
		if g, w := withSink.Scheme.Stats().String(), plain.Scheme.Stats().String(); g != w {
			t.Errorf("%s: counters with the golden sink:\n%s\nwithout:\n%s", sc, g, w)
		}
	}
}
