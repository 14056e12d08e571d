package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// update rewrites the committed golden files instead of comparing:
//
//	go test ./internal/experiments -run TestGoldenOutputs -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// TestGoldenOutputs is the behaviour lock: every pinned output must
// reproduce its committed golden file byte for byte. A failure names
// every cell block and every figure line that moved.
func TestGoldenOutputs(t *testing.T) {
	t.Run("cells", func(t *testing.T) { compareGolden(t, "testdata/golden/cells.txt", goldenCells(t)) })
	t.Run("figures", func(t *testing.T) {
		figs, err := smokeFigures()
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, "testdata/golden/figures.txt", figs.text)
	})
	t.Run("events", func(t *testing.T) { compareGolden(t, "testdata/golden/events.txt", goldenEvents(t)) })
	t.Run("recovery", func(t *testing.T) { compareGolden(t, "testdata/golden/recovery.txt", goldenRecovery(t)) })
}

// compareGolden checks got against the golden file at path and reports
// each moved block; with -update it rewrites the file instead.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for _, r := range goldenDiff(path, got, string(want)) {
		t.Error(r)
	}
}

// goldenDiff compares a rendering with its golden text block by block
// and returns one report per block that moved, naming the block's title
// and every moved line. A block starts at a "== " cell header or after a
// blank line (so each figure is one), and its first line is its title.
func goldenDiff(path, got, want string) []string {
	gotBlocks, wantBlocks := goldenBlocks(got), goldenBlocks(want)
	var reports []string
	for i, w := range wantBlocks {
		if i >= len(gotBlocks) {
			reports = append(reports, fmt.Sprintf("%s: %q missing from the run", path, w.lines[0]))
			continue
		}
		var moved strings.Builder
		g := gotBlocks[i]
		for j := range max(len(g.lines), len(w.lines)) {
			if gl, wl := lineAt(g.lines, j), lineAt(w.lines, j); gl != wl {
				fmt.Fprintf(&moved, "\nline %d:\n  got: %s\n want: %s", w.first+j, gl, wl)
			}
		}
		if moved.Len() > 0 {
			reports = append(reports, fmt.Sprintf("%s: under %q:%s", path, w.lines[0], moved.String()))
		}
	}
	for _, g := range gotBlocks[min(len(wantBlocks), len(gotBlocks)):] {
		reports = append(reports, fmt.Sprintf("%s: %q not in the golden file", path, g.lines[0]))
	}
	if reports == nil && got != want {
		reports = append(reports, path+": only blank lines moved")
	}
	return reports
}

// goldenBlock is a run of golden lines; first is its first line's
// number in the file.
type goldenBlock struct {
	first int
	lines []string
}

// goldenBlocks splits a rendering into its blocks.
func goldenBlocks(s string) []goldenBlock {
	var out []goldenBlock
	start := true
	for i, line := range strings.Split(s, "\n") {
		switch {
		case line == "":
			start = true
		case start || strings.HasPrefix(line, "== "):
			out = append(out, goldenBlock{first: i + 1, lines: []string{line}})
			start = false
		default:
			out[len(out)-1].lines = append(out[len(out)-1].lines, line)
		}
	}
	return out
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// figureRun is the text `nvbench -exp all -scale smoke -time=false`
// prints and the result of each figure, by name.
type figureRun struct {
	text    string
	results map[string]any
}

// smokeFigures runs the figure table at Smoke once per test binary: the
// figures golden and the shape tests read the same runs.
var smokeFigures = sync.OnceValues(func() (figureRun, error) {
	var b strings.Builder
	run := figureRun{results: map[string]any{}}
	for _, f := range Figures {
		r, err := f.Run(Smoke, nil, &b)
		if err != nil {
			return figureRun{}, fmt.Errorf("%s: %w", f.Name, err)
		}
		b.WriteString("\n")
		run.results[f.Name] = r
	}
	run.text = b.String()
	return run, nil
})

// smokeFigure returns the named figure's result at Smoke.
func smokeFigure[R any](t *testing.T, name string) R {
	t.Helper()
	figs, err := smokeFigures()
	if err != nil {
		t.Fatal(err)
	}
	return figs.results[name].(R)
}

// goldenWorkloads are the NVM-write-heavy paper workloads the behaviour
// lock pins for every scheme.
var goldenWorkloads = []string{"hashtable", "yada", "ssca2"}

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

// goldenCells renders Ideal and every scheme on every golden workload at
// Smoke, then NVOverlay with a 5-bit epoch wire on each and one 64-core
// cell of the scale256 sweep. Each cell is a block: a header naming it
// (a variant marks a modified config), the Summary scalars, a digest of
// the golden final image and the scheme's counter set.
func goldenCells(t *testing.T) string {
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
	// 32 VDs and 16 OMCs on zipfian oltp keys, so sharer-set words past
	// the first, the clock tree and a 16-partition OMC group run.
	cells = append(cells, cellSpec{scheme: "NVOverlay", wl: "oltp", mod: scale256Machine(Smoke, 64, 2)})
	variants = append(variants, "+scale256-64")
	res, err := runGoldenCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, r := range res {
		s := r.Sum
		fmt.Fprintf(&b, "== %s%s/%s\n", s.Scheme, variants[i], s.Workload)
		fmt.Fprintf(&b, "cycles=%d accesses=%d stores=%d ops=%d footprint=%d\n",
			s.Cycles, s.Accesses, s.Stores, s.Ops, s.Footprint)
		fmt.Fprintf(&b, "nvm=%d data=%d log=%d meta=%d ctx=%d\n",
			s.NVMBytes, s.DataBytes, s.LogBytes, s.MetaBytes, s.CtxBytes)
		lines, digest := finalDigest(r.final)
		fmt.Fprintf(&b, "final lines=%d digest=%016x\n", lines, digest)
		fmt.Fprintf(&b, "%s\n", r.Scheme.Stats().String())
	}
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

// streamLine renders one JSONL event stream as its size, line count and
// sha256.
func streamLine(name string, stream []byte) string {
	return fmt.Sprintf("%s bytes=%d events=%d sha256=%x\n",
		name, len(stream), bytes.Count(stream, []byte("\n")), sha256.Sum256(stream))
}

// goldenEvents renders the observability event streams, which carry what
// the scheme stats do not: the order of every protocol event and the
// write-back reason of each version eviction. It pins the smoke timeline
// stream of NVOverlay over the golden workloads and the stream of three
// differential traces whose third baseline rotates through PiCL-L2,
// SWShadow and HWShadow (the baselines' hierarchy emits its own
// evictions).
func goldenEvents(t *testing.T) string {
	var b strings.Builder
	cells, err := Timeline(Smoke, goldenWorkloads, true)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(streamLine("timeline/"+strings.Join(goldenWorkloads, ",")+"/smoke", ConcatEvents(cells)))
	for i := 0; i < 3; i++ {
		p := diffcheck.RegimeParams(i, 1)
		sink := obs.NewJSONLSink("diffcheck")
		bus := obs.NewBus()
		bus.Attach(sink)
		res, d := diffcheck.Run(p, bus)
		if d != nil {
			t.Fatal(d.Error())
		}
		b.WriteString(streamLine(fmt.Sprintf("diffcheck/seed=%d/%s", p.Seed,
			strings.Join(res.Baselines, ",")), sink.Bytes()))
	}
	return b.String()
}

// goldenRecovery renders the recovery paths the scheme cells do not
// reach: the byte-exact snapshot archive of a retained hashtable run at
// Smoke, and the salvage verdict of every point of two small crash
// sweeps, nvm and disk (every fault class x 4 seeds x the default 8 cuts
// plus the full-length cut). The disk sweep judges each cut twice, so
// both crash states get a tally.
func goldenRecovery(t *testing.T) string {
	cfg := Smoke.config()
	cfg.RetainEpochs = true
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	nvo := core.New(&cfg)
	nvo.NVM().AttachPlane(mem.NewRAMPlane()) // Export reads the persisted content
	wl, err := workload.Get("hashtable")
	if err != nil {
		t.Fatal(err)
	}
	trace.NewDriver(&cfg, nvo, wl, Smoke.MaxAccesses).Run()
	var exp bytes.Buffer
	if err := nvo.Group().Export(&exp); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "export hashtable/smoke bytes=%d sha256=%x\n", exp.Len(), sha256.Sum256(exp.Bytes()))

	for _, layer := range []string{diffcheck.LayerNVM, diffcheck.LayerDisk} {
		res, err := diffcheck.RunSweep(context.Background(), diffcheck.SweepParams{
			Classes: diffcheck.ParseClasses(layer),
			Seeds:   []int64{1, 2, 3, 4},
			Cuts:    8,
		}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		pts := sha256.New()
		for _, pt := range res.Points {
			fmt.Fprintf(pts, "%+v\n", pt)
		}
		pl, pd := res.PowerLoss, res.ProcessDeath
		if layer == diffcheck.LayerNVM {
			fmt.Fprintf(&b, "sweep nvm cells=%d faults=%d schedule=%x points=%x\n",
				res.Cells, res.Faults, sha256.Sum256([]byte(res.Schedule)), pts.Sum(nil))
			fmt.Fprintf(&b, "tally states=%d restored=%d walked_back=%d refused=%d\n",
				pl.States, pl.Restored, pl.WalkedBack, pl.Refused)
			continue
		}
		fmt.Fprintf(&b, "sweep disk cells=%d faults=%d wounded=%d schedule=%x points=%x\n",
			res.Cells, res.Faults, res.Wounded, sha256.Sum256([]byte(res.Schedule)), pts.Sum(nil))
		fmt.Fprintf(&b, "tally power-loss states=%d restored=%d walked_back=%d refused=%d"+
			" process-death states=%d restored=%d walked_back=%d refused=%d\n",
			pl.States, pl.Restored, pl.WalkedBack, pl.Refused,
			pd.States, pd.Restored, pd.WalkedBack, pd.Refused)
	}
	return b.String()
}

// TestGoldenDiffNamesEveryMove feeds the comparison two renderings that
// differ in two figures and one cell block: its reports must name both
// figure titles with their moved lines, and the cell.
func TestGoldenDiffNamesEveryMove(t *testing.T) {
	want := "Table II: Simulated Configuration\n  Processor   8 cores\n\n" +
		"Fig 11: Normalized Cycles\nbtree 1.10\nart 1.20\n\n" +
		"Fig 12: NVM Write Bytes\nbtree 1.00\n\n" +
		"== Ideal/yada\ncycles=10\n== NVOverlay/yada\ncycles=12\nnvm=5\n"
	got := strings.NewReplacer("art 1.20", "art 1.25", "btree 1.00", "btree 1.01",
		"nvm=5", "nvm=6").Replace(want)
	reports := goldenDiff("golden.txt", got, want)
	if len(reports) != 3 {
		t.Fatalf("%d reports, want 3 (two figures, one cell):\n%s", len(reports), strings.Join(reports, "\n"))
	}
	for i, want := range []string{
		"under \"Fig 11: Normalized Cycles\":\nline 6:\n  got: art 1.25\n want: art 1.20",
		"under \"Fig 12: NVM Write Bytes\":\nline 9:\n  got: btree 1.01\n want: btree 1.00",
		"under \"== NVOverlay/yada\":\nline 15:\n  got: nvm=6\n want: nvm=5",
	} {
		if !strings.Contains(reports[i], want) {
			t.Errorf("report %d is\n%s\nwant it to contain\n%s", i, reports[i], want)
		}
	}
	if r := goldenDiff("golden.txt", want, want); r != nil {
		t.Fatalf("identical renderings reported %q", r)
	}
	if r := goldenDiff("golden.txt", strings.TrimSuffix(want, "== NVOverlay/yada\ncycles=12\nnvm=5\n"), want); len(r) != 1 ||
		!strings.Contains(r[0], "\"== NVOverlay/yada\" missing") {
		t.Fatalf("a dropped cell reported %q", r)
	}
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
