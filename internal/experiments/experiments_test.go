package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// The shape assertions below encode the paper's qualitative findings at
// smoke scale: orderings and rough factors, not absolute numbers. They
// read the figure runs the figures golden makes.

func TestNewSchemeKnowsAll(t *testing.T) {
	cfg := sim.DefaultConfig()
	for _, name := range append([]string{"Ideal"}, SchemeNames...) {
		s, err := NewScheme(name, &cfg)
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("scheme %q reports %q", name, s.Name())
		}
	}
	if _, err := NewScheme("bogus", &cfg); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if _, err := Run("bogus", "art", Smoke, nil); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if _, err := Run("PiCL", "bogus", Smoke, nil); err == nil {
		t.Fatal("bad workload accepted")
	}
	if _, err := Run("PiCL", "art", Smoke, func(c *sim.Config) { c.Cores = 0 }); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestFaultedRunReplaysByteIdentical is the replay contract behind
// `nvbench -seed N -faults C`: the entire faulted run — fault schedule,
// injector event counts, and every stats counter — is a pure function of
// (Seed, FaultClass) and reproduces byte-for-byte.
func TestFaultedRunReplaysByteIdentical(t *testing.T) {
	sc := Smoke
	sc.Seed = 9
	sc.FaultClass = "all"
	run := func() (string, string) {
		res, err := Run("NVOverlay", "btree", sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		nv, ok := res.Scheme.(*core.NVOverlay)
		if !ok {
			t.Fatalf("scheme is %T, want *core.NVOverlay", res.Scheme)
		}
		inj := nv.Injector()
		if inj == nil {
			t.Fatal("FaultClass did not arm the injector")
		}
		if inj.Total() == 0 {
			t.Fatal("no faults fired during the run")
		}
		return inj.Schedule(), res.Scheme.Stats().Dump("")
	}
	sched1, stats1 := run()
	sched2, stats2 := run()
	if sched1 != sched2 {
		t.Fatalf("fault schedule not byte-identical:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", sched1, sched2)
	}
	if stats1 != stats2 {
		t.Fatalf("stats not byte-identical:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", stats1, stats2)
	}
	// A different fault class under the same seed must change the schedule
	// (the schedule is a function of the class config, not just the seed).
	sc.FaultClass = "nak"
	res, err := Run("NVOverlay", "btree", sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Scheme.(*core.NVOverlay).Injector().Schedule(); s == sched1 {
		t.Fatal("different fault class reproduced the same schedule")
	}
	// An invalid class is rejected by config validation, not silently off.
	sc.FaultClass = "melt"
	if _, err := Run("NVOverlay", "btree", sc, nil); err == nil {
		t.Fatal("unknown fault class accepted")
	}
}

// tee feeds each access to every sink in order; the first error stops it.
type tee []trace.Sink

func (t tee) Append(a trace.Access) error {
	for _, s := range t {
		if err := s.Append(a); err != nil {
			return err
		}
	}
	return nil
}

// TestDriverRecordReplayThroughTraceFile is the acceptance lock at the
// experiments level: a real NVOverlay scheme driven by a real workload,
// recorded through the on-disk codec, then replayed from the file into a
// fresh scheme — scheme stats, NVM byte counters, clocks and the final
// golden image must all be byte-identical.
func TestDriverRecordReplayThroughTraceFile(t *testing.T) {
	const maxAccesses = 120_000
	cfg := sim.DefaultConfig()
	cfg.EpochSize = 4_000

	runRecorded := func(fsys fault.FS) (trace.Summary, string, *mem.Table[uint64]) {
		c := cfg
		s, err := NewScheme("NVOverlay", &c)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := workload.Get("hashtable")
		if err != nil {
			t.Fatal(err)
		}
		d := trace.NewDriver(&c, s, wl, maxAccesses)
		w, err := tracefile.Create(fsys, "run.trc", tracefile.Shape{
			Cores: c.Cores, CoresPerVD: c.CoresPerVD, LineSize: c.LineSize, Seed: c.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		golden := trace.NewGolden(&c)
		d.SetSink(tee{w, golden})
		sum := d.Run()
		if err := d.SinkErr(); err != nil {
			t.Fatalf("record sink: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.Records() != sum.Accesses {
			t.Fatalf("recorded %d accesses, driver issued %d", w.Records(), sum.Accesses)
		}
		return sum, s.Stats().String(), golden.Final()
	}

	replayFromFile := func(fsys fault.FS) (trace.Summary, string, *mem.Table[uint64]) {
		c := cfg
		s, err := NewScheme("NVOverlay", &c)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tracefile.OpenReader(fsys, "run.trc")
		if err != nil {
			t.Fatal(err)
		}
		d := trace.NewDriver(&c, s, nil, maxAccesses)
		golden := trace.NewGolden(&c)
		d.SetSink(golden)
		sum, err := d.RunReplay(r)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return sum, s.Stats().String(), golden.Final()
	}

	fsys := fault.NewMemFS()
	want, wantStats, wantFinal := runRecorded(fsys)
	got, gotStats, gotFinal := replayFromFile(fsys)
	if wantStats != gotStats {
		t.Fatalf("scheme stats diverged under file replay:\nrecorded:\n%s\nreplayed:\n%s", wantStats, gotStats)
	}

	// Workload identity and heap footprint legitimately differ (no
	// workload ran on the replay side); everything the scheme computed
	// must not.
	want.Workload, got.Workload = "", ""
	want.Ops, got.Ops = 0, 0
	want.Footprint, got.Footprint = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("file replay diverged from the recorded run:\nrecorded %+v\nreplayed %+v", want, got)
	}
	if !reflect.DeepEqual(wantFinal, gotFinal) {
		t.Fatalf("file replay built a golden image of %d lines, recorded run %d", gotFinal.Len(), wantFinal.Len())
	}
}

func TestFig11Shape(t *testing.T) {
	m := smokeFigure[*Matrix](t, "fig11")
	nvo := m.Get("btree", "NVOverlay")
	picl := m.Get("btree", "PiCL")
	swlog := m.Get("btree", "SWLog")
	swsh := m.Get("btree", "SWShadow")
	hw := m.Get("btree", "HWShadow")
	// Paper Fig 11 ordering: NVOverlay near 1.0; PiCL small; HW shadow
	// moderate; software schemes slowest with logging worst.
	if nvo < 0.95 || nvo > 2.0 {
		t.Fatalf("NVOverlay = %.2fx, want near 1", nvo)
	}
	if !(swlog > swsh && swsh > hw && hw > nvo) {
		t.Fatalf("ordering violated: swlog=%.2f swsh=%.2f hw=%.2f nvo=%.2f", swlog, swsh, hw, nvo)
	}
	if picl < nvo*0.5 {
		t.Fatalf("PiCL=%.2f implausibly fast vs NVOverlay=%.2f", picl, nvo)
	}
}

func TestFig12Shape(t *testing.T) {
	m := smokeFigure[*Matrix](t, "fig12")
	picl := m.Get("btree", "PiCL")
	picl2 := m.Get("btree", "PiCL-L2")
	// Logging schemes write substantially more than NVOverlay (paper:
	// 1.4-1.9x for PiCL, more for PiCL-L2).
	if picl < 1.2 {
		t.Fatalf("PiCL write amplification = %.2fx, want > 1.2", picl)
	}
	if picl2 < picl {
		t.Fatalf("PiCL-L2 (%.2f) should exceed PiCL (%.2f)", picl2, picl)
	}
	if m.Get("btree", "NVOverlay") != 1.0 {
		t.Fatal("NVOverlay not normalised to 1.0")
	}
}

func TestFig13Shape(t *testing.T) {
	rows := smokeFigure[[]Fig13Row](t, "fig13")
	if len(rows) != len(workload.Names()) {
		t.Fatalf("rows = %d", len(rows))
	}
	var btree, yada Fig13Row
	for _, r := range rows {
		switch r.Workload {
		case "btree":
			btree = r
		case "yada":
			yada = r
		}
	}
	// The radix-tree lower bound is 12.5%. At smoke scale the table is
	// inner-node dominated, so only the bound and the ordering are stable;
	// the paper-scale percentages are verified by the Quick-scale nvbench
	// runs recorded in EXPERIMENTS.md.
	if btree.MasterPct < 12.5 {
		t.Fatalf("btree Mmaster = %.1f%% below the radix lower bound", btree.MasterPct)
	}
	if yada.MasterPct <= btree.MasterPct {
		t.Fatalf("yada (%.1f%%) should exceed btree (%.1f%%)", yada.MasterPct, btree.MasterPct)
	}
	if yada.LeafOccupancy >= btree.LeafOccupancy {
		t.Fatalf("yada occupancy (%.2f) should be below btree (%.2f)",
			yada.LeafOccupancy, btree.LeafOccupancy)
	}
}

func TestFig14Shape(t *testing.T) {
	pts := smokeFigure[[]Fig14Point](t, "fig14")
	if len(pts) != 12 { // 4 epoch sizes x 3 schemes
		t.Fatalf("points = %d", len(pts))
	}
	// PiCL's write bytes drop as epochs grow (fewer walks); find its
	// smallest- and largest-epoch points.
	var piclSmall, piclBig Fig14Point
	for _, p := range pts {
		if p.Scheme != "PiCL" {
			continue
		}
		if piclSmall.EpochSize == 0 || p.EpochSize < piclSmall.EpochSize {
			piclSmall = p
		}
		if p.EpochSize > piclBig.EpochSize {
			piclBig = p
		}
	}
	// Longer epochs mean fewer walks and fewer first-write log entries:
	// PiCL's absolute write volume must fall (paper: -11% from 500K to 4M).
	if piclBig.RawBytes >= piclSmall.RawBytes {
		t.Fatalf("PiCL bytes did not drop with epoch size: %d -> %d",
			piclSmall.RawBytes, piclBig.RawBytes)
	}
}

func TestFig15Shape(t *testing.T) {
	rows := smokeFigure[[]Fig15Row](t, "fig15")
	byKey := map[string]Fig15Row{}
	for _, r := range rows {
		key := r.Scheme
		if !r.Walker {
			key += "-off"
		}
		byKey[key] = r
	}
	// With the walker on, PiCL depends on it far more than NVOverlay
	// (paper: >47% vs ~11%).
	if byKey["PiCL"].WalkPct <= byKey["NVOverlay"].WalkPct {
		t.Fatalf("PiCL walk share (%.1f%%) should exceed NVOverlay's (%.1f%%)",
			byKey["PiCL"].WalkPct, byKey["NVOverlay"].WalkPct)
	}
	// Without the walker there are no walk write-backs.
	if byKey["PiCL-off"].WalkPct != 0 || byKey["NVOverlay-off"].WalkPct != 0 {
		t.Fatal("walk write-backs present with walker disabled")
	}
}

func TestFig16Shape(t *testing.T) {
	r := smokeFigure[Fig16Result](t, "fig16")
	// The buffer absorbs redundant same-epoch write-backs: fewer NVM
	// writes, decent hit rate (paper: 74.8% hits, 41% faster).
	if r.WritesWithBuffer >= r.WritesNoBuffer {
		t.Fatalf("buffer did not reduce writes: %d vs %d", r.WritesWithBuffer, r.WritesNoBuffer)
	}
	if r.BufferHitRate <= 0.2 {
		t.Fatalf("buffer hit rate = %.2f", r.BufferHitRate)
	}
	if r.NormCyclesNoBuffer < 1.0 {
		t.Fatalf("no-buffer run faster than buffered: %.2f", r.NormCyclesNoBuffer)
	}
}

func TestFig17Shape(t *testing.T) {
	series := smokeFigure[[]Fig17Series](t, "fig17")
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	var picl, nvo Fig17Series
	for _, s := range series {
		if s.Scheme == "PiCL" {
			picl = s
		} else {
			nvo = s
		}
	}
	// The part of Fig 17a that holds at any scale: NVOverlay writes
	// clearly fewer total NVM bytes than PiCL. This is not the paper's
	// average-bandwidth claim: the figure prints mean GB/s, which divides
	// by each run's own cycles, and EXPERIMENTS.md marks that claim ✗
	// (NVOverlay's shorter run reads the higher mean). The peak comparison
	// additionally needs paper-scale epochs whose write sets dwarf the
	// aggregate L2; smoke-scale epochs are too small for it.
	if picl.Series.Total() <= nvo.Series.Total() {
		t.Fatalf("PiCL total bytes (%d) should exceed NVOverlay (%d)",
			picl.Series.Total(), nvo.Series.Total())
	}
	if nvo.Series.Total()*10 >= picl.Series.Total()*9 {
		t.Fatalf("NVOverlay total NVM bytes (%d) not clearly below PiCL (%d)",
			nvo.Series.Total(), picl.Series.Total())
	}
}

func TestFig17Bursty(t *testing.T) {
	for _, s := range smokeFigure[[]Fig17Series](t, "fig17b") {
		if !s.Bursty {
			t.Fatal("bursty flag lost")
		}
		if s.Series.Total() == 0 {
			t.Fatalf("%s: empty series", s.Scheme)
		}
	}
}

func TestAblations(t *testing.T) {
	sb := smokeFigure[SuperBlockResult](t, "ablate-superblock")
	// 4-line super blocks shrink the DRAM side-band (paper: <0.8% vs 3.2%).
	if sb.SideBandBytesSuper >= sb.SideBandBytesLine {
		t.Fatalf("super-block side-band (%d) not smaller than per-line (%d)",
			sb.SideBandBytesSuper, sb.SideBandBytesLine)
	}
	wa := smokeFigure[WalkerAblation](t, "ablate-walker")
	if wa.AdvancesOn == 0 {
		t.Fatal("no rec-epoch advances with walker on")
	}
	if wa.AdvancesOff != 0 {
		t.Fatal("rec-epoch advanced mid-run without walker")
	}
}

func TestPrinters(t *testing.T) {
	var b strings.Builder
	m := newMatrix("t", []string{"w"}, []string{"s"})
	m.Set("w", "s", 1.5)
	PrintMatrix(&b, m)
	PrintFig13(&b, []Fig13Row{{Workload: "w", MasterPct: 13}})
	PrintFig14(&b, []Fig14Point{{Scheme: "s", EpochSize: 10, NormCycles: 1, NormBytes: 1}})
	PrintFig15(&b, []Fig15Row{{Scheme: "s", Walker: true}})
	PrintFig16(&b, Fig16Result{NormCyclesNoBuffer: 1.4, BufferHitRate: 0.7})
	PrintFig17(&b, nil)
	cfg := sim.DefaultConfig()
	PrintConfig(&b, &cfg)
	PrintSuperBlock(&b, SuperBlockResult{SideBandBytesLine: 100, SideBandBytesSuper: 25})
	PrintWalker(&b, WalkerAblation{})
	out := b.String()
	for _, want := range []string{"t", "Fig 13", "Fig 14", "Fig 15", "Fig 16", "Fig 17", "Table II", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printer output missing %q", want)
		}
	}
}

func TestScale256Shape(t *testing.T) {
	pts, err := Scale256(Smoke, []int{64}, []string{"oltp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2 (PiCL-L2 + NVOverlay)", len(pts))
	}
	var nvo, picl Scale256Point
	for _, p := range pts {
		if p.Cores != 64 || p.VDs != 32 || p.OMCs != 16 {
			t.Fatalf("layout %+v, want 64 cores / 32 VDs / 16 OMCs", p)
		}
		if p.Workload != "oltp" || p.Accesses == 0 || p.Cycles == 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		switch p.Scheme {
		case "NVOverlay":
			nvo = p
		case "PiCL-L2":
			picl = p
		}
	}
	// The sweep's reason to exist: NVOverlay's distributed epochs keep it
	// near the ideal while PiCL-L2's L2-walk traffic grows with the machine.
	if nvo.NormCycles < 0.95 || nvo.NormCycles > 3.0 {
		t.Fatalf("NVOverlay = %.2fx ideal, want near 1", nvo.NormCycles)
	}
	if picl.NormCycles <= nvo.NormCycles {
		t.Fatalf("PiCL-L2 (%.2fx) not slower than NVOverlay (%.2fx)", picl.NormCycles, nvo.NormCycles)
	}
}

// TestScale256FullDirectory runs the 256-core grid point, which carries
// both the 128-VD and the 256-VD (1 core/VD) layouts — the latter fills
// the sharer directory's full 256-domain capacity.
func TestScale256FullDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("256-core cells; skipped in -short")
	}
	pts, err := Scale256(Smoke, []int{256}, []string{"social"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4 (two layouts x two schemes)", len(pts))
	}
	vds := map[int]bool{}
	for _, p := range pts {
		vds[p.VDs] = true
		if p.Cycles == 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	if !vds[128] || !vds[256] {
		t.Fatalf("VD layouts %v, want both 128 and 256", vds)
	}
}
