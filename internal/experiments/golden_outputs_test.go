package experiments_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestGoldenOutputs is the behaviour lock: every pinned output must
// reproduce its committed golden file byte for byte. A failure names
// every cell block and every figure line that moved.
func TestGoldenOutputs(t *testing.T) {
	t.Run("cells", func(t *testing.T) {
		experiments.CompareGolden(t, "testdata/golden/cells.txt", experiments.GoldenCells(t))
	})
	t.Run("figures", func(t *testing.T) {
		figs, err := experiments.SmokeFiguresText()
		if err != nil {
			t.Fatal(err)
		}
		experiments.CompareGolden(t, "testdata/golden/figures.txt", figs)
	})
	t.Run("events", func(t *testing.T) {
		experiments.CompareGolden(t, "testdata/golden/events.txt", goldenEvents(t))
	})
	t.Run("recovery", func(t *testing.T) {
		experiments.CompareGolden(t, "testdata/golden/recovery.txt", goldenRecovery(t))
	})
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
	cells, err := experiments.Timeline(experiments.Smoke, experiments.GoldenWorkloads, true)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(experiments.StreamLine("timeline/"+strings.Join(experiments.GoldenWorkloads, ",")+"/smoke", experiments.ConcatEvents(cells)))
	for i := 0; i < 3; i++ {
		p := diffcheck.RegimeParams(i, 1)
		sink := obs.NewJSONLSink("diffcheck")
		bus := obs.NewBus()
		bus.Attach(sink)
		res, d := diffcheck.Run(p, bus)
		if d != nil {
			t.Fatal(d.Error())
		}
		b.WriteString(experiments.StreamLine(fmt.Sprintf("diffcheck/seed=%d/%s", p.Seed,
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
	cfg := experiments.Smoke.Config()
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
	trace.NewDriver(&cfg, nvo, wl, experiments.Smoke.MaxAccesses).Run()
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
