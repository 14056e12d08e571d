package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

const goldenRecoveryFile = "testdata/golden/recovery.txt"

// smokeExport runs hashtable at Smoke over NVOverlay with retention and
// returns the group's snapshot archive: the master image plus every
// retained epoch delta, in Export's byte order.
func smokeExport(t *testing.T) []byte {
	cfg := sim.DefaultConfig()
	cfg.EpochSize = Smoke.EpochSize
	Smoke.Machine(&cfg)
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
	var b bytes.Buffer
	if err := nvo.Group().Export(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRecoveryOutputsGolden locks the recovery paths the scheme golden
// does not reach: the byte-exact snapshot archive of a retained smoke run,
// and the salvage verdict of every point of two small crash sweeps, nvm
// and disk (every fault class x 4 seeds x the default 8 cuts plus the
// full-length cut). The disk sweep judges each cut twice, so both crash
// states get a tally.
func TestRecoveryOutputsGolden(t *testing.T) {
	var got strings.Builder
	exp := smokeExport(t)
	fmt.Fprintf(&got, "export hashtable/smoke bytes=%d sha256=%x\n", len(exp), sha256.Sum256(exp))

	res, err := diffcheck.RunSweep(context.Background(), diffcheck.SweepParams{
		Classes: diffcheck.ParseClasses(diffcheck.LayerNVM),
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
	fmt.Fprintf(&got, "sweep nvm cells=%d faults=%d schedule=%x points=%x\n",
		res.Cells, res.Faults, sha256.Sum256([]byte(res.Schedule)), pts.Sum(nil))
	tl := res.PowerLoss
	fmt.Fprintf(&got, "tally states=%d restored=%d walked_back=%d refused=%d\n",
		tl.States, tl.Restored, tl.WalkedBack, tl.Refused)

	res, err = diffcheck.RunSweep(context.Background(), diffcheck.SweepParams{
		Classes: diffcheck.ParseClasses(diffcheck.LayerDisk),
		Seeds:   []int64{1, 2, 3, 4},
		Cuts:    8,
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts = sha256.New()
	for _, pt := range res.Points {
		fmt.Fprintf(pts, "%+v\n", pt)
	}
	fmt.Fprintf(&got, "sweep disk cells=%d faults=%d wounded=%d schedule=%x points=%x\n",
		res.Cells, res.Faults, res.Wounded, sha256.Sum256([]byte(res.Schedule)), pts.Sum(nil))
	pl, pd := res.PowerLoss, res.ProcessDeath
	fmt.Fprintf(&got, "tally power-loss states=%d restored=%d walked_back=%d refused=%d"+
		" process-death states=%d restored=%d walked_back=%d refused=%d\n",
		pl.States, pl.Restored, pl.WalkedBack, pl.Refused,
		pd.States, pd.Restored, pd.WalkedBack, pd.Refused)

	compareGolden(t, goldenRecoveryFile, got.String())
}
