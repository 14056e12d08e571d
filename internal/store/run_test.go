package store

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
)

// TestStoreRunUnderNAKFaults: under NAK faults a retried OMC genesis write
// can drain another while NVOverlay is built (seed 7 at Smoke does). The
// store-backed run attaches its file plane before construction, so the
// drained record reaches the store and salvage restores an epoch.
func TestStoreRunUnderNAKFaults(t *testing.T) {
	sc := experiments.Smoke
	sc.FaultClass = "nak"
	sc.Seed = 7
	sc.MaxAccesses = 20_000
	dir := t.TempDir()
	if _, err := Run("NVOverlay", "hashtable", sc, nil, dir); err != nil {
		t.Fatal(err)
	}
	if _, rep, err := SalvageDir(fault.OS, dir); err != nil || rep.RestoredEpoch == 0 {
		t.Fatalf("salvage of the store: restored epoch %d, %v", rep.RestoredEpoch, err)
	}
}
