package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
)

// applyBurst writes a deterministic burst pattern for epoch e.
func applyBurst(p mem.DurablePlane, e uint64, n int) {
	for i := 0; i < n; i++ {
		addr := uint64(i%7) << 12
		p.Apply(addr, []uint64{e<<32 | uint64(i), e ^ uint64(i)})
	}
}

func openTestPlane(t *testing.T, every int) (*FilePlane, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	p, err := OpenFilePlane(fault.OS, dir, every)
	if err != nil {
		t.Fatalf("OpenFilePlane: %v", err)
	}
	return p, dir
}

func reload(t *testing.T, dir string) (*mem.Image, *DirReport) {
	t.Helper()
	img, rep, err := LoadDir(fault.OS, dir)
	if err != nil {
		t.Fatalf("LoadDir: %v (report %+v)", err, rep)
	}
	return img, rep
}

func imagesEqual(t *testing.T, got, want *mem.Image) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("image length %d, want %d", got.Len(), want.Len())
	}
	for _, a := range want.SortedAddrs() {
		w, _ := want.Word(a)
		g, ok := got.Word(a)
		if !ok || g != w {
			t.Fatalf("word %#x: got %#x (present %v), want %#x", a, g, ok, w)
		}
	}
}

// TestFilePlaneRoundTrip seals a few epochs, closes, and reopens the
// directory cold: the replayed image must equal the live snapshot
// (Close flushes the active segment, so even unsealed trailing writes
// survive a clean shutdown).
func TestFilePlaneRoundTrip(t *testing.T) {
	p, dir := openTestPlane(t, DefaultCheckpointEvery)
	for e := uint64(1); e <= 3; e++ {
		applyBurst(p, e, 10)
		p.SealEpoch(e)
	}
	applyBurst(p, 4, 3) // unsealed tail
	want := p.Snapshot()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	img, rep := reload(t, dir)
	imagesEqual(t, img, want)
	if rep.SealedEpoch != 3 {
		t.Fatalf("sealed epoch %d, want 3", rep.SealedEpoch)
	}
	if rep.Segments != 3 {
		t.Fatalf("replayed %d sealed segments, want 3", rep.Segments)
	}
	if rep.ActiveRecords != 3 {
		t.Fatalf("replayed %d active records, want 3", rep.ActiveRecords)
	}
	if len(rep.Damage) != 0 {
		t.Fatalf("unexpected damage: %+v", rep.Damage)
	}
}

// TestFilePlaneCheckpoint verifies base-image compaction: with a
// checkpoint every 2 seals, old delta segments are deleted once the
// manifest stops referencing them, and a cold reload still reproduces
// the full image from checkpoint + remaining deltas.
func TestFilePlaneCheckpoint(t *testing.T) {
	p, dir := openTestPlane(t, 2)
	for e := uint64(1); e <= 5; e++ {
		applyBurst(p, e, 12)
		p.SealEpoch(e)
	}
	want := p.Snapshot()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Seals 1..5 with checkpoints after 2 and 4: segments 0..3 compacted
	// away, segment 4 sealed, segment 5 active.
	for _, gone := range []string{DeltaFileName(0), DeltaFileName(3), CheckpointFileName(1)} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("%s should have been compacted away (err %v)", gone, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, CheckpointFileName(3))); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	img, rep := reload(t, dir)
	imagesEqual(t, img, want)
	if rep.CheckpointSeq != 3 {
		t.Fatalf("checkpoint seq %d, want 3", rep.CheckpointSeq)
	}
	if rep.SealedEpoch != 5 {
		t.Fatalf("sealed epoch %d, want 5", rep.SealedEpoch)
	}
}

// TestOpenFilePlaneRefusesExistingStore: writers only ever start fresh.
func TestOpenFilePlaneRefusesExistingStore(t *testing.T) {
	p, dir := openTestPlane(t, DefaultCheckpointEvery)
	p.SealEpoch(1)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := OpenFilePlane(fault.OS, dir, DefaultCheckpointEvery); err == nil {
		t.Fatal("OpenFilePlane reopened a non-empty store")
	}
}

// TestLoadDirYoungRun: a store killed before its first seal has no
// manifest, only delta-000000.log; the valid prefix is replayed.
func TestLoadDirYoungRun(t *testing.T) {
	p, dir := openTestPlane(t, DefaultCheckpointEvery)
	applyBurst(p, 1, 5)
	want := p.Snapshot()
	if err := p.Close(); err != nil { // flush without seal: no manifest yet
		t.Fatalf("Close: %v", err)
	}
	img, rep := reload(t, dir)
	imagesEqual(t, img, want)
	if rep.SealedEpoch != 0 || rep.Segments != 0 {
		t.Fatalf("young run misread: %+v", rep)
	}
}

// TestLoadDirMissing: a nonexistent directory is a fatal store-missing.
func TestLoadDirMissing(t *testing.T) {
	_, rep, err := LoadDir(fault.OS, filepath.Join(t.TempDir(), "nope"))
	if err == nil {
		t.Fatal("LoadDir succeeded on a missing directory")
	}
	if rep.Fatal != "store-missing" {
		t.Fatalf("fatal %q, want store-missing", rep.Fatal)
	}
}
