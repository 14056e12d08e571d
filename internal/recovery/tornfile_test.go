package recovery_test

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/recovery"
	"repro/internal/store"
)

// buildStore writes a complete soak store in-process and returns its
// directory plus golden images. CheckpointEvery 5 leaves a mixed layout
// at completion — base checkpoint, two sealed delta segments, one empty
// active segment — so every file class exists to corrupt:
//
//	MANIFEST  checkpoint-000009.img  delta-0000{10,11,12}.log
//
// (12 seals total: 6 epochs x 2 members; checkpoints after seals 5 and
// 10; epoch 6 is sealed by segments 10 and 11.)
func buildStore(t *testing.T) (string, map[uint64]*mem.Table[uint64]) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	p := store.SoakParams{Dir: dir, Seed: 7, Epochs: 6, PerEpoch: 24, CheckpointEvery: 5}
	if err := store.WriteSoak(fault.OS, p, nil); err != nil {
		t.Fatalf("WriteSoak: %v", err)
	}
	return dir, store.SoakGolden(p)
}

// storeFiles classifies the directory: checkpoint, sealed delta segments
// (ascending), and the active (highest-numbered) segment.
func storeFiles(t *testing.T, dir string) (ckpt string, sealed []string, active string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "checkpoint-"):
			ckpt = name
		case strings.HasPrefix(name, "delta-"):
			deltas = append(deltas, name)
		}
	}
	sort.Strings(deltas)
	if len(deltas) == 0 || ckpt == "" {
		t.Fatalf("unexpected store layout: %v", entries)
	}
	return ckpt, deltas[:len(deltas)-1], deltas[len(deltas)-1]
}

func truncateFile(t *testing.T, path string, cut int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= cut {
		t.Fatalf("%s too small (%d bytes) to cut %d", path, fi.Size(), cut)
	}
	if err := os.Truncate(path, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}
}

func flipFileBit(t *testing.T, path string, byteOff int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) <= byteOff {
		byteOff = int64(len(raw)) / 2
	}
	raw[byteOff] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTornFileCorruption mutilates one on-disk artifact per case and
// checks the salvage-or-refuse contract holds across a cold reopen:
// either an older epoch is restored byte-identical to golden, or the
// typed error matches the damage class and the report names it.
func TestTornFileCorruption(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(t *testing.T, dir string)
		want    error  // nil: salvage must succeed
		epoch   uint64 // exact restored epoch when want == nil (0: any)
		kind    string // damage kind that must appear in the report
		refused bool
	}{
		{
			// Tear the last sealed segment mid-record, losing half its
			// records: member 1's epoch-6 seal can no longer be proven, the
			// claim drops to the epoch both members still prove, and salvage
			// walks the store back to epoch 5.
			name: "truncate-sealed-delta-mid-record",
			mutate: func(t *testing.T, dir string) {
				_, sealed, _ := storeFiles(t, dir)
				path := filepath.Join(dir, sealed[len(sealed)-1])
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				truncateFile(t, path, fi.Size()/2+3) // mid-record, mid-file
			},
			want:  nil,
			epoch: 5,
			kind:  "file-segment-torn",
		},
		{
			// Tear only the trailing seal record: every delta record of the
			// segment survives, so the full final epoch is still provable —
			// the tear is reported but costs nothing.
			name: "truncate-sealed-delta-seal-record",
			mutate: func(t *testing.T, dir string) {
				_, sealed, _ := storeFiles(t, dir)
				truncateFile(t, filepath.Join(dir, sealed[len(sealed)-1]), 11)
			},
			want:  nil,
			epoch: 6,
			kind:  "file-segment-torn",
		},
		{
			name: "delete-sealed-delta-segment",
			mutate: func(t *testing.T, dir string) {
				_, sealed, _ := storeFiles(t, dir)
				if err := os.Remove(filepath.Join(dir, sealed[len(sealed)-1])); err != nil {
					t.Fatal(err)
				}
			},
			want:  nil,
			epoch: 5,
			kind:  "file-segment-missing",
		},
		{
			name: "flip-bit-in-manifest",
			mutate: func(t *testing.T, dir string) {
				flipFileBit(t, filepath.Join(dir, "MANIFEST"), 20)
			},
			want:    recovery.ErrUnrecoverable,
			kind:    "file-manifest-corrupt",
			refused: true,
		},
		{
			name: "delete-manifest",
			mutate: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
					t.Fatal(err)
				}
			},
			want:    recovery.ErrUnrecoverable,
			kind:    "file-manifest-missing",
			refused: true,
		},
		{
			name: "delete-checkpoint-segment",
			mutate: func(t *testing.T, dir string) {
				ckpt, _, _ := storeFiles(t, dir)
				if err := os.Remove(filepath.Join(dir, ckpt)); err != nil {
					t.Fatal(err)
				}
			},
			want:    recovery.ErrTornEpoch,
			kind:    "file-checkpoint-missing",
			refused: true,
		},
		{
			name: "flip-bit-in-checkpoint",
			mutate: func(t *testing.T, dir string) {
				ckpt, _, _ := storeFiles(t, dir)
				flipFileBit(t, filepath.Join(dir, ckpt), 4096)
			},
			want:    recovery.ErrChecksum,
			kind:    "file-checkpoint-corrupt",
			refused: true,
		},
		{
			// A stale temp file from an interrupted rename is evidence, not
			// damage: the published manifest never referenced it.
			name: "stale-temp-from-interrupted-rename",
			mutate: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "MANIFEST.tmp"), []byte("garbage half-written"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want:  nil,
			epoch: 6,
			kind:  "file-stale-temp",
		},
		{
			// Garbage appended to the active segment models a torn tail
			// write: the valid prefix (here empty) still replays and the
			// sealed state is untouched.
			name: "garbage-tail-on-active-segment",
			mutate: func(t *testing.T, dir string) {
				_, _, active := storeFiles(t, dir)
				f, err := os.OpenFile(filepath.Join(dir, active), os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("torn tail bytes that are not a record")); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			},
			want:  nil,
			epoch: 6,
			kind:  "file-active-torn",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, golden := buildStore(t)
			tc.mutate(t, dir)
			out, rep, err := store.SalvageDir(fault.OS, dir)
			if tc.want != nil {
				if err == nil {
					t.Fatalf("salvage succeeded (restored %d), want %v", rep.RestoredEpoch, tc.want)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("error %v, want %v", err, tc.want)
				}
				if tc.refused && !rep.Refused {
					t.Fatal("refusal not marked in report")
				}
				if !rep.NonEmpty() {
					t.Fatal("refusal carries no findings")
				}
			} else {
				if err != nil {
					t.Fatalf("salvage failed: %v (report %+v)", err, rep)
				}
				if tc.epoch != 0 && rep.RestoredEpoch != tc.epoch {
					t.Fatalf("restored epoch %d, want %d", rep.RestoredEpoch, tc.epoch)
				}
				if verr := recovery.Verify(out, golden[rep.RestoredEpoch]); verr != nil {
					t.Fatalf("restored image diverges from golden: %v", verr)
				}
			}
			if tc.kind != "" {
				found := false
				for _, d := range rep.Damage {
					if d.Kind == tc.kind {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("damage kind %q missing from report: %+v", tc.kind, rep.Damage)
				}
			}
		})
	}
}

// TestSalvageDirCleanStore: the zero-damage path — a cleanly closed store
// restores its final epoch with an empty damage list and the manifest's
// sealed epoch surfaced in the report.
func TestSalvageDirCleanStore(t *testing.T) {
	dir, golden := buildStore(t)
	out, rep, err := store.SalvageDir(fault.OS, dir)
	if err != nil {
		t.Fatalf("SalvageDir: %v", err)
	}
	if rep.RestoredEpoch != 6 || rep.StoreSealedEpoch != 6 {
		t.Fatalf("restored %d / store sealed %d, want 6/6", rep.RestoredEpoch, rep.StoreSealedEpoch)
	}
	if len(rep.Damage) != 0 {
		t.Fatalf("clean store reported damage: %+v", rep.Damage)
	}
	if err := recovery.Verify(out, golden[6]); err != nil {
		t.Fatalf("clean store diverges from golden: %v", err)
	}
}

// TestSalvageDirEmptyDir: an empty directory refuses like an empty image.
func TestSalvageDirEmptyDir(t *testing.T) {
	_, rep, err := store.SalvageDir(fault.OS, t.TempDir())
	if !errors.Is(err, recovery.ErrUnrecoverable) {
		t.Fatalf("error %v, want ErrUnrecoverable", err)
	}
	if !rep.NonEmpty() {
		t.Fatal("refusal carries no findings")
	}
	// LoadDir treats words durable only once flushed; the plane's RAM
	// mirror is irrelevant to a cold open. Salvage must therefore report
	// the image-level genesis-missing refusal, not a file-level fatal.
	if !rep.Refused {
		t.Fatal("refusal not marked")
	}
	_ = store.FileFormatVersion // anchor: format version is part of the contract
}
