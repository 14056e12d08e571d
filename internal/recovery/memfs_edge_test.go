package recovery_test

import (
	"errors"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/recovery"
	"repro/internal/store"
)

// buildMemStore writes a complete soak store onto an in-memory filesystem
// (same shape as buildStore: checkpoint + two sealed segments + empty
// active segment) so edge cases that are awkward to stage on a real disk —
// zero-length files, vanished directories — are one map mutation away.
func buildMemStore(t *testing.T) (*fault.MemFS, string, map[uint64]*mem.Table[uint64]) {
	t.Helper()
	mfs := fault.NewMemFS()
	p := store.SoakParams{Dir: "store", Seed: 7, Epochs: 6, PerEpoch: 24, CheckpointEvery: 5}
	if err := store.WriteSoak(mfs, p, nil); err != nil {
		t.Fatalf("WriteSoak: %v", err)
	}
	return mfs, p.Dir, store.SoakGolden(p)
}

// memStoreFiles classifies the store: checkpoint, sealed delta segments
// (ascending) and the active (highest-numbered) segment.
func memStoreFiles(t *testing.T, mfs *fault.MemFS, dir string) (ckpt string, sealed []string, active string) {
	t.Helper()
	names, err := mfs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []string
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "checkpoint-"):
			ckpt = name
		case strings.HasPrefix(name, "delta-"):
			deltas = append(deltas, name)
		}
	}
	sort.Strings(deltas)
	if len(deltas) < 2 || ckpt == "" {
		t.Fatalf("unexpected store layout: %v", names)
	}
	return ckpt, deltas[:len(deltas)-1], deltas[len(deltas)-1]
}

// zeroLen truncates a file to zero length in the current namespace (Create
// replaces the content, like O_TRUNC).
func zeroLen(t *testing.T, mfs *fault.MemFS, path string) {
	t.Helper()
	f, err := mfs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeBytes creates path holding exactly b.
func writeBytes(t *testing.T, mfs *fault.MemFS, path string, b []byte) {
	t.Helper()
	f, err := mfs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDirEdgeCases stages the degenerate directory shapes a crashed or
// misbehaving filesystem can leave behind and pins, for each, the exact
// DirReport damage kind AND the salvage-or-refuse outcome: walk back to a
// provable epoch, restore in full, or refuse with the matching typed error.
func TestLoadDirEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		// mutate stages the edge case and returns the directory to salvage.
		mutate func(t *testing.T, mfs *fault.MemFS, dir string) string
		// dirKind is the exact FileDamage.Kind LoadDir must report
		// ("": the damage list must be empty).
		dirKind string
		fatal   string // expected DirReport.Fatal ("": not fatal)
		want    error  // expected typed refusal (nil: salvage must succeed)
		epoch   uint64 // exact restored epoch when want == nil
	}{
		{
			// A sealed segment truncated to zero bytes: its seal record is
			// gone, the final epoch can no longer be proven, salvage walks
			// back to the epoch the surviving segments still prove.
			name: "zero-length-sealed-delta",
			mutate: func(t *testing.T, mfs *fault.MemFS, dir string) string {
				_, sealed, _ := memStoreFiles(t, mfs, dir)
				zeroLen(t, mfs, filepath.Join(dir, sealed[len(sealed)-1]))
				return dir
			},
			dirKind: "segment-unsealed",
			epoch:   5,
		},
		{
			// The active segment at zero length is the cleanest kill shape
			// there is: nothing unsealed was in flight, nothing to report.
			name: "zero-length-active-delta",
			mutate: func(t *testing.T, mfs *fault.MemFS, dir string) string {
				_, _, active := memStoreFiles(t, mfs, dir)
				zeroLen(t, mfs, filepath.Join(dir, active))
				return dir
			},
			dirKind: "",
			epoch:   6,
		},
		{
			// A zero-length manifest temp is an interrupted atomic publish
			// caught before any byte landed: the published MANIFEST was never
			// touched, so the temp is evidence only.
			name: "zero-length-manifest-temp",
			mutate: func(t *testing.T, mfs *fault.MemFS, dir string) string {
				zeroLen(t, mfs, filepath.Join(dir, "MANIFEST.tmp"))
				return dir
			},
			dirKind: "stale-temp",
			epoch:   6,
		},
		{
			// Rename target already exists: a later manifest publish died
			// between writing its temp and renaming it, so MANIFEST (valid,
			// older) and MANIFEST.tmp (garbage) coexist. The loader must
			// trust only the published name.
			name: "rename-target-exists",
			mutate: func(t *testing.T, mfs *fault.MemFS, dir string) string {
				writeBytes(t, mfs, filepath.Join(dir, "MANIFEST.tmp"),
					[]byte("half-written next manifest"))
				return dir
			},
			dirKind: "stale-temp",
			epoch:   6,
		},
		{
			// A sealed segment vanished entirely (directory entry lost):
			// replay truncates at the hole rather than building an image of
			// words that never coexisted.
			name: "sealed-segment-vanished",
			mutate: func(t *testing.T, mfs *fault.MemFS, dir string) string {
				_, sealed, _ := memStoreFiles(t, mfs, dir)
				if err := mfs.Remove(filepath.Join(dir, sealed[len(sealed)-1])); err != nil {
					t.Fatal(err)
				}
				return dir
			},
			dirKind: "segment-missing",
			epoch:   5,
		},
		{
			// The manifest references a checkpoint whose file is gone: no
			// trustworthy base image exists and the refusal is typed as a
			// torn epoch (durable state lost whole).
			name: "checkpoint-vanished",
			mutate: func(t *testing.T, mfs *fault.MemFS, dir string) string {
				ckpt, _, _ := memStoreFiles(t, mfs, dir)
				if err := mfs.Remove(filepath.Join(dir, ckpt)); err != nil {
					t.Fatal(err)
				}
				return dir
			},
			dirKind: "checkpoint-missing",
			fatal:   "checkpoint-missing",
			want:    recovery.ErrTornEpoch,
		},
		{
			// The directory the manifest discipline built simply is not
			// there any more — wrong mount, deleted tree. Refuse, typed.
			name: "store-directory-missing",
			mutate: func(t *testing.T, mfs *fault.MemFS, dir string) string {
				return dir + "-gone"
			},
			dirKind: "store-missing",
			fatal:   "store-missing",
			want:    recovery.ErrUnrecoverable,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mfs, dir, golden := buildMemStore(t)
			dir = tc.mutate(t, mfs, dir)

			// File layer: the DirReport must name the exact damage kind.
			_, drep, lerr := store.LoadDir(mfs, dir)
			if tc.dirKind == "" {
				if len(drep.Damage) != 0 {
					t.Fatalf("unexpected file damage: %+v", drep.Damage)
				}
			} else {
				found := false
				for _, d := range drep.Damage {
					if d.Kind == tc.dirKind {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("damage kind %q missing from DirReport: %+v", tc.dirKind, drep.Damage)
				}
			}
			if drep.Fatal != tc.fatal {
				t.Fatalf("DirReport.Fatal = %q, want %q", drep.Fatal, tc.fatal)
			}
			if (tc.fatal != "") != (lerr != nil) {
				t.Fatalf("LoadDir error %v inconsistent with fatal %q", lerr, tc.fatal)
			}

			// Full stack: salvage-or-refuse through the same filesystem.
			out, rep, err := store.SalvageDir(mfs, dir)
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("error %v, want %v", err, tc.want)
				}
				if !rep.Refused || !rep.NonEmpty() {
					t.Fatalf("refusal unmarked or without findings: %+v", rep)
				}
				return
			}
			if err != nil {
				t.Fatalf("salvage failed: %v (report %+v)", err, rep)
			}
			if rep.RestoredEpoch != tc.epoch {
				t.Fatalf("restored epoch %d, want %d", rep.RestoredEpoch, tc.epoch)
			}
			if verr := recovery.Verify(out, golden[rep.RestoredEpoch]); verr != nil {
				t.Fatalf("restored image diverges from golden: %v", verr)
			}
		})
	}
}
