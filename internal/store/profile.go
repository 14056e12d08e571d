package store

import (
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/sim"
)

// FilePlaneStats summarizes one file-backed durable-plane profile: a seeded
// write/seal loop against FilePlane followed by a cold LoadDir reopen
// in the same process. Every field is a deterministic function of the
// parameters — no wall-clock, no directory listing order — so the -json
// export diffs cleanly across runs and machines; wall-clock throughput for
// the same loop lives in BenchmarkFileSeal.
type FilePlaneStats struct {
	Epochs          int    `json:"epochs"`
	BurstsPerEpoch  int    `json:"bursts_per_epoch"`
	CheckpointEvery int    `json:"checkpoint_every"`
	SealedEpoch     uint64 `json:"sealed_epoch"`
	CheckpointSeq   int    `json:"checkpoint_seq"` // -1: logs only, no base image yet
	Segments        int    `json:"segments"`       // sealed delta segments layered on the checkpoint
	FilesOnDisk     int    `json:"files_on_disk"`
	BytesOnDisk     int64  `json:"bytes_on_disk"`
	WordsRestored   int    `json:"words_restored"`
	DeltaRecords    uint64 `json:"delta_records"` // bursts written across the whole run
}

// FilePlaneProfile drives the file-backed plane on fsys through epochs
// seals of perEpoch word bursts each, closes it, and cold-reopens the
// directory the way a restarted process would. dir must be fresh
// (OpenFilePlane refuses an existing store). The reopened image is checked
// against the plane's own RAM mirror before the stats are returned, so a
// profile that would publish numbers for a store that does not round-trip
// fails instead — also when BenchmarkFileSealFaulted runs it over a
// fault-injecting in-memory store to price the retry policy.
func FilePlaneProfile(fsys fault.FS, dir string, epochs, perEpoch, ckptEvery int, seed int64) (FilePlaneStats, error) {
	plane, err := OpenFilePlane(fsys, dir, ckptEvery)
	if err != nil {
		return FilePlaneStats{}, err
	}
	rng := sim.NewRNG(seed)
	var records uint64
	burst := make([]uint64, 4)
	for e := 1; e <= epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			// Cache-line-aligned bursts over a 1 MB span: wide enough that
			// checkpoints stay much larger than one epoch's delta log.
			addr := rng.Uint64n(1<<14) << 6
			for j := range burst {
				burst[j] = rng.Uint64()
			}
			plane.Apply(addr, burst)
			records++
		}
		plane.SealEpoch(uint64(e))
	}
	golden := plane.Snapshot()
	if err := plane.Close(); err != nil {
		return FilePlaneStats{}, err
	}

	img, drep, err := LoadDir(fsys, dir)
	if err != nil {
		return FilePlaneStats{}, err
	}
	if drep.Fatal != "" || drep.Truncated || len(drep.Damage) > 0 {
		return FilePlaneStats{}, fmt.Errorf("fileplane profile: clean store reopened with damage: %+v", drep)
	}
	if img.Len() != golden.Len() {
		return FilePlaneStats{}, fmt.Errorf("fileplane profile: reopened %d words, wrote %d", img.Len(), golden.Len())
	}
	for _, addr := range golden.SortedAddrs() {
		want, _ := golden.Word(addr)
		if got, ok := img.Word(addr); !ok || got != want {
			return FilePlaneStats{}, fmt.Errorf("fileplane profile: word %#x diverged after reopen", addr)
		}
	}

	st := FilePlaneStats{
		Epochs:          epochs,
		BurstsPerEpoch:  perEpoch,
		CheckpointEvery: ckptEvery,
		SealedEpoch:     drep.SealedEpoch,
		CheckpointSeq:   drep.CheckpointSeq,
		Segments:        drep.Segments,
		WordsRestored:   img.Len(),
		DeltaRecords:    records,
	}
	// The FS seam has no Stat; sizing by reading is fine here — LoadDir just
	// read every byte of the store anyway, so the pages are warm.
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return FilePlaneStats{}, err
	}
	for _, name := range names {
		raw, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return FilePlaneStats{}, err
		}
		st.FilesOnDisk++
		st.BytesOnDisk += int64(len(raw))
	}
	return st, nil
}

// PrintFilePlane renders the profile in nvbench's table style.
func PrintFilePlane(w io.Writer, st FilePlaneStats) {
	fmt.Fprintf(w, "\n== fileplane: durable store profile (%d epochs x %d bursts, checkpoint every %d) ==\n",
		st.Epochs, st.BurstsPerEpoch, st.CheckpointEvery)
	fmt.Fprintf(w, "  sealed epoch    %d\n", st.SealedEpoch)
	fmt.Fprintf(w, "  delta records   %d\n", st.DeltaRecords)
	fmt.Fprintf(w, "  words restored  %d (cold reopen, verified)\n", st.WordsRestored)
	fmt.Fprintf(w, "  on disk         %d files, %d bytes (checkpoint seq %d + %d sealed segments)\n",
		st.FilesOnDisk, st.BytesOnDisk, st.CheckpointSeq, st.Segments)
}
