package mem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"strings"

	"repro/internal/fault"
)

// FileDamage records one piece of evidence LoadDir found while replaying a
// store directory cold. Kinds mirror the image-level salvage damage
// vocabulary but are file-scoped; recovery.SalvageDir prefixes them with
// "file-" when merging into a SalvageReport.
type FileDamage struct {
	Kind string `json:"kind"`
	Path string `json:"path"`
	Note string `json:"note"`
}

// DirReport summarises a cold replay of a store directory.
type DirReport struct {
	// SealedEpoch is the newest epoch the manifest claims durable (0 when
	// no manifest was found).
	SealedEpoch uint64 `json:"sealed_epoch"`
	// CheckpointSeq is the base checkpoint sequence replayed (-1: none).
	CheckpointSeq int `json:"checkpoint_seq"`
	// Segments counts delta segments fully replayed (seal record seen).
	Segments int `json:"segments"`
	// ActiveRecords counts valid records replayed from the unsealed
	// active segment's prefix.
	ActiveRecords int `json:"active_records"`
	// Truncated reports that replay stopped early at damaged or missing
	// sealed state; words after the stop point are absent from the image
	// and image-level salvage decides how far to walk back.
	Truncated bool `json:"truncated"`
	// Fatal names the damage kind that prevented building any image at
	// all (manifest or base checkpoint unusable); empty on success.
	Fatal string `json:"fatal,omitempty"`
	// Damage lists everything abnormal in the directory.
	Damage []FileDamage `json:"damage,omitempty"`
}

func (r *DirReport) addDamage(kind, path, note string) {
	r.Damage = append(r.Damage, FileDamage{Kind: kind, Path: path, Note: note})
}

// errReplayStop marks non-fatal replay termination (torn or missing sealed
// state): the image built so far is returned and image-level salvage walks
// back to an epoch whose records fully survive.
var errReplayStop = errors.New("replay stopped")

// LoadDir opens a store directory of fsys cold — typically in a fresh
// process after the writer was killed — and replays manifest → checkpoint
// → delta segments into an Image of the persisted word array. fault.OS
// reads a real directory; the crash-consistency sweep passes the surviving
// state of an in-memory store.
//
// Damage below the manifest/checkpoint layer is never fatal here: a torn
// or missing delta segment stops replay at the last intact boundary and
// the caller's image-level salvage decides which epoch survives whole.
// Fatal returns (nil image) happen only when no trustworthy base exists:
// the manifest is corrupt, from a future format, or references a
// checkpoint that is missing or fails its digest.
func LoadDir(fsys fault.FS, dir string) (*Image, *DirReport, error) {
	rep := &DirReport{CheckpointSeq: -1}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		rep.Fatal = "store-missing"
		rep.addDamage("store-missing", dir, "cannot read store directory")
		return nil, rep, fmt.Errorf("mem: open store: %w", err)
	}
	maxDelta, haveDelta := -1, false
	haveCkpt := false
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			// An interrupted temp write: the rename never happened, so the
			// published state does not reference it. Evidence, not damage.
			rep.addDamage("stale-temp", name, "interrupted temp-file write; ignored")
			continue
		}
		if isDeltaName(name) {
			haveDelta = true
			var seq int
			if _, err := fmt.Sscanf(name, "delta-%06d.log", &seq); err == nil && seq > maxDelta {
				maxDelta = seq
			}
		}
		if isCkptName(name) {
			haveCkpt = true
		}
	}

	raw, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, iofs.ErrNotExist):
		// No manifest. A run killed before its first epoch seal legitimately
		// leaves only delta-000000.log; anything richer means the manifest
		// itself was destroyed.
		if haveCkpt || maxDelta > 0 {
			rep.Fatal = "manifest-missing"
			rep.addDamage("manifest-missing", manifestName, "sealed store state present but manifest destroyed")
			return nil, rep, errors.New("mem: manifest missing from non-empty store")
		}
		img := NewImage()
		if haveDelta {
			n, _, err := replaySegment(fsys, filepath.Join(dir, DeltaFileName(0)), img, false, rep)
			if err != nil && !errors.Is(err, errReplayStop) {
				return nil, rep, err
			}
			rep.ActiveRecords = n
		}
		return img, rep, nil
	case err != nil:
		rep.Fatal = "manifest-unreadable"
		rep.addDamage("manifest-unreadable", manifestName, err.Error())
		return nil, rep, fmt.Errorf("mem: manifest: %w", err)
	}
	if len(raw) != manifestWords*8 {
		rep.Fatal = "manifest-corrupt"
		rep.addDamage("manifest-corrupt", manifestName, fmt.Sprintf("size %d, want %d", len(raw), manifestWords*8))
		return nil, rep, errors.New("mem: manifest corrupt: bad size")
	}
	m := make([]uint64, manifestWords)
	for i := range m {
		m[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	if !ValidRecord(m, FileManifestMagic) {
		rep.Fatal = "manifest-corrupt"
		rep.addDamage("manifest-corrupt", manifestName, "checksum or magic mismatch")
		return nil, rep, errors.New("mem: manifest corrupt: checksum mismatch")
	}
	if m[1] != FileFormatVersion {
		rep.Fatal = "manifest-version"
		rep.addDamage("manifest-version", manifestName, fmt.Sprintf("format version %d, reader supports %d", m[1], FileFormatVersion))
		return nil, rep, fmt.Errorf("mem: manifest format version %d not supported", m[1])
	}
	rep.SealedEpoch = m[2]
	ckptSeq := int(m[3]) - 1
	segBase, segCount := int(m[5]), int(m[6])
	if ckptSeq > 1<<20 || segBase > 1<<20 || segCount > 1<<20 {
		rep.Fatal = "manifest-corrupt"
		rep.addDamage("manifest-corrupt", manifestName, "implausible sequence numbers")
		return nil, rep, errors.New("mem: manifest corrupt: implausible sequence numbers")
	}

	img := NewImage()
	if ckptSeq >= 0 {
		name := CheckpointFileName(ckptSeq)
		if err := replayCheckpoint(fsys, filepath.Join(dir, name), img); err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				rep.Fatal = "checkpoint-missing"
				rep.addDamage("checkpoint-missing", name, "manifest references a checkpoint that does not exist")
				return nil, rep, fmt.Errorf("mem: checkpoint missing: %w", err)
			}
			rep.Fatal = "checkpoint-corrupt"
			rep.addDamage("checkpoint-corrupt", name, err.Error())
			return nil, rep, err
		}
		rep.CheckpointSeq = ckptSeq
	}

	// Sealed segments in manifest order; damage stops replay at the last
	// intact boundary (a hole in the middle would build a frankenimage of
	// old and new words that never coexisted).
	for seq := segBase; seq < segBase+segCount; seq++ {
		name := DeltaFileName(seq)
		_, sealed, err := replaySegment(fsys, filepath.Join(dir, name), img, true, rep)
		if err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				rep.addDamage("segment-missing", name, "manifest references a sealed delta segment that does not exist")
				rep.Truncated = true
				return img, rep, nil
			}
			if errors.Is(err, errReplayStop) {
				rep.Truncated = true
				return img, rep, nil
			}
			return nil, rep, err
		}
		if !sealed {
			rep.addDamage("segment-unsealed", name, "sealed delta segment has no seal record")
			rep.Truncated = true
			return img, rep, nil
		}
		rep.Segments++
	}

	// Active segment: the writer's open log when it died. A torn tail here
	// is the expected kill -9 shape; the valid prefix still holds committed
	// (but unsealed) writes that image-level salvage may use.
	active := DeltaFileName(segBase + segCount)
	n, _, err := replaySegment(fsys, filepath.Join(dir, active), img, false, rep)
	if err != nil && !errors.Is(err, errReplayStop) && !errors.Is(err, iofs.ErrNotExist) {
		return nil, rep, err
	}
	rep.ActiveRecords = n
	return img, rep, nil
}

// replaySegment applies one delta log's valid record prefix into img.
// sealed selects strict mode: damage in a manifest-listed segment is
// reported as segment-torn and replay stops (errReplayStop); in the active
// segment a torn tail is normal kill -9 evidence (active-torn) and the
// valid prefix is kept. Returns the record count and whether a seal record
// terminated the segment.
func replaySegment(fsys fault.FS, path string, img *Image, sealed bool, rep *DirReport) (int, bool, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, false, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	name := filepath.Base(path)
	recs := 0
	sawSeal := false
	var replayErr error
	torn := func(note string) {
		if sealed {
			rep.addDamage("segment-torn", name, note)
			replayErr = errReplayStop
		} else if note != "clean end" {
			rep.addDamage("active-torn", name, note)
		}
	}
loop:
	for {
		header, err := readWords(r, 3)
		switch {
		case errors.Is(err, io.EOF):
			break loop
		case err != nil:
			torn("torn record header")
			break loop
		}
		switch header[0] {
		case FileDeltaMagic:
			addr, n := header[1], header[2]
			if n == 0 || n > maxDeltaWords || addr&7 != 0 {
				torn(fmt.Sprintf("implausible delta record (addr %#x, %d words)", addr, n))
				break loop
			}
			body, err := readWords(r, int(n)+1)
			if err != nil {
				torn(fmt.Sprintf("torn delta record body: %v", err))
				break loop
			}
			rec := append(header, body...)
			if !ValidRecord(rec, FileDeltaMagic) {
				torn("delta record checksum mismatch")
				break loop
			}
			for i, v := range body[:n] {
				img.put(addr+uint64(i*8), v)
			}
			recs++
		case FileSealMagic:
			body, err := readWords(r, 1)
			if err != nil {
				torn(fmt.Sprintf("torn seal record: %v", err))
				break loop
			}
			rec := append(header, body...)
			if !ValidRecord(rec, FileSealMagic) {
				torn("seal record checksum mismatch")
				break loop
			}
			if rec[2] != uint64(recs) {
				torn(fmt.Sprintf("seal record counts %d records, segment has %d", rec[2], recs))
				break loop
			}
			sawSeal = true
			// A seal record terminates the segment; trailing bytes would
			// mean the file was appended to after sealing. A Peek error is
			// the expected clean EOF and carries no information.
			if _, err := r.Peek(1); err == nil { //nvlint:allow errlatch a Peek error here is the expected clean EOF
				torn("bytes after seal record")
			}
			break loop
		default:
			torn(fmt.Sprintf("unknown record magic %#x", header[0]))
			break loop
		}
	}
	if err := f.Close(); err != nil && replayErr == nil {
		replayErr = err
	}
	return recs, sawSeal, replayErr
}

// replayCheckpoint loads a base image into img, verifying the header
// checksum and the running digest over all (addr, word) pairs. Any
// mismatch is an error: a checkpoint is all-or-nothing, there is no older
// state underneath it to fall back on.
func replayCheckpoint(fsys fault.FS, path string, img *Image) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	name := filepath.Base(path)
	r := bufio.NewReaderSize(f, 1<<16)
	fail := func(note string) error {
		_ = f.Close() // the corruption is the error worth reporting
		return fmt.Errorf("mem: checkpoint %s: %s", name, note)
	}
	header, err := readWords(r, 5)
	if err != nil {
		return fail(fmt.Sprintf("torn header: %v", err))
	}
	if !ValidRecord(header, FileCkptMagic) {
		return fail("header checksum mismatch")
	}
	if header[1] != FileFormatVersion {
		return fail(fmt.Sprintf("format version %d not supported", header[1]))
	}
	n := header[3]
	if n > 1<<28 {
		return fail("implausible word count")
	}
	digest := ckptDigestSeed
	for i := uint64(0); i < n; i++ {
		pair, err := readWords(r, 2)
		if err != nil {
			return fail(fmt.Sprintf("torn body: %v", err))
		}
		if pair[0]&7 != 0 {
			return fail("misaligned word address")
		}
		img.put(pair[0], pair[1])
		digest = PairMix(PairMix(digest, pair[0]), pair[1])
	}
	trailer, err := readWords(r, 1)
	if err != nil {
		return fail(fmt.Sprintf("missing digest: %v", err))
	}
	if trailer[0] != digest {
		return fail("digest mismatch")
	}
	// A Peek error here is the expected clean EOF and carries no information.
	if _, err := r.Peek(1); err == nil { //nvlint:allow errlatch a Peek error here is the expected clean EOF
		return fail("bytes after digest")
	}
	return f.Close()
}

// readWords reads exactly n little-endian uint64 words.
func readWords(r io.Reader, n int) ([]uint64, error) {
	buf := make([]byte, n*8)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return words, nil
}
