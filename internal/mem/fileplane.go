package mem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/obs"
)

// File-backed durable plane: an append/checkpoint on-disk format with
// manifest discipline, modelled on LSM manifest/WAL layering (NoKV) and
// CoW base-image + delta overlays (dh-cli). The directory holds
//
//   - MANIFEST — one fixed-size checksummed record naming the durable
//     state: newest sealed epoch, the base checkpoint (if any) and the
//     contiguous range of sealed delta segments layered on top of it.
//     Every epoch seal rewrites it atomically: write MANIFEST.tmp, fsync
//     the file, rename over MANIFEST, fsync the parent directory.
//   - delta-NNNNNN.log — append-only word-burst records (the committed
//     NVM writes of one seal interval), terminated by a seal record. The
//     segment is fsynced before the manifest lists it; the highest-
//     numbered segment is the active one and may have a torn tail after
//     kill -9.
//   - checkpoint-NNNNNN.img — a full base image written every
//     CheckpointEvery seals so unchanged words are shared across epochs
//     on disk instead of replayed from ever-growing logs. Superseded
//     segments and checkpoints are deleted only after the manifest that
//     stops referencing them is durable.
//
// All records reuse the repository's checksummed word-record encoding
// (RecordCheck / ValidRecord), serialised little-endian.
//
// Every filesystem operation goes through the fault.FS seam: production
// runs over fault.OS, the crash-consistency sweep over a MemFS wrapped in
// a FaultFS. Transient write faults are absorbed by retryFile (retry.go);
// any permanent write-path failure wounds the plane (ErrPlaneWounded):
// writes stop, the RAM mirror and everything already sealed stay readable.
const (
	// FileFormatVersion is the manifest schema version.
	FileFormatVersion = 1

	// FileManifestMagic marks the manifest record ("NVO-MFS1").
	FileManifestMagic uint64 = 0x4e564f2d4d465331
	// FileCkptMagic marks a checkpoint header ("NVO-CKP1").
	FileCkptMagic uint64 = 0x4e564f2d434b5031
	// FileDeltaMagic marks a delta-log word-burst record ("NVO-DLT1").
	FileDeltaMagic uint64 = 0x4e564f2d444c5431
	// FileSealMagic marks a delta-segment seal record ("NVO-SSL1").
	FileSealMagic uint64 = 0x4e564f2d53534c31

	// manifestWords is the manifest record size: [magic, version,
	// sealedEpoch, ckptSeq+1, ckptEpoch, segBase, segCount, check].
	manifestWords = 8

	// maxDeltaWords bounds one Apply burst on disk; anything larger in a
	// record header is corruption, not data.
	maxDeltaWords = 1 << 16

	// DefaultCheckpointEvery is the checkpoint cadence (epoch seals per
	// base-image rewrite) of the store a run with sim.Config.StoreDir
	// writes; nvbench -exp fileplane uses it too.
	DefaultCheckpointEvery = 8

	manifestName = "MANIFEST"
	manifestTemp = "MANIFEST.tmp"
)

// ckptDigestSeed seeds the running digest over checkpoint (addr, word)
// pairs ("CKPTSUM1").
const ckptDigestSeed uint64 = 0x434b505453554d31

// DeltaFileName returns the delta segment file name for a sequence number.
func DeltaFileName(seq int) string { return fmt.Sprintf("delta-%06d.log", seq) }

// CheckpointFileName returns the checkpoint file name for a sequence number.
func CheckpointFileName(seq int) string { return fmt.Sprintf("checkpoint-%06d.img", seq) }

// FilePlane is the file-backed DurablePlane implementation. It keeps the
// live word array in RAM (Snapshot stays cheap) and mirrors every
// committed burst into the active delta segment.
type FilePlane struct {
	fsys fault.FS
	dir  string
	ram  *RAMPlane

	seg       *retryFile
	w         *bufio.Writer
	seq       int // active segment sequence number
	segBase   int // first sealed segment still referenced
	segCount  int // sealed segments in [segBase, segBase+segCount)
	recsInSeg uint64

	ckptSeq        int // -1: no checkpoint yet
	ckptEpoch      uint64
	ckptEvery      int
	sealsSinceCkpt int
	sealedEpoch    uint64

	err  error
	hook func(point string, epoch uint64)

	bus *obs.Bus // nil when unobserved

	scratch []byte
}

// OpenFilePlane creates a fresh durable store in dir (created if needed)
// of fsys; production runs pass fault.OS. It refuses a directory that
// already holds a manifest or delta segments: writers always start clean,
// recovery of an old store goes through LoadDir / recovery.SalvageDir.
// checkpointEvery is the number of epoch seals per base-image rewrite.
func OpenFilePlane(fsys fault.FS, dir string, checkpointEvery int) (*FilePlane, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("mem: store dir: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("mem: store dir: %w", err)
	}
	for _, name := range names {
		switch {
		case name == manifestName, isDeltaName(name), isCkptName(name):
			return nil, fmt.Errorf("mem: store dir %s already holds %s; refusing to overwrite an existing store", dir, name)
		}
	}
	p := &FilePlane{
		fsys:      fsys,
		dir:       dir,
		ram:       NewRAMPlane(),
		seq:       0,
		ckptSeq:   -1,
		ckptEvery: checkpointEvery,
		scratch:   make([]byte, 8),
	}
	if err := p.openSegment(); err != nil {
		return nil, err
	}
	return p, nil
}

func isDeltaName(name string) bool {
	var seq int
	_, err := fmt.Sscanf(name, "delta-%06d.log", &seq)
	return err == nil && filepath.Ext(name) == ".log"
}

func isCkptName(name string) bool {
	var seq int
	_, err := fmt.Sscanf(name, "checkpoint-%06d.img", &seq)
	return err == nil && filepath.Ext(name) == ".img"
}

// SetSealHook installs a callback invoked at the durable-path boundaries of
// every epoch seal: "segment-synced" (delta log fsynced, manifest not yet
// rewritten), "checkpoint-written" (base image renamed into place),
// "manifest-temp" (MANIFEST.tmp fsynced, rename pending) and
// "manifest-renamed" (manifest and parent directory durable). The
// crash-consistency sweep counts manifest renames to learn which epoch a
// crash must not lose.
func (p *FilePlane) SetSealHook(f func(point string, epoch uint64)) { p.hook = f }

// AttachBus forwards the plane's I/O-fault, retry and wound events to the
// observability bus. The plane holds the bus, not a wrapper, so the
// zero-cost nil-bus guard applies.
func (p *FilePlane) AttachBus(b *obs.Bus) { p.bus = b }

func (p *FilePlane) at(point string, epoch uint64) {
	if p.hook != nil {
		p.hook(point, epoch)
	}
}

// fail latches the first permanent write-path error and degrades the plane
// to read-only wounded mode: the latched error wraps ErrPlaneWounded, every
// later Apply/SealEpoch is a no-op on disk, and the error is what Close
// and the sweep's typed-refusal check observe. The RAM mirror stays
// live so the in-process run can continue, and nothing already sealed is
// touched — wounded stores salvage to their last published manifest.
func (p *FilePlane) fail(err error) {
	if p.err == nil && err != nil {
		p.err = fmt.Errorf("%w: %w", ErrPlaneWounded, err)
		p.bus.EmitNote(obs.KindPlaneWound, 0, -1, p.sealedEpoch, 0, 0, 0, err.Error())
	}
}

func (p *FilePlane) openSegment() error {
	f, err := p.fsys.CreateExcl(filepath.Join(p.dir, DeltaFileName(p.seq)))
	if err != nil {
		return fmt.Errorf("mem: delta segment: %w", err)
	}
	p.seg = &retryFile{f: f, p: p}
	p.w = bufio.NewWriter(p.seg)
	p.recsInSeg = 0
	return nil
}

func (p *FilePlane) putWord(w *bufio.Writer, v uint64) {
	binary.LittleEndian.PutUint64(p.scratch, v)
	if _, err := w.Write(p.scratch); err != nil {
		p.fail(err)
	}
}

// Apply implements DurablePlane: mirror to RAM, append a checksummed
// word-burst record to the active delta segment.
func (p *FilePlane) Apply(addr uint64, words []uint64) {
	p.ram.Apply(addr, words)
	if p.err != nil {
		return
	}
	header := []uint64{FileDeltaMagic, addr, uint64(len(words))}
	check := RecordCheck(append(header, words...))
	for _, v := range header {
		p.putWord(p.w, v)
	}
	for _, v := range words {
		p.putWord(p.w, v)
	}
	p.putWord(p.w, check)
	p.recsInSeg++
}

// SealEpoch implements DurablePlane: terminate and fsync the active
// segment, periodically rewrite the base checkpoint, atomically publish a
// new manifest (temp + rename + parent-directory fsync), then open the
// next segment. Obsolete segments and checkpoints are removed only after
// the manifest that drops them is durable.
//
// Sync errors are never retried anywhere on this path (fsyncgate: a
// failed fsync may have dropped the dirty pages, and retrying can falsely
// succeed); the first one wounds the plane with the segment unsealed and
// the old manifest still in force.
//
// nvlint:durable
func (p *FilePlane) SealEpoch(epoch uint64) {
	if p.err != nil {
		return
	}
	if epoch > p.sealedEpoch {
		p.sealedEpoch = epoch
	}
	seal := []uint64{FileSealMagic, epoch, p.recsInSeg}
	check := RecordCheck(seal)
	for _, v := range seal {
		p.putWord(p.w, v)
	}
	p.putWord(p.w, check)
	if err := p.w.Flush(); err != nil {
		p.fail(err)
		return
	}
	if err := p.seg.Sync(); err != nil {
		p.fail(err)
		return
	}
	if err := p.seg.Close(); err != nil {
		p.fail(err)
		return
	}
	p.seg, p.w = nil, nil
	p.segCount++
	p.sealsSinceCkpt++
	p.at("segment-synced", epoch)

	var obsolete []string
	if p.sealsSinceCkpt >= p.ckptEvery {
		if err := p.writeCheckpoint(p.seq); err != nil {
			p.fail(err)
			return
		}
		for s := p.segBase; s <= p.seq; s++ {
			obsolete = append(obsolete, DeltaFileName(s))
		}
		if p.ckptSeq >= 0 {
			obsolete = append(obsolete, CheckpointFileName(p.ckptSeq))
		}
		p.ckptSeq = p.seq
		p.ckptEpoch = p.sealedEpoch
		p.segBase = p.seq + 1
		p.segCount = 0
		p.sealsSinceCkpt = 0
		p.at("checkpoint-written", epoch)
	}

	if err := p.writeManifest(epoch); err != nil {
		p.fail(err)
		return
	}
	// The durable manifest no longer references these; losing them now can
	// only waste space, never state. Removal failures still count: a store
	// that cannot clean up is a store whose disk is misbehaving.
	for _, name := range obsolete {
		if err := p.fsys.Remove(filepath.Join(p.dir, name)); err != nil {
			p.fail(err)
			return
		}
	}
	p.seq++
	if err := p.openSegment(); err != nil {
		p.fail(err)
	}
}

// writeCheckpoint dumps the full word array as checkpoint seq: header
// [magic, version, epoch, nwords, check], sorted (addr, word) pairs, one
// trailing running digest word. Written to a temp name, fsynced, renamed,
// parent directory fsynced.
//
// nvlint:durable
func (p *FilePlane) writeCheckpoint(seq int) error {
	name := CheckpointFileName(seq)
	tmp := filepath.Join(p.dir, name+".tmp")
	f, err := p.fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("mem: checkpoint: %w", err)
	}
	rf := &retryFile{f: f, p: p}
	w := bufio.NewWriterSize(rf, 1<<16)
	addrs := sortedWordAddrs(p.ram.words)
	header := []uint64{FileCkptMagic, FileFormatVersion, p.sealedEpoch, uint64(len(addrs))}
	for _, v := range header {
		p.putWord(w, v)
	}
	p.putWord(w, RecordCheck(header))
	digest := ckptDigestSeed
	for _, a := range addrs {
		v, _ := p.ram.words.Get(a >> 3)
		p.putWord(w, a)
		p.putWord(w, v)
		digest = PairMix(PairMix(digest, a), v)
	}
	p.putWord(w, digest)
	if p.err != nil {
		// putWord failures landed in p.err; surface them as the checkpoint
		// error so the temp file is not renamed into place.
		err := p.err
		_ = rf.Close() // the write error is the one worth reporting
		return err
	}
	if err := w.Flush(); err != nil {
		_ = rf.Close() // the flush error is the one worth reporting
		return fmt.Errorf("mem: checkpoint: %w", err)
	}
	if err := rf.Sync(); err != nil {
		_ = rf.Close() // the sync error is the one worth reporting
		return fmt.Errorf("mem: checkpoint: %w", err)
	}
	if err := rf.Close(); err != nil {
		return fmt.Errorf("mem: checkpoint: %w", err)
	}
	if err := p.fsys.Rename(tmp, filepath.Join(p.dir, name)); err != nil {
		return fmt.Errorf("mem: checkpoint: %w", err)
	}
	if err := p.fsys.SyncDir(p.dir); err != nil {
		return fmt.Errorf("mem: dir sync: %w", err)
	}
	return nil
}

// writeManifest atomically publishes the current durable state. The
// sequence is the classic one: write MANIFEST.tmp, fsync it, rename over
// MANIFEST, fsync the parent directory so the rename itself is durable —
// a kill -9 at any point leaves either the old or the new manifest,
// never a torn one.
//
// nvlint:durable
func (p *FilePlane) writeManifest(epoch uint64) error {
	words := []uint64{
		FileManifestMagic,
		FileFormatVersion,
		p.sealedEpoch,
		uint64(p.ckptSeq + 1), // 0: no checkpoint
		p.ckptEpoch,
		uint64(p.segBase),
		uint64(p.segCount),
	}
	words = append(words, RecordCheck(words))
	tmp := filepath.Join(p.dir, manifestTemp)
	f, err := p.fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("mem: manifest: %w", err)
	}
	rf := &retryFile{f: f, p: p}
	buf := make([]byte, 8*len(words))
	for i, v := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	if _, err := rf.Write(buf); err != nil {
		_ = rf.Close() // the write error is the one worth reporting
		return fmt.Errorf("mem: manifest: %w", err)
	}
	if err := rf.Sync(); err != nil {
		_ = rf.Close() // the sync error is the one worth reporting
		return fmt.Errorf("mem: manifest: %w", err)
	}
	if err := rf.Close(); err != nil {
		return fmt.Errorf("mem: manifest: %w", err)
	}
	p.at("manifest-temp", epoch)
	if err := p.fsys.Rename(tmp, filepath.Join(p.dir, manifestName)); err != nil {
		return fmt.Errorf("mem: manifest: %w", err)
	}
	if err := p.fsys.SyncDir(p.dir); err != nil {
		return fmt.Errorf("mem: dir sync: %w", err)
	}
	p.at("manifest-renamed", epoch)
	return nil
}

// Durable implements DurablePlane.
func (p *FilePlane) Durable() bool { return true }

// Snapshot implements DurablePlane.
func (p *FilePlane) Snapshot() *Image { return p.ram.Snapshot() }

// Close implements DurablePlane: flush and close the active segment
// without sealing it (durability is defined by sealed epochs, and a
// clean Close is indistinguishable from a kill right after it — exactly
// the guarantee the soak verifies). After a permanent write failure the
// error it returns wraps ErrPlaneWounded around the root cause.
func (p *FilePlane) Close() error {
	if p.seg != nil {
		if err := p.w.Flush(); err != nil {
			p.fail(err)
		} else if err := p.seg.Sync(); err != nil {
			p.fail(err)
		}
		if err := p.seg.Close(); err != nil {
			p.fail(err)
		}
		p.seg, p.w = nil, nil
	}
	return p.err
}
