package fault

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/sim"
)

// FaultFS is the disk-level fault injector: an FS decorator that draws
// deterministic error schedules from a seeded PRNG, in the same design
// language as the NVM Injector above. It models the failure classes the
// fsyncgate literature and crash-consistency testing call out for real
// filesystems:
//
//   - short writes at 8-byte granularity: only a word-aligned prefix of a
//     Write reaches the file, and the caller gets a transient error to
//     resume from (retrying the remainder is correct);
//   - transient and permanent EIO on any mutating syscall;
//   - ENOSPC on writes and creates (always permanent: the device does not
//     grow space back mid-run);
//   - fsyncgate: an injected Sync failure drops the file's
//     buffered-but-unsynced bytes, and a retried Sync succeeds without
//     re-reporting the error — the data is simply gone (the trap that makes
//     treating fsync as retryable a silent-corruption bug);
//   - a crash cut point: at the Nth mutating syscall the process dies. That
//     call and every later one fail with ErrCrashed without reaching the
//     inner FS, which keeps exactly what the process had issued (the state
//     SIGKILL leaves); MemFS.Crash on it then gives the power-loss state.
//
// Every draw is recorded as an ordered DiskEvent; Schedule() renders the
// canonical, byte-stable schedule so a cell's fault history replays
// byte-for-byte from (config, seed).
//
// Typed sentinels. *DiskError wraps exactly one of these:
var (
	// ErrDiskIO: an injected EIO.
	ErrDiskIO = errors.New("injected disk I/O error")
	// ErrNoSpace: an injected ENOSPC.
	ErrNoSpace = errors.New("injected device full")
	// ErrCrashed: the filesystem hit its crash cut point; that call and
	// every further one fail without reaching the inner FS.
	ErrCrashed = errors.New("filesystem crashed at injected cut point")
)

// DiskClass enumerates the injectable disk-fault classes.
type DiskClass uint8

const (
	// DiskShortWrite persists only an 8-byte-aligned prefix of a Write.
	DiskShortWrite DiskClass = iota
	// DiskEIO is an I/O error on a mutating syscall (transient or
	// permanent per draw).
	DiskEIO
	// DiskENOSPC is out-of-space on a write or create (permanent).
	DiskENOSPC
	// DiskSyncFail is a failed fsync with fsyncgate semantics.
	DiskSyncFail
	// DiskCrash is the crash cut point firing.
	DiskCrash
)

// String returns the schedule/class name.
func (c DiskClass) String() string {
	switch c {
	case DiskShortWrite:
		return "shortwrite"
	case DiskEIO:
		return "eio"
	case DiskENOSPC:
		return "enospc"
	case DiskSyncFail:
		return "fsyncgate"
	case DiskCrash:
		return "crash"
	default:
		return fmt.Sprintf("diskclass%d", int(c))
	}
}

// DiskClasses lists the named disk-fault regimes understood by
// DiskClassConfig, in the order the sweep grids iterate them.
var DiskClasses = []string{"crash", "shortwrite", "eio", "enospc", "fsyncgate"}

// ValidDiskClass reports whether DiskClassConfig accepts name ("" = crash
// cut only, no error injection).
func ValidDiskClass(name string) bool {
	_, err := DiskClassConfig(name, 0)
	return err == nil
}

// DiskError is one injected disk fault, carried inside the error chain so
// policy layers can classify it. Transient errors are safe to retry;
// everything else is final.
type DiskError struct {
	Op    string // "write", "sync", "create", "rename", ...
	Path  string
	Class DiskClass
	// Transient marks a fault that a bounded retry may clear.
	Transient bool
	// OpIndex is the 1-based mutating-syscall ordinal the fault fired at.
	OpIndex int
}

// Error implements error.
func (e *DiskError) Error() string {
	t := "permanent"
	if e.Transient {
		t = "transient"
	}
	return fmt.Sprintf("fault: %s %s on %s %s (op %d): %v", t, e.Class, e.Op, e.Path, e.OpIndex, e.Unwrap())
}

// Unwrap maps the class onto its sentinel.
func (e *DiskError) Unwrap() error {
	switch e.Class {
	case DiskENOSPC:
		return ErrNoSpace
	case DiskCrash:
		return ErrCrashed
	default:
		return ErrDiskIO
	}
}

// IsTransient reports whether err is an injected fault that a bounded retry
// may clear. Real-OS errors are never transient: the policy layer has no
// way to know, and assuming permanence is the safe direction.
func IsTransient(err error) bool {
	var de *DiskError
	return errors.As(err, &de) && de.Transient
}

// IsDiskFault reports whether err originates from a FaultFS injection.
func IsDiskFault(err error) bool {
	var de *DiskError
	return errors.As(err, &de)
}

// DiskConfig selects disk-fault probabilities. The zero value injects
// nothing (CrashAt 0 = never crash).
type DiskConfig struct {
	Seed int64
	// ShortPer100 is the per-Write probability (percent) of an 8-byte
	// granularity short write (transient).
	ShortPer100 int
	// EIOPer100 is the per-mutating-syscall probability (percent) of EIO.
	EIOPer100 int
	// PermPer100 is, given an EIO fired on a write-class op, the
	// probability (percent) it is permanent rather than transient.
	// EIO on Sync is always permanent (fsync failure is final).
	PermPer100 int
	// NoSpacePer100 is the per-write/create probability (percent) of
	// ENOSPC (always permanent).
	NoSpacePer100 int
	// SyncFailPer100 is the per-Sync probability (percent) of an fsyncgate
	// failure: unsynced bytes dropped, error not re-reported on retry.
	SyncFailPer100 int
	// CrashAt, when positive, stops the filesystem dead at the CrashAt-th
	// mutating syscall: it and all further calls fail with ErrCrashed,
	// leaving the inner FS as the process left it.
	CrashAt int
}

// DiskClassConfig returns the preset configuration of a named disk-fault
// regime. Rates are tuned so a soak-shaped run (~150 mutating syscalls)
// sees faults on most runs while still regularly surviving long enough to
// make epochs durable first — the sweep needs cells in every outcome
// (clean restore, wounded-but-salvageable, refusal), not a wall of
// first-syscall woundings.
func DiskClassConfig(name string, seed int64) (DiskConfig, error) {
	c := DiskConfig{Seed: seed}
	switch name {
	case "", "crash":
		// No error injection: the crash cut point is the only fault. The
		// pure power-loss baseline — every cut must restore exactly.
	case "shortwrite":
		c.ShortPer100 = 35
	case "eio":
		c.EIOPer100 = 4
		c.PermPer100 = 25
	case "enospc":
		c.NoSpacePer100 = 2
	case "fsyncgate":
		c.SyncFailPer100 = 6
	case "all":
		c.ShortPer100 = 15
		c.EIOPer100 = 2
		c.PermPer100 = 25
		c.NoSpacePer100 = 1
		c.SyncFailPer100 = 3
	default:
		return DiskConfig{}, fmt.Errorf("fault: unknown disk fault class %q (crash, shortwrite, eio, enospc, fsyncgate, all)", name)
	}
	return c, nil
}

// DiskEvent is one injected disk fault, in injection order.
type DiskEvent struct {
	OpIndex int // 1-based mutating-syscall ordinal
	Op      string
	Path    string // base name; directories keep their full cleaned path
	Class   DiskClass
	// Arg is class-specific: bytes kept (short write), 1 = permanent /
	// 0 = transient (EIO), unsynced bytes dropped (fsyncgate).
	Arg uint64
}

// String renders the event in the canonical schedule form.
func (e DiskEvent) String() string {
	return fmt.Sprintf("op=%d %s %s %s arg=%d", e.OpIndex, e.Class, e.Op, e.Path, e.Arg)
}

// syncDropper is the optional handle hook for fsyncgate content loss;
// MemFS handles implement it.
type syncDropper interface{ DropUnsynced() }

// FaultFS decorates an inner FS with the deterministic fault schedule.
type FaultFS struct {
	inner   FS
	cfg     DiskConfig
	rng     *sim.RNG
	ops     int // mutating syscalls seen
	crashed bool
	events  []DiskEvent
	stat    map[DiskClass]int64
}

// NewFaultFS wraps inner with a seeded disk-fault schedule.
func NewFaultFS(inner FS, cfg DiskConfig) *FaultFS {
	return &FaultFS{
		inner: inner,
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed),
		stat:  make(map[DiskClass]int64),
	}
}

// Ops returns the number of mutating syscalls observed so far — the axis
// crash cut points are expressed on.
func (f *FaultFS) Ops() int { return f.ops }

// Events returns the injected faults so far, in order.
func (f *FaultFS) Events() []DiskEvent { return f.events }

// Count returns how many events of the class fired.
func (f *FaultFS) Count(c DiskClass) int64 { return f.stat[c] }

// Schedule renders the full disk-fault schedule in a canonical, byte-stable
// form; replays of the same (inner ops, config) produce identical strings.
func (f *FaultFS) Schedule() string { return schedule(f.events) }

func (f *FaultFS) record(op, path string, class DiskClass, arg uint64) {
	f.events = append(f.events, DiskEvent{OpIndex: f.ops, Op: op, Path: path, Class: class, Arg: arg})
	f.stat[class]++
}

// evName reduces a path to its stable schedule spelling: the base name
// (store files are all in one directory; temp-dir prefixes would break
// byte-identical replay across runs).
func evName(path string) string { return filepath.Base(filepath.Clean(path)) }

// mutate gates one mutating syscall: bumps the op counter and fires the
// crash cut when it is reached. It returns a non-nil error when the call
// must fail without touching the inner FS.
func (f *FaultFS) mutate(op, path string) error {
	if f.crashed {
		return &DiskError{Op: op, Path: evName(path), Class: DiskCrash, OpIndex: f.ops}
	}
	f.ops++
	if f.cfg.CrashAt > 0 && f.ops >= f.cfg.CrashAt {
		f.crashed = true
		f.record(op, evName(path), DiskCrash, 0)
		return &DiskError{Op: op, Path: evName(path), Class: DiskCrash, OpIndex: f.ops}
	}
	return nil
}

// draw returns whether a per100-percent fault fires.
func (f *FaultFS) draw(per100 int) bool {
	return per100 > 0 && f.rng.Intn(100) < per100
}

// injectOp draws the ENOSPC, then EIO (transient or permanent) schedule
// for a mutating syscall. allowNoSpace selects ops that allocate (create,
// write).
func (f *FaultFS) injectOp(op, path string, allowNoSpace bool) error {
	if allowNoSpace && f.draw(f.cfg.NoSpacePer100) {
		f.record(op, evName(path), DiskENOSPC, 0)
		return &DiskError{Op: op, Path: evName(path), Class: DiskENOSPC, OpIndex: f.ops}
	}
	if f.draw(f.cfg.EIOPer100) {
		perm := f.draw(f.cfg.PermPer100)
		arg := uint64(0)
		if perm {
			arg = 1
		}
		f.record(op, evName(path), DiskEIO, arg)
		return &DiskError{Op: op, Path: evName(path), Class: DiskEIO, Transient: !perm, OpIndex: f.ops}
	}
	return nil
}

// readGate fails read-path calls after the crash cut (a crashed machine
// serves nothing; salvage reopens the inner FS cold).
func (f *FaultFS) readGate(op, path string) error {
	if f.crashed {
		return &DiskError{Op: op, Path: evName(path), Class: DiskCrash, OpIndex: f.ops}
	}
	return nil
}

// Open implements FS (read path: no injection beyond the crash gate).
func (f *FaultFS) Open(name string) (File, error) {
	if err := f.readGate("open", name); err != nil {
		return nil, err
	}
	h, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: h, path: name}, nil
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) { return f.create(name, f.inner.Create) }

// CreateExcl implements FS.
func (f *FaultFS) CreateExcl(name string) (File, error) { return f.create(name, f.inner.CreateExcl) }

// create gates and draws one create syscall, then opens name through the
// inner FS's open.
func (f *FaultFS) create(name string, open func(string) (File, error)) (File, error) {
	if err := f.mutate("create", name); err != nil {
		return nil, err
	}
	if err := f.injectOp("create", name, true); err != nil {
		return nil, err
	}
	h, err := open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: h, path: name}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.mutate("rename", newpath); err != nil {
		return err
	}
	if err := f.injectOp("rename", newpath, false); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if err := f.mutate("remove", name); err != nil {
		return err
	}
	if err := f.injectOp("remove", name, false); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// ReadDir implements FS (read path).
func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err := f.readGate("readdir", dir); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

// ReadFile implements FS (read path).
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.readGate("readfile", name); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

// MkdirAll implements FS. Directory creation happens once, before any
// durability claim, so it is gated but not error-injected.
func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.mutate("mkdir", dir); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

// SyncDir implements FS. A failed directory fsync is always permanent:
// like fsync, there is no sound way to retry it.
func (f *FaultFS) SyncDir(dir string) error {
	if err := f.mutate("syncdir", dir); err != nil {
		return err
	}
	if f.draw(f.cfg.SyncFailPer100) {
		f.record("syncdir", filepath.Clean(dir), DiskSyncFail, 0)
		return &DiskError{Op: "syncdir", Path: filepath.Clean(dir), Class: DiskSyncFail, OpIndex: f.ops}
	}
	if f.draw(f.cfg.EIOPer100) {
		f.record("syncdir", filepath.Clean(dir), DiskEIO, 1)
		return &DiskError{Op: "syncdir", Path: filepath.Clean(dir), Class: DiskEIO, OpIndex: f.ops}
	}
	return f.inner.SyncDir(dir)
}

// faultFile decorates an inner handle with the write/sync fault schedule.
type faultFile struct {
	fs   *FaultFS
	f    File
	path string
	// gated: a Sync already failed on this handle; fsyncgate semantics say
	// later Syncs succeed silently and the dropped bytes stay dropped.
	gated bool
}

func (h *faultFile) Read(p []byte) (int, error) {
	if err := h.fs.readGate("read", h.path); err != nil {
		return 0, err
	}
	return h.f.Read(p)
}

// Write draws, in order: crash cut, ENOSPC, EIO, short write. A short
// write persists an 8-byte-aligned prefix and reports a transient error,
// so a resuming retry of the remainder is both possible and exercised.
func (h *faultFile) Write(p []byte) (int, error) {
	if err := h.fs.mutate("write", h.path); err != nil {
		return 0, err
	}
	if err := h.fs.injectOp("write", h.path, true); err != nil {
		return 0, err
	}
	name := evName(h.path)
	if len(p) >= 16 && h.fs.draw(h.fs.cfg.ShortPer100) {
		keep := 8 * h.fs.rng.Intn(len(p)/8) // 0..len-8: at least one word is lost
		h.fs.record("write", name, DiskShortWrite, uint64(keep))
		n, err := h.f.Write(p[:keep])
		if err != nil {
			return n, err
		}
		return keep, &DiskError{Op: "write", Path: name, Class: DiskShortWrite, Transient: true, OpIndex: h.fs.ops}
	}
	return h.f.Write(p)
}

// Sync draws the fsyncgate schedule: on an injected failure the handle's
// unsynced bytes are dropped from the inner file and the handle is gated —
// every later Sync succeeds without re-reporting, exactly the trap that
// makes "retry the fsync" a silent-corruption bug.
func (h *faultFile) Sync() error {
	if err := h.fs.mutate("sync", h.path); err != nil {
		return err
	}
	if h.gated {
		// fsyncgate: the kernel marked the pages clean at the failed sync;
		// there is nothing left to write and no error left to report.
		return nil
	}
	name := evName(h.path)
	if h.fs.draw(h.fs.cfg.SyncFailPer100) {
		h.gated = true
		if d, ok := h.f.(syncDropper); ok {
			d.DropUnsynced()
		}
		h.fs.record("sync", name, DiskSyncFail, 0)
		return &DiskError{Op: "sync", Path: name, Class: DiskSyncFail, OpIndex: h.fs.ops}
	}
	if h.fs.draw(h.fs.cfg.EIOPer100) {
		// EIO on fsync is always permanent: the caller cannot know what the
		// kernel did with the dirty pages (fsyncgate's lesson).
		h.fs.record("sync", name, DiskEIO, 1)
		return &DiskError{Op: "sync", Path: name, Class: DiskEIO, OpIndex: h.fs.ops}
	}
	return h.f.Sync()
}

func (h *faultFile) Close() error {
	if h.fs.crashed {
		return &DiskError{Op: "close", Path: evName(h.path), Class: DiskCrash, OpIndex: h.fs.ops}
	}
	return h.f.Close()
}
