package fault

import (
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"reflect"
	"testing"
)

func writeAll(t *testing.T, f File, p []byte) {
	t.Helper()
	if _, err := f.Write(p); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func readAll(t *testing.T, fsys FS, name string) []byte {
	t.Helper()
	b, err := fsys.ReadFile(name)
	if err != nil {
		t.Fatalf("readfile %s: %v", name, err)
	}
	return b
}

// TestOSFSRoundTrip drives the passthrough FS through the manifest idiom:
// create temp, write, sync, rename over target, sync dir, read back.
func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "MANIFEST.tmp")
	final := filepath.Join(dir, "MANIFEST")

	f, err := OS.Create(tmp)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	writeAll(t, f, []byte("hello manifest"))
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := OS.Rename(tmp, final); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatalf("syncdir: %v", err)
	}
	if got := string(readAll(t, OS, final)); got != "hello manifest" {
		t.Fatalf("content = %q", got)
	}
	names, err := OS.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if !reflect.DeepEqual(names, []string{"MANIFEST"}) {
		t.Fatalf("readdir = %v", names)
	}
	if _, err := OS.CreateExcl(final); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("createexcl over existing = %v, want ErrExist", err)
	}
}

// TestMemFSContentDurability: Sync promotes content; Crash reverts to the
// synced prefix.
func TestMemFSContentDurability(t *testing.T) {
	m := NewMemFS()
	f, err := m.Create("a.log")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	writeAll(t, f, []byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	writeAll(t, f, []byte("+volatile"))
	if err := m.SyncDir("."); err != nil {
		t.Fatalf("syncdir: %v", err)
	}
	if got := string(readAll(t, m, "a.log")); got != "durable+volatile" {
		t.Fatalf("pre-crash content = %q", got)
	}
	m.Crash()
	if got := string(readAll(t, m, "a.log")); got != "durable" {
		t.Fatalf("post-crash content = %q, want synced prefix only", got)
	}
}

// TestMemFSEntryDurability: file content can be fully synced, but the entry
// itself vanishes at a crash if the parent directory was never synced.
func TestMemFSEntryDurability(t *testing.T) {
	m := NewMemFS()
	f, _ := m.Create("a.log")
	writeAll(t, f, []byte("x"))
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if len(m.DurableNames()) != 0 {
		t.Fatalf("entry durable before SyncDir: %v", m.DurableNames())
	}
	m.Crash()
	if _, err := m.ReadFile("a.log"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unsynced-dir entry survived crash: %v", err)
	}
}

// TestMemFSRenameAtomicity: before SyncDir a crash keeps the *old* target
// content; after SyncDir it keeps the new one. Never a mix.
func TestMemFSRenameAtomicity(t *testing.T) {
	mk := func() *MemFS {
		m := NewMemFS()
		old, _ := m.Create("MANIFEST")
		writeAll(t, old, []byte("v1"))
		if err := old.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := m.SyncDir("."); err != nil {
			t.Fatalf("syncdir: %v", err)
		}
		tmp, _ := m.Create("MANIFEST.tmp")
		writeAll(t, tmp, []byte("v2"))
		if err := tmp.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := m.Rename("MANIFEST.tmp", "MANIFEST"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		return m
	}

	m := mk()
	m.Crash() // rename not yet durable
	if got := string(readAll(t, m, "MANIFEST")); got != "v1" {
		t.Fatalf("pre-syncdir crash kept %q, want old v1", got)
	}

	m = mk()
	if err := m.SyncDir("."); err != nil {
		t.Fatalf("syncdir: %v", err)
	}
	m.Crash()
	if got := string(readAll(t, m, "MANIFEST")); got != "v2" {
		t.Fatalf("post-syncdir crash kept %q, want new v2", got)
	}
	if _, err := m.ReadFile("MANIFEST.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("rename source survived: %v", err)
	}
}

// TestMemFSRemoveDurability: a Remove is durable only after SyncDir.
func TestMemFSRemoveDurability(t *testing.T) {
	m := NewMemFS()
	f, _ := m.Create("a.log")
	writeAll(t, f, []byte("x"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("a.log"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.ReadFile("a.log"); err != nil {
		t.Fatalf("unsynced remove lost the file: %v", err)
	}
	if err := m.Remove("a.log"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.ReadFile("a.log"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("synced remove resurrected the file: %v", err)
	}
}

// TestFaultFSCrashCut: at the configured mutating-syscall ordinal every
// further op fails typed, and the inner FS keeps exactly what was issued
// before the cut until a power loss drops the unsynced part.
func TestFaultFSCrashCut(t *testing.T) {
	m := NewMemFS()
	ff := NewFaultFS(m, DiskConfig{CrashAt: 3})
	f, err := ff.Create("a.log") // op 1
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Write(make([]byte, 8)); err != nil { // op 2
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) { // op 3 → crash
		t.Fatalf("sync at cut = %v, want ErrCrashed", err)
	}
	if _, err := ff.Create("b.log"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create = %v, want ErrCrashed", err)
	}
	if _, err := ff.ReadFile("a.log"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read through FaultFS = %v, want ErrCrashed", err)
	}
	// The process died after two syscalls: the inner FS still holds the
	// file and its unsynced bytes, as a SIGKILL leaves them, and nothing
	// issued after the cut.
	if got := readAll(t, m, "a.log"); len(got) != 8 {
		t.Fatalf("process-death content = %d bytes, want 8", len(got))
	}
	if _, err := m.ReadFile("b.log"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("post-cut create reached the inner FS: %v", err)
	}
	// Power loss: nothing was synced, so nothing survives.
	m.Crash()
	if _, err := m.ReadFile("a.log"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unsynced file survived power loss: %v", err)
	}
}

// TestFaultFSFsyncgate: an injected Sync failure drops the unsynced bytes
// and the retried Sync falsely succeeds without promoting anything.
func TestFaultFSFsyncgate(t *testing.T) {
	m := NewMemFS()
	ff := NewFaultFS(m, DiskConfig{Seed: 1, SyncFailPer100: 100})
	f, err := ff.Create("a.log")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	writeAll(t, f, []byte("doomed bytes"))
	err = f.Sync()
	if !errors.Is(err, ErrDiskIO) || !IsDiskFault(err) {
		t.Fatalf("first sync = %v, want injected disk fault", err)
	}
	var de *DiskError
	if !errors.As(err, &de) || de.Class != DiskSyncFail {
		t.Fatalf("class = %v, want fsyncgate", err)
	}
	// The retry "succeeds" — and must NOT have made anything durable.
	if err := f.Sync(); err != nil {
		t.Fatalf("retried sync re-reported: %v", err)
	}
	if got := string(readAll(t, m, "a.log")); got != "" {
		t.Fatalf("content after fsyncgate = %q, want dropped", got)
	}
	if ff.Count(DiskSyncFail) != 1 {
		t.Fatalf("syncfail count = %d", ff.Count(DiskSyncFail))
	}
}

// TestFaultFSShortWrite: a short write persists an 8-byte-aligned prefix,
// reports a transient error, and a resuming retry completes the content.
func TestFaultFSShortWrite(t *testing.T) {
	m := NewMemFS()
	ff := NewFaultFS(m, DiskConfig{Seed: 7, ShortPer100: 100})
	f, err := ff.Create("a.log")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}
	off := 0
	for off < len(buf) {
		n, err := f.Write(buf[off:])
		off += n
		if err == nil {
			continue
		}
		if !IsTransient(err) {
			t.Fatalf("short write reported non-transient: %v", err)
		}
		if n%8 != 0 {
			t.Fatalf("short write kept %d bytes, not word-aligned", n)
		}
	}
	got, err := m.ReadFile("a.log")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, buf) {
		t.Fatalf("resumed content mismatch: %v", got)
	}
	if ff.Count(DiskShortWrite) == 0 {
		t.Fatal("no short writes fired at 100%")
	}
}

// TestFaultFSScheduleReplay: same (config, seed, op sequence) → byte-identical
// schedule; different seed → different schedule.
func TestFaultFSScheduleReplay(t *testing.T) {
	run := func(seed int64) string {
		cfg, err := DiskClassConfig("all", seed)
		if err != nil {
			t.Fatal(err)
		}
		ff := NewFaultFS(NewMemFS(), cfg)
		for i := 0; i < 40; i++ {
			f, err := ff.Create("f.log")
			if err != nil {
				continue
			}
			_, _ = f.Write(make([]byte, 32))
			_ = f.Sync()
			_ = f.Close()
			_ = ff.SyncDir(".")
		}
		return ff.Schedule()
	}
	a, b := run(3), run(3)
	if a != b {
		t.Fatalf("replay diverged:\n%s\n----\n%s", a, b)
	}
	if a == "" {
		t.Fatal("aggressive preset injected nothing over 160 ops")
	}
	if c := run(4); c == a {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestDiskClassConfig: every advertised class parses, unknowns refuse.
func TestDiskClassConfig(t *testing.T) {
	for _, name := range DiskClasses {
		cfg, err := DiskClassConfig(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// "crash" injects no errors by design: its only fault is the cut
		// point, which the sweep sets separately via CrashAt.
		if !cfg.Enabled() && name != "crash" {
			t.Fatalf("%s preset injects nothing", name)
		}
		if !ValidDiskClass(name) {
			t.Fatalf("%s not valid", name)
		}
	}
	if _, err := DiskClassConfig("bogus", 1); err == nil {
		t.Fatal("bogus class accepted")
	}
	if ValidDiskClass("bogus") {
		t.Fatal("bogus class valid")
	}
}

// TestDiskErrorTyping: sentinels unwrap per class; transience is carried.
func TestDiskErrorTyping(t *testing.T) {
	cases := []struct {
		e    *DiskError
		want error
	}{
		{&DiskError{Class: DiskEIO, Transient: true}, ErrDiskIO},
		{&DiskError{Class: DiskShortWrite, Transient: true}, ErrDiskIO},
		{&DiskError{Class: DiskSyncFail}, ErrDiskIO},
		{&DiskError{Class: DiskENOSPC}, ErrNoSpace},
		{&DiskError{Class: DiskCrash}, ErrCrashed},
	}
	for _, c := range cases {
		if !errors.Is(c.e, c.want) {
			t.Fatalf("%v does not unwrap to %v", c.e, c.want)
		}
		if !IsDiskFault(c.e) {
			t.Fatalf("%v not a disk fault", c.e)
		}
		if IsTransient(c.e) != c.e.Transient {
			t.Fatalf("%v transience mismatch", c.e)
		}
	}
	if IsTransient(io.ErrShortWrite) || IsDiskFault(errors.New("x")) {
		t.Fatal("real errors classified as injected")
	}
}

// TestMemHandleReadOffset: reads walk the file with a private offset.
func TestMemHandleReadOffset(t *testing.T) {
	m := NewMemFS()
	f, _ := m.Create("a.log")
	writeAll(t, f, []byte("abcdef"))
	r, err := m.Open("a.log")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(r)
	if err != nil || string(b) != "abcdef" {
		t.Fatalf("ReadAll = %q, %v", b, err)
	}
	if _, err := r.Write([]byte("x")); err == nil {
		t.Fatal("write on read-only handle succeeded")
	}
}
