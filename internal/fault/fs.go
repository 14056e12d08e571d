package fault

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The VFS seam under the durable plane. The file-backed store
// (internal/store: FilePlane, LoadDir, SalvageDir) performs every
// filesystem operation through this interface, so the same
// write-seal-salvage code runs over the real OS (OSFS), an in-memory
// crash-modelling filesystem (MemFS), or the deterministic disk-error
// injector (FaultFS) — the disk-level analogue of the NVM injector above.
//
// The interface is deliberately tiny: exactly the syscalls the store's
// manifest discipline is built from. Durability semantics follow POSIX:
// Write buffers, Sync makes a file's content durable under its current name,
// Rename atomically replaces the target entry, and a rename is not itself
// durable until the parent directory is fsynced (SyncDir).

// File is one open file of an FS. Writes are sequential appends from the
// store's point of view; Sync is fsync.
type File interface {
	io.Reader
	io.Writer
	// Sync makes everything written so far durable (fsync). Implementations
	// follow fsync semantics, including the fsyncgate trap: after a failed
	// Sync the dirty bytes may be gone and a retry may falsely succeed —
	// callers must treat a Sync error as final for this file.
	Sync() error
	Close() error
}

// FS is the filesystem seam. Paths are ordinary slash-joined paths as
// produced by path/filepath.Join.
type FS interface {
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Create creates or truncates name for writing (O_CREATE|O_TRUNC).
	Create(name string) (File, error)
	// CreateExcl creates name for writing, failing with fs.ErrExist if it
	// already exists (O_CREATE|O_EXCL).
	CreateExcl(name string) (File, error)
	// Rename atomically renames oldpath to newpath, replacing any existing
	// target entry. Durability of the rename requires SyncDir on the parent.
	Rename(oldpath, newpath string) error
	// Remove unlinks a file.
	Remove(name string) error
	// ReadDir lists the base names of dir's entries in sorted order.
	ReadDir(dir string) ([]string, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// SyncDir fsyncs a directory so renames and entry creations inside it
	// are durable.
	SyncDir(dir string) error
}

// OS is the passthrough filesystem: every call maps 1:1 onto the os package.
// The production store runs over it; it carries no state.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (osFS) CreateExcl(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names) // os.ReadDir sorts already; make the contract explicit
	return names, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// SyncDir fsyncs a directory so a rename inside it is durable.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // the sync error is the one worth reporting
		return err
	}
	return d.Close()
}

// dirOf returns the parent directory of a cleaned path.
func dirOf(name string) string { return filepath.Dir(filepath.Clean(name)) }
