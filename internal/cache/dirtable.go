package cache

import "repro/internal/mem"

// DirEntry is one coherence-directory entry: the set of versioned domains
// holding a shared copy of a line, and the domain holding it exclusively
// (or -1). Both hierarchies (internal/coherence's MESI directory and
// internal/cst's version-access-protocol directory) track exactly this
// shape per line address, which is why the directory lives in Levels next
// to the cache arrays they also share.
type DirEntry struct {
	Sharers SharerSet // VDs with a (shared) copy
	Owner   int       // VD holding E/M, or -1
}

// Directory maps line addresses to DirEntry; its zero value is empty. It
// is a mem.Table, so every entry pointer it hands out (GetOrCreate, Ptr)
// is valid only until the next insertion or deletion: deleting one
// address may shift another entry back in its probe run. Callers look an
// entry up again after any call that may evict lines.
type Directory struct {
	mem.Table[DirEntry]
}

// newDirectory returns a directory that holds n entries without growing.
func newDirectory(n int) Directory { return Directory{*mem.NewTable[DirEntry](n)} }

// GetOrCreate returns addr's entry, inserting {Owner: -1} when absent.
func (d *Directory) GetOrCreate(addr uint64) *DirEntry {
	e, existed := d.Upsert(addr)
	if !existed {
		e.Owner = -1
	}
	return e
}
