package omc

import (
	"repro/internal/cache"
	"repro/internal/sim"
)

// Version is one snapshot cache line arriving at the OMC from the CST
// frontend: the line's physical address, the epoch that produced it, and
// its payload token.
type Version struct {
	Addr  uint64
	Epoch uint64
	Data  uint64
}

// Buffer is the optional battery-backed write-back cache in front of the
// OMC (paper §IV-E, evaluated in Fig 16). It absorbs redundant write-backs
// of the same address within the same epoch; on power failure its contents
// would be flushed, so it is treated as persistent.
type Buffer struct {
	arr *cache.Cache

	Hits, Misses, Writebacks uint64
}

// NewBuffer builds a buffer with the given capacity in bytes, organised
// like the LLC (paper: "same configuration as the simulated LLC").
func NewBuffer(cfg *sim.Config, bytes int) *Buffer {
	return &Buffer{arr: cache.New("omcbuf", bytes, cfg.LLCWays, cfg.LineSize)}
}

// Absorb offers a version to the buffer. It returns the versions that must
// now be written to NVM: none when the write was absorbed (same address,
// same epoch), the displaced older version when the address re-arrives in a
// newer epoch (the old version belongs to a snapshot and must persist), or
// the evicted victim on a capacity miss.
func (b *Buffer) Absorb(v Version) (flush []Version) {
	if ln := b.arr.Lookup(v.Addr); ln != nil {
		if ln.OID == v.Epoch {
			// Redundant write-back within one epoch: absorbed entirely.
			b.Hits++
			ln.Data = v.Data
			return nil
		}
		// The buffered version closes an older snapshot: flush it and keep
		// the newer one.
		flush = append(flush, Version{Addr: ln.Tag, Epoch: ln.OID, Data: ln.Data})
		b.Writebacks++
		ln.OID = v.Epoch
		ln.Data = v.Data
		b.Hits++
		return flush
	}
	b.Misses++
	ln, victim, evicted := b.arr.Insert(v.Addr)
	if evicted {
		flush = append(flush, Version{Addr: victim.Tag, Epoch: victim.OID, Data: victim.Data})
		b.Writebacks++
	}
	ln.State = cache.Modified
	ln.Dirty = true
	ln.OID = v.Epoch
	ln.Data = v.Data
	return flush
}

// Flush hands every buffered version to fn (power-down or end of run) and
// empties the buffer.
func (b *Buffer) Flush(fn func(Version)) {
	b.arr.Flush(func(ln cache.Line) {
		b.Writebacks++
		fn(Version{Addr: ln.Tag, Epoch: ln.OID, Data: ln.Data})
	})
}

// FlushBefore drains buffered versions older than epoch, letting the
// recoverable-epoch protocol make progress past buffered versions.
func (b *Buffer) FlushBefore(epoch uint64) []Version {
	var out []Version
	for _, ln := range b.arr.CollectValid() {
		if ln.OID < epoch {
			b.arr.Invalidate(ln.Tag)
			out = append(out, Version{Addr: ln.Tag, Epoch: ln.OID, Data: ln.Data})
			b.Writebacks++
		}
	}
	return out
}
