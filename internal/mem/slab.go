package mem

import "unsafe"

// Slab hands out zeroed values of T carved from chunks it allocates
// itself, and takes values back on a free list for later New calls. Many
// small host objects with one owner (an OMC's radix nodes) then cost one
// Go allocation per chunk rather than one each, and are not rounded up to
// an allocation size class one by one.
//
// Chunks grow geometrically, from about slabFirstChunk bytes to
// slabMaxChunk, so a slab that only ever holds a handful of values stays
// small. A chunk is never handed back to the Go heap: it lives as long as
// any value carved from it is referenced.
//
// The zero Slab is ready to use. It is not safe for concurrent use.
type Slab[T any] struct {
	chunk []T  // the unused tail of the newest chunk
	size  int  // length of the next chunk, in values
	free  []*T // values handed back, each zeroed by its owner
}

const (
	slabFirstChunk = 512
	slabMaxChunk   = 64 << 10
)

// New returns a zeroed value: the most recently freed one if any, else
// the next one of the newest chunk.
func (s *Slab[T]) New() *T {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	if len(s.chunk) == 0 {
		s.grow()
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return p
}

// Free hands p back for a later New. The caller must have zeroed *p and
// must not use p again.
func (s *Slab[T]) Free(p *T) { s.free = append(s.free, p) }

// FreeLen reports how many freed values wait for a New.
func (s *Slab[T]) FreeLen() int { return len(s.free) }

// grow allocates the next chunk.
func (s *Slab[T]) grow() {
	var zero T
	elem := int(unsafe.Sizeof(zero))
	if s.size == 0 {
		s.size = max(1, slabFirstChunk/max(elem, 1))
	}
	s.chunk = make([]T, s.size)
	if s.size*2*elem <= slabMaxChunk {
		s.size *= 2
	}
}
