package cache

import "testing"

func BenchmarkLookupHit(b *testing.B) {
	c := New("b", 32<<10, 8, 64)
	for i := 0; i < 64; i++ {
		ln, _, _ := c.Insert(uint64(i * 64))
		ln.State = Shared
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64((i % 64) * 64))
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	c := New("b", 32<<10, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i) * 64)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := New("b", 32<<10, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln, _, _ := c.Insert(uint64(i) * 64)
		ln.State = Modified
	}
}

// BenchmarkLLCMissInsert probes and fills one LLC-shaped slice (a 4 MB
// 16-way slice of eight) with a stream of new lines that interleave to
// it. The slice starts full, so every Lookup misses and every Insert
// evicts: the inclusive LLC's path on a cold access.
func BenchmarkLLCMissInsert(b *testing.B) {
	const slices = 8
	c := NewStrided("llc", 4<<20, 16, 64, slices)
	for i := 0; i < len(c.keys); i++ {
		ln, _, _ := c.Insert(1<<40 + uint64(i)*slices*64)
		ln.State = Shared
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) * slices * 64
		if c.Lookup(addr) == nil {
			ln, _, _ := c.Insert(addr)
			ln.State = Shared
		}
	}
}
