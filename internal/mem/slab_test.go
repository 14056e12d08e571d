package mem

import (
	"testing"
	"unsafe"
)

// TestSlabHandsOutDistinctValuesAndReusesFreed: New carves distinct zeroed
// values across chunk boundaries, Free hands a value back for the next
// New, and no chunk exceeds slabMaxChunk bytes.
func TestSlabHandsOutDistinctValuesAndReusesFreed(t *testing.T) {
	type node struct{ a, b, c uint64 }
	var s Slab[node]
	seen := map[*node]bool{}
	var p *node
	for i := 0; i < 10000; i++ {
		p = s.New()
		if seen[p] {
			t.Fatalf("value %d handed out twice", i)
		}
		if *p != (node{}) {
			t.Fatalf("value %d is not zeroed: %+v", i, *p)
		}
		seen[p] = true
		p.a, p.b, p.c = 1, 2, 3
		if bytes := cap(s.chunk) * int(unsafe.Sizeof(node{})); bytes > slabMaxChunk {
			t.Fatalf("chunk of %d B, above %d", bytes, slabMaxChunk)
		}
	}
	*p = node{}
	s.Free(p)
	if s.FreeLen() != 1 {
		t.Fatalf("FreeLen = %d after one Free", s.FreeLen())
	}
	if q := s.New(); q != p || s.FreeLen() != 0 {
		t.Fatalf("New after Free returned %p, want the freed %p", q, p)
	}
}
