package cache

import (
	"math/bits"
	"testing"
)

// sharerCount returns the number of sharers in s.
func sharerCount(s SharerSet) int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestSharerSetBasics(t *testing.T) {
	var s SharerSet
	if !s.None() || sharerCount(s) != 0 {
		t.Fatal("zero set not empty")
	}
	// One bit in every 64-bit word, including the extremes.
	for _, vd := range []int{0, 1, 63, 64, 127, 128, 191, 192, 255} {
		s.Add(vd)
		if !s.Has(vd) {
			t.Fatalf("Has(%d) false after Add", vd)
		}
	}
	if sharerCount(s) != 9 {
		t.Fatalf("Count = %d, want 9", sharerCount(s))
	}
	if s.Has(62) || s.Has(65) || s.Has(254) {
		t.Fatal("Has reports unset members")
	}
	s.Remove(64)
	if s.Has(64) || sharerCount(s) != 8 {
		t.Fatalf("Remove(64) left Has=%v Count=%d", s.Has(64), sharerCount(s))
	}
	s.Remove(64) // idempotent
	if sharerCount(s) != 8 {
		t.Fatal("double Remove changed the set")
	}
}

func TestSharerSetOnly(t *testing.T) {
	for _, vd := range []int{0, 63, 64, 200, 255} {
		var s SharerSet
		s.Add(vd)
		if !s.Only(vd) {
			t.Fatalf("Only(%d) false for singleton", vd)
		}
		if s.Only((vd + 1) % MaxSharers) {
			t.Fatalf("Only(%d) true for wrong member", (vd+1)%MaxSharers)
		}
		s.Add((vd + 7) % MaxSharers)
		if s.Only(vd) {
			t.Fatalf("Only(%d) true for two-element set", vd)
		}
	}
}

// TestSharerSetForEachAscending locks the iteration order the coherence
// paths rely on: ForEach must visit members in ascending VD order, exactly
// like the pre-SharerSet ascending bitmask loops, so invalidation order —
// and therefore latency and stats — stays byte-identical.
func TestSharerSetForEachAscending(t *testing.T) {
	var s SharerSet
	want := []int{0, 3, 63, 64, 65, 130, 255}
	for _, vd := range want {
		s.Add(vd)
	}
	var got []int
	s.ForEach(func(vd int) { got = append(got, vd) })
	if len(got) != len(want) {
		t.Fatalf("visited %d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit order %v, want %v", got, want)
		}
	}
}

// TestSharerSetBeyond64 is the regression test for the bug that forced the
// type to exist: with a uint64 bitmask, 1<<vd silently evaluates to 0 for
// vd >= 64, so a 65th versioned domain could never be tracked as a sharer.
func TestSharerSetBeyond64(t *testing.T) {
	var s SharerSet
	for vd := 0; vd < MaxSharers; vd++ {
		s.Add(vd)
	}
	if sharerCount(s) != MaxSharers {
		t.Fatalf("Count = %d, want %d", sharerCount(s), MaxSharers)
	}
	for vd := 0; vd < MaxSharers; vd++ {
		if !s.Has(vd) {
			t.Fatalf("Has(%d) false with all domains sharing", vd)
		}
	}
}

func TestSharerSetString(t *testing.T) {
	var s SharerSet
	s.Add(0)
	s.Add(64)
	str := s.String()
	if str == "" || str == (SharerSet{}).String() {
		t.Fatalf("String not distinguishing: %q", str)
	}
}
