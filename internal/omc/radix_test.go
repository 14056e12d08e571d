package omc

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// NewEpochTable returns a volatile per-epoch mapping table.
func NewEpochTable() *Table {
	return &Table{}
}

func TestTableInsertLookup(t *testing.T) {
	tb := NewEpochTable()
	if _, ok := tb.Lookup(0x1000); ok {
		t.Fatal("empty table lookup hit")
	}
	if old, replaced := tb.Insert(0x1000, 0xAA); replaced || old != 0 {
		t.Fatal("first insert reported replacement")
	}
	if v, ok := tb.Lookup(0x1000); !ok || v != 0xAA {
		t.Fatalf("lookup = %#x,%v", v, ok)
	}
	if old, replaced := tb.Insert(0x1000, 0xBB); !replaced || old != 0xAA {
		t.Fatalf("re-insert: old=%#x replaced=%v", old, replaced)
	}
	if tb.Entries() != 1 {
		t.Fatalf("entries = %d", tb.Entries())
	}
}

func TestTableLevelSeparation(t *testing.T) {
	tb := NewEpochTable()
	// Addresses differing only in bits 20..12 (the 4th index level) must not
	// collide — this was the regression the 4-inner-level fix addressed.
	a := uint64(0x0000_0000_0000_1040)
	b := a | (uint64(5) << 12)
	tb.Insert(a, 1)
	tb.Insert(b, 2)
	if v, _ := tb.Lookup(a); v != 1 {
		t.Fatalf("a = %d", v)
	}
	if v, _ := tb.Lookup(b); v != 2 {
		t.Fatalf("b = %d", v)
	}
	// Same for every other level boundary.
	for _, shift := range []uint{6, 12, 21, 30, 39} {
		tb := NewEpochTable()
		x := uint64(0)
		y := uint64(1) << shift
		tb.Insert(x, 11)
		tb.Insert(y, 22)
		vx, _ := tb.Lookup(x)
		vy, _ := tb.Lookup(y)
		if vx != 11 || vy != 22 {
			t.Fatalf("shift %d collided: %d %d", shift, vx, vy)
		}
	}
}

func TestTableInsertZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEpochTable().Insert(0x40, 0)
}

func TestTableForEachOrdered(t *testing.T) {
	tb := NewEpochTable()
	addrs := []uint64{0x5000, 0x40, 0x1000000, 0x80, 0x5040}
	for i, a := range addrs {
		tb.Insert(a, uint64(i+1))
	}
	var visited []uint64
	tb.ForEach(func(lineAddr, nvmAddr uint64) {
		visited = append(visited, lineAddr)
	})
	if len(visited) != len(addrs) {
		t.Fatalf("visited %d, want %d", len(visited), len(addrs))
	}
	for i := 1; i < len(visited); i++ {
		if visited[i-1] >= visited[i] {
			t.Fatalf("ForEach not in ascending order: %v", visited)
		}
	}
}

func TestTableBytesAndOccupancy(t *testing.T) {
	tb := NewEpochTable()
	// 64 lines of one 4 KB page fill exactly one leaf.
	for i := 0; i < 64; i++ {
		tb.Insert(uint64(i*64), uint64(i+1))
	}
	inners, leaves := tb.Nodes()
	if leaves != 1 {
		t.Fatalf("leaves = %d, want 1", leaves)
	}
	if inners != 4 {
		t.Fatalf("inners = %d, want 4 (one per level)", inners)
	}
	if tb.Entries() != leaves*leafFanout {
		t.Fatalf("entries = %d, want one full leaf of %d", tb.Entries(), leafFanout)
	}
	wantBytes := int64(4*innerNodeBytes + leafNodeBytes)
	if tb.Bytes() != wantBytes {
		t.Fatalf("bytes = %d, want %d", tb.Bytes(), wantBytes)
	}
	if tb.String() == "" {
		t.Fatal("empty String()")
	}
	if _, leaves := NewEpochTable().Nodes(); leaves != 0 {
		t.Fatal("empty table should have no leaves")
	}
}

func TestMasterTablePersistAccounting(t *testing.T) {
	var metaWrites int
	var allocs int
	tb := NewMasterTable(
		func(size int) uint64 { allocs++; return uint64(allocs) << 20 },
		func(nvmAddr uint64, size int, word uint64) {
			if size != 8 {
				t.Fatalf("persist size = %d, want 8", size)
			}
			metaWrites++
		},
	)
	tb.Insert(0x40, 1)
	// First insert: root exists (no parent write) + 3 inner pointers + 1
	// leaf pointer + 1 leaf slot = 5 writes.
	if metaWrites != 5 {
		t.Fatalf("meta writes after first insert = %d, want 5", metaWrites)
	}
	tb.Insert(0x80, 2) // same leaf: one slot write
	if metaWrites != 6 {
		t.Fatalf("meta writes = %d, want 6", metaWrites)
	}
	tb.Insert(0x40, 3) // replacement: one slot write
	if metaWrites != 7 {
		t.Fatalf("meta writes = %d, want 7", metaWrites)
	}
	if allocs != 5 { // root + 3 inners + 1 leaf
		t.Fatalf("node allocs = %d, want 5", allocs)
	}
}

// Property: the table behaves exactly like a map for any insert/lookup
// sequence over line-aligned addresses.
func TestTableMatchesMap(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		r := sim.NewRNG(seed)
		tb := NewEpochTable()
		oracle := map[uint64]uint64{}
		ops := int(n%2000) + 10
		for i := 0; i < ops; i++ {
			addr := uint64(r.Intn(512)) * 64
			switch r.Intn(3) {
			case 0, 1:
				val := r.Uint64() | 1 // non-zero
				oldWant, hadWant := oracle[addr]
				old, had := tb.Insert(addr, val)
				if had != hadWant || (had && old != oldWant) {
					return false
				}
				oracle[addr] = val
			case 2:
				want, wok := oracle[addr]
				got, ok := tb.Lookup(addr)
				if ok != wok || got != want {
					return false
				}
			}
		}
		if tb.Entries() != len(oracle) {
			return false
		}
		count := 0
		good := true
		tb.ForEach(func(a, v uint64) {
			count++
			if oracle[a] != v {
				good = false
			}
		})
		return good && count == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
