package omc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// NewEpochTable returns a volatile per-epoch mapping table with a slab of
// its own.
func NewEpochTable() *Table {
	return newTable(new(nodeSlab), nil, nil)
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
	tb := newTable(new(nodeSlab),
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

// recordedTable is a table whose node homes count up from a fixed base and
// whose persisted words are logged in write order.
type recordedTable struct {
	*Table
	writes []uint64 // (nvmAddr, word) pairs
}

func newRecordedTable(nodes *nodeSlab) *recordedTable {
	rt := &recordedTable{}
	next := uint64(1 << 32)
	rt.Table = newTable(nodes,
		func(size int) uint64 { a := next; next += uint64(size); return a },
		func(nvmAddr uint64, size int, word uint64) { rt.writes = append(rt.writes, nvmAddr, word) })
	return rt
}

// TestLeafPromotionReuseMatchesFresh fills one leaf in random slot order
// across the leafPacked -> full-block boundary, and then the inline
// children of one level-3 node across innerPacked, with replacements
// mixed in. One table is built from fresh nodes; the other from a slab
// whose leaf, blocks and inner nodes a released table of the same shape
// (different values) left on the free list. After every insert both must
// answer every Lookup as a map does, and at the end their ForEach order,
// Entries, Digest and persisted words must be equal.
func TestLeafPromotionReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var addrs []uint64
	for _, s := range rng.Perm(leafFanout) {
		addrs = append(addrs, 0x7000_0000+uint64(s)<<6)
	}
	for _, p := range rng.Perm(3 * innerPacked) {
		addrs = append(addrs, 0x7020_0000+uint64(p)<<12+uint64(p%leafFanout)<<6)
	}
	for i := 0; i < 20; i++ { // replacements, inline and in blocks
		addrs = append(addrs, addrs[rng.Intn(len(addrs))])
	}

	build := func(tb *recordedTable, salt uint64) map[uint64]uint64 {
		oracle := map[uint64]uint64{}
		for i, a := range addrs {
			v := uint64(i+1)<<8 | salt
			old, replaced := tb.Insert(a, v)
			if want, had := oracle[a]; replaced != had || old != want {
				t.Fatalf("insert %d (%#x): (%#x, %v), want (%#x, %v)", i, a, old, replaced, want, had)
			}
			oracle[a] = v
			for _, b := range addrs[:i+1] {
				if got, ok := tb.Lookup(b); !ok || got != oracle[b] {
					t.Fatalf("after insert %d: Lookup(%#x) = (%#x, %v), want %#x", i, b, got, ok, oracle[b])
				}
			}
			for _, miss := range []uint64{0x7000_0000 - 64, 0x7020_0000 + 63<<12, 0x7020_0000 + 1<<6} {
				if _, ok := oracle[miss]; !ok {
					if got, ok := tb.Lookup(miss); ok {
						t.Fatalf("after insert %d: Lookup(%#x) = %#x for an unmapped line", i, miss, got)
					}
				}
			}
		}
		return oracle
	}

	fresh := newRecordedTable(new(nodeSlab))
	build(fresh, 0)

	nodes := new(nodeSlab)
	old := newRecordedTable(nodes)
	build(old, 0xAB)
	old.release()
	if nodes.blocks.FreeLen() == 0 || nodes.innerBlocks.FreeLen() == 0 || nodes.leaves.FreeLen() == 0 {
		t.Fatal("the released table left no leaf, block or inner block on the free list")
	}
	reused := newRecordedTable(nodes)
	build(reused, 0)
	if nodes.blocks.FreeLen() != 0 || nodes.innerBlocks.FreeLen() != 0 {
		t.Fatal("the rebuilt table did not take the freed blocks")
	}

	var ef, er []uint64
	fresh.ForEach(func(l, a uint64) { ef = append(ef, l, a) })
	reused.ForEach(func(l, a uint64) { er = append(er, l, a) })
	if !slices.Equal(ef, er) {
		t.Fatalf("ForEach from reused nodes:\n%x\nfrom fresh nodes:\n%x", er, ef)
	}
	if fresh.Entries() != reused.Entries() || fresh.Digest() != reused.Digest() || fresh.Bytes() != reused.Bytes() {
		t.Fatalf("reused %v digest %#x, fresh %v digest %#x", reused.Table, reused.Digest(), fresh.Table, fresh.Digest())
	}
	if !slices.Equal(fresh.writes, reused.writes) {
		t.Fatal("persisted words from reused nodes differ from fresh nodes")
	}
}

// TestEpochTableBytesPerPage guards the host layout: an epoch table with
// one mapping on each of N pages allocates under 160 bytes per page, at N
// and at 4N. A page costs an 88-byte leaf, its share of the slab's
// geometric chunks, and 1/512 of a level-3 node. A leaf that takes the
// simulated 512-byte layout (576 bytes allocated) fails it.
func TestEpochTableBytesPerPage(t *testing.T) {
	const maxPerPage = 160
	for _, pages := range []int{1024, 4096} {
		b := allocBytes(3, func() {
			tb := NewEpochTable()
			for p := 0; p < pages; p++ {
				tb.Insert(uint64(p)<<12|uint64(p%leafFanout)<<6, uint64(p)+1)
			}
		})
		if per := b / float64(pages); per > maxPerPage {
			t.Fatalf("%d pages: %.0f B per page, want at most %d", pages, per, maxPerPage)
		}
	}
}
