package mem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// tableOp is one step of a table property run: op 0 puts, 1 deletes,
// 2 gets, 3 increments through Upsert, 4 takes, 5 increments through
// Edit and deletes the entry when val is even.
type tableOp struct {
	op  int
	key uint64
	val uint64
}

// checkTable replays ops on a Table and on a Go map side by side and fails
// on the first disagreement, then compares the full contents.
func checkTable(t *testing.T, ops []tableOp) {
	t.Helper()
	tab := NewTable[uint64](0)
	ref := make(map[uint64]uint64)
	for i, o := range ops {
		switch o.op {
		case 0:
			tab.Put(o.key, o.val)
			ref[o.key] = o.val
		case 1:
			_, had := ref[o.key]
			if got := tab.Delete(o.key); got != had {
				t.Fatalf("op %d: Delete(%#x) = %v, want %v", i, o.key, got, had)
			}
			delete(ref, o.key)
		case 2:
			got, ok := tab.Get(o.key)
			want, wok := ref[o.key]
			if got != want || ok != wok {
				t.Fatalf("op %d: Get(%#x) = (%d, %v), want (%d, %v)", i, o.key, got, ok, want, wok)
			}
			if p := tab.Ptr(o.key); (p != nil) != wok || (p != nil && *p != want) {
				t.Fatalf("op %d: Ptr(%#x) = %v, want present=%v value %d", i, o.key, p, wok, want)
			}
		case 3:
			p, existed := tab.Upsert(o.key)
			if _, had := ref[o.key]; existed != had {
				t.Fatalf("op %d: Upsert(%#x) existed = %v, want %v", i, o.key, existed, had)
			}
			*p += o.val
			ref[o.key] += o.val
		case 4:
			want, had := ref[o.key]
			if got, ok := tab.Take(o.key); got != want || ok != had {
				t.Fatalf("op %d: Take(%#x) = (%d, %v), want (%d, %v)", i, o.key, got, ok, want, had)
			}
			delete(ref, o.key)
		case 5:
			remove := o.val%2 == 0
			_, had := ref[o.key]
			called := false
			tab.Edit(o.key, func(v *uint64) bool {
				called = true
				*v += o.val
				return remove
			})
			if called != had {
				t.Fatalf("op %d: Edit(%#x) called f %v, want %v", i, o.key, called, had)
			}
			if had {
				ref[o.key] += o.val
				if remove {
					delete(ref, o.key)
				}
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, tab.Len(), len(ref))
		}
	}
	want := make([]uint64, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := tab.SortedKeys()
	if len(want) == 0 {
		want = got[:0]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
	seen := 0
	tab.ForEach(func(k, v uint64) {
		seen++
		if rv, ok := ref[k]; !ok || rv != v {
			t.Fatalf("ForEach yields %#x=%d, reference has (%d, %v)", k, v, rv, ok)
		}
	})
	if seen != len(ref) {
		t.Fatalf("ForEach visited %d entries, want %d", seen, len(ref))
	}
	for _, k := range want {
		got, ok := tab.Get(k)
		if !ok || got != ref[k] {
			t.Fatalf("final Get(%#x) = (%d, %v), want %d", k, got, ok, ref[k])
		}
	}
}

// randomOps draws n ops over keys from key, with the extreme keys 0 and
// ^0 mixed in.
func randomOps(rng *rand.Rand, n int, key func() uint64) []tableOp {
	ops := make([]tableOp, n)
	for i := range ops {
		k := key()
		switch rng.Intn(16) {
		case 0:
			k = 0
		case 1:
			k = ^uint64(0)
		}
		ops[i] = tableOp{op: rng.Intn(4), key: k, val: rng.Uint64()}
	}
	return ops
}

func TestTableMatchesMap(t *testing.T) {
	cases := []struct {
		name string
		key  func(rng *rand.Rand) uint64
	}{
		// A dense small key space: heavy overwrite, delete and reinsert.
		{"dense", func(rng *rand.Rand) uint64 { return uint64(rng.Intn(300)) }},
		// Full-width random keys: growth through several doublings.
		{"wide", func(rng *rand.Rand) uint64 { return rng.Uint64() }},
		// Sparse yada-like line addresses: a few hot regions of 64-byte
		// lines spread far apart, strided keys that defeat low-bit hashing.
		{"sparse-lines", func(rng *rand.Rand) uint64 {
			region := uint64(rng.Intn(12)) << 28
			return 1<<30 + region + uint64(rng.Intn(4096))*64
		}},
		// Word addresses of one page per region: stride 8.
		{"words", func(rng *rand.Rand) uint64 {
			return 1<<40 + uint64(rng.Intn(64))<<12 + uint64(rng.Intn(512))*8
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				checkTable(t, randomOps(rng, 20_000, func() uint64 { return c.key(rng) }))
			}
		})
	}
}

// TestTableTakeMatchesMap checks Take and Edit against the map model on
// op mixes of puts, upserts, gets, takes and edits, key 0 included. The
// keys are dense, so most takes and deleting edits empty a slot inside a
// probe run and shift later entries back; the test counts those to be
// sure the shift path runs.
func TestTableTakeMatchesMap(t *testing.T) {
	kinds := []int{0, 2, 3, 4, 4, 5, 5}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]tableOp, 20_000)
		for i := range ops {
			ops[i] = tableOp{op: kinds[rng.Intn(len(kinds))], key: uint64(rng.Intn(200)), val: rng.Uint64()}
		}
		checkTable(t, ops)
	}
	tab := NewTable[uint64](0)
	shifted := 0
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20_000; i++ {
		k := uint64(rng.Intn(200))
		if rng.Intn(2) == 0 {
			tab.Put(k, k)
			continue
		}
		if j := tab.find(k); j >= 0 && tab.slots[(j+1)&(len(tab.slots)-1)].key != 0 {
			shifted++
		}
		if rng.Intn(2) == 0 {
			if v, ok := tab.Take(k); ok && v != k {
				t.Fatalf("Take(%d) = %d", k, v)
			}
		} else {
			tab.Edit(k, func(v *uint64) bool {
				if *v != k {
					t.Fatalf("Edit(%d) sees %d", k, *v)
				}
				return true
			})
		}
	}
	if shifted == 0 {
		t.Fatal("no take or edit emptied a slot inside a probe run")
	}
}

// TestTableDeleteAll grows a table, deletes every key in insertion order
// and in reverse, and checks each removal leaves the rest reachable.
func TestTableDeleteAll(t *testing.T) {
	for _, reverse := range []bool{false, true} {
		tab := NewTable[uint64](0)
		var keys []uint64
		for i := uint64(0); i < 5000; i++ {
			k := i * 4096 // strided: many keys share low bits
			keys = append(keys, k)
			tab.Put(k, i)
		}
		if reverse {
			for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
		for n, k := range keys {
			if !tab.Delete(k) {
				t.Fatalf("Delete(%#x) missed", k)
			}
			if n%97 == 0 {
				for _, r := range keys[n+1:] {
					if v, ok := tab.Get(r); !ok || v != r/4096 {
						t.Fatalf("after deleting %#x, Get(%#x) = (%d, %v)", k, r, v, ok)
					}
				}
			}
		}
		if tab.Len() != 0 {
			t.Fatalf("Len = %d after deleting everything", tab.Len())
		}
	}
}

// TestTableExtremeKeys pins the out-of-band key 0 and the all-ones key.
func TestTableExtremeKeys(t *testing.T) {
	tab := NewTable[string](4)
	if _, ok := tab.Get(0); ok {
		t.Fatal("empty table has key 0")
	}
	tab.Put(0, "zero")
	tab.Put(^uint64(0), "max")
	tab.Put(1, "one")
	if v, ok := tab.Get(0); !ok || v != "zero" {
		t.Fatalf("Get(0) = (%q, %v)", v, ok)
	}
	if v, ok := tab.Get(^uint64(0)); !ok || v != "max" {
		t.Fatalf("Get(^0) = (%q, %v)", v, ok)
	}
	if got := tab.SortedKeys(); !reflect.DeepEqual(got, []uint64{0, 1, ^uint64(0)}) {
		t.Fatalf("SortedKeys = %v", got)
	}
	var first uint64 = 1
	tab.ForEach(func(k uint64, _ string) {
		if first == 1 {
			first = k
		}
	})
	if first != 0 {
		t.Fatalf("ForEach visits key %#x first, want key 0", first)
	}
	if !tab.Delete(0) || tab.Delete(0) {
		t.Fatal("Delete(0) should succeed once")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	var nilTab *Table[int]
	if nilTab.Len() != 0 || len(nilTab.SortedKeys()) != 0 {
		t.Fatal("nil table is not empty")
	}
}

// TestTableIterationDeterministic builds the same table twice, in separate
// instances, and checks ForEach visits the same sequence: iteration order
// depends only on the operation sequence.
func TestTableIterationDeterministic(t *testing.T) {
	build := func() []string {
		rng := rand.New(rand.NewSource(7))
		tab := NewTable[uint64](0)
		for i := 0; i < 10_000; i++ {
			k := uint64(rng.Intn(4000)) * 64
			if rng.Intn(3) == 0 {
				tab.Delete(k)
			} else {
				tab.Put(k, uint64(i))
			}
		}
		var seq []string
		tab.ForEach(func(k, v uint64) { seq = append(seq, fmt.Sprintf("%x=%d", k, v)) })
		return seq
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical operation sequences iterate differently")
	}
	if len(a) == 0 {
		t.Fatal("empty iteration")
	}
}

// TestTableGrowsOnlyOnInsert fills a table to its ¾ limit and checks that
// updating present keys keeps the capacity, while one more key doubles it.
func TestTableGrowsOnlyOnInsert(t *testing.T) {
	tab := NewTable[uint64](6)
	for k := uint64(1); k <= 6; k++ {
		tab.Put(k*64, k)
	}
	for k := uint64(1); k <= 6; k++ {
		tab.Put(k*64, k+100)
	}
	if len(tab.slots) != 8 {
		t.Fatalf("updates at the load limit grew the table to %d slots", len(tab.slots))
	}
	tab.Put(7*64, 7)
	if len(tab.slots) != 16 || tab.Len() != 7 {
		t.Fatalf("after a 7th key: %d slots, %d entries; want 16, 7", len(tab.slots), tab.Len())
	}
	for k := uint64(1); k <= 6; k++ {
		if v, _ := tab.Get(k * 64); v != k+100 {
			t.Fatalf("Get(%#x) = %d after growth, want %d", k*64, v, k+100)
		}
	}
}

func TestTableClone(t *testing.T) {
	tab := NewTable[uint64](0)
	for k := uint64(0); k < 100; k++ {
		tab.Put(k*8, k)
	}
	c := tab.Clone()
	tab.Put(8, 999)
	tab.Delete(16)
	if v, _ := c.Get(8); v != 1 {
		t.Fatalf("clone sees a later Put: %d", v)
	}
	if _, ok := c.Get(16); !ok || c.Len() != 100 {
		t.Fatal("clone sees a later Delete")
	}
}

// FuzzTable decodes the input as a sequence of 9-byte ops (op byte, key)
// over a narrow key space, so collisions, growth and backward-shift
// deletes all occur, and checks the table against a Go map.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 9*40))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []tableOp
		for len(data) >= 9 {
			k := binary.LittleEndian.Uint64(data[1:9])
			if data[0]&0x80 == 0 {
				k &= 0x3ff << 6 // narrow: 1024 line-aligned keys
			}
			ops = append(ops, tableOp{op: int(data[0] & 3), key: k, val: uint64(len(ops))})
			data = data[9:]
		}
		checkTable(t, ops)
	})
}
