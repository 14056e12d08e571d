package ds

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/trace"
)

func newHeap() *trace.Heap {
	cfg := sim.DefaultConfig()
	return trace.NewHeap(&cfg)
}

// collect attaches a consumer to h and returns the accesses it has been
// handed since.
func collect(h *trace.Heap) *[]trace.Op {
	var ops []trace.Op
	h.SetConsumer(func(op trace.Op) { ops = append(ops, op) })
	return &ops
}

// each constructor under test.
func builders() map[string]func(h *trace.Heap) KV {
	return map[string]func(h *trace.Heap) KV{
		"hashtable": func(h *trace.Heap) KV { return NewHashTable(h, 16) },
		"btree":     func(h *trace.Heap) KV { return NewBTree(h) },
		"art":       func(h *trace.Heap) KV { return NewART(h) },
		"rbtree":    func(h *trace.Heap) KV { return NewRBTree(h) },
	}
}

func TestInsertGetBasic(t *testing.T) {
	for name, build := range builders() {
		h := newHeap()
		kv := build(h)
		if _, ok := kv.Get(42); ok {
			t.Fatalf("%s: empty Get hit", name)
		}
		kv.Insert(42, 1)
		kv.Insert(7, 2)
		kv.Insert(42, 3) // update
		if v, ok := kv.Get(42); !ok || v != 3 {
			t.Fatalf("%s: Get(42) = %d,%v", name, v, ok)
		}
		if v, ok := kv.Get(7); !ok || v != 2 {
			t.Fatalf("%s: Get(7) = %d,%v", name, v, ok)
		}
		if _, ok := kv.Get(99); ok {
			t.Fatalf("%s: phantom key", name)
		}
		if kv.Len() != 2 {
			t.Fatalf("%s: len = %d", name, kv.Len())
		}
	}
}

func TestEmitsAccesses(t *testing.T) {
	for name, build := range builders() {
		h := newHeap()
		kv := build(h)
		got := collect(h)
		kv.Insert(1234, 1)
		ops := *got
		if len(ops) == 0 {
			t.Fatalf("%s: insert emitted no accesses", name)
		}
		stores := 0
		for _, op := range ops {
			if op.Write {
				stores++
			}
		}
		if stores == 0 {
			t.Fatalf("%s: insert emitted no stores", name)
		}
	}
}

// Property: every structure behaves exactly like a map under random
// insert/update/get sequences.
func TestMatchesMapOracle(t *testing.T) {
	for name, build := range builders() {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := sim.NewRNG(seed)
				h := newHeap()
				kv := build(h)
				oracle := map[uint64]uint64{}
				for i := 0; i < 2000; i++ {
					key := uint64(r.Intn(500))
					switch r.Intn(3) {
					case 0, 1:
						val := r.Uint64()
						kv.Insert(key, val)
						oracle[key] = val
					case 2:
						got, ok := kv.Get(key)
						want, wok := oracle[key]
						if ok != wok || (ok && got != want) {
							return false
						}
					}
				}
				if kv.Len() != len(oracle) {
					return false
				}
				for k, want := range oracle {
					if got, ok := kv.Get(k); !ok || got != want {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBTreeStructure(t *testing.T) {
	h := newHeap()
	bt := NewBTree(h)
	r := sim.NewRNG(4)
	for i := 0; i < 20000; i++ {
		bt.Insert(r.Uint64(), uint64(i))
	}
	if !bt.Validate() {
		t.Fatal("B+Tree ordering invariant violated")
	}
	if bt.Splits == 0 {
		t.Fatal("no splits at 20k keys")
	}
	if d := bt.Depth(); d < 2 || d > 5 {
		t.Fatalf("depth = %d, implausible for 20k keys at fanout 64", d)
	}
}

func TestBTreeSequentialKeys(t *testing.T) {
	h := newHeap()
	bt := NewBTree(h)
	for i := uint64(0); i < 5000; i++ {
		bt.Insert(i, i*2)
	}
	if !bt.Validate() {
		t.Fatal("invariant violated on sequential keys")
	}
	for i := uint64(0); i < 5000; i++ {
		if v, ok := bt.Get(i); !ok || v != i*2 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestRBTreeInvariants(t *testing.T) {
	h := newHeap()
	rb := NewRBTree(h)
	r := sim.NewRNG(9)
	for i := 0; i < 10000; i++ {
		rb.Insert(r.Uint64()%5000, uint64(i))
		if i%1000 == 0 && !rb.Validate() {
			t.Fatalf("red-black invariants violated at insert %d", i)
		}
	}
	if !rb.Validate() {
		t.Fatal("final red-black invariants violated")
	}
	if rb.Rotations == 0 {
		t.Fatal("no rotations over 10k inserts")
	}
}

func TestARTGrowth(t *testing.T) {
	h := newHeap()
	art := NewART(h)
	// Keys sharing the top 7 bytes force a dense final level that must
	// grow 4 -> 16 -> 48 -> 256.
	for i := uint64(0); i < 256; i++ {
		art.Insert(0xAABBCCDDEEFF0000|i, i)
	}
	if art.Grows < 3 {
		t.Fatalf("grows = %d, want >= 3 (4->16->48->256)", art.Grows)
	}
	for i := uint64(0); i < 256; i++ {
		if v, ok := art.Get(0xAABBCCDDEEFF0000 | i); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestARTDeepSplit(t *testing.T) {
	h := newHeap()
	art := NewART(h)
	// Two keys differing only in the last byte: the leaf split must build
	// a chain down to depth 7.
	art.Insert(0x1111111111111100, 1)
	art.Insert(0x1111111111111101, 2)
	if v, _ := art.Get(0x1111111111111100); v != 1 {
		t.Fatal("first key lost after deep split")
	}
	if v, _ := art.Get(0x1111111111111101); v != 2 {
		t.Fatal("second key lost after deep split")
	}
	if art.Len() != 2 {
		t.Fatalf("len = %d", art.Len())
	}
}

func TestHashTableRehash(t *testing.T) {
	h := newHeap()
	ht := NewHashTable(h, 16)
	for i := uint64(0); i < 1000; i++ {
		ht.Insert(i, i)
	}
	if ht.Rehashes == 0 {
		t.Fatal("no rehash after 1000 inserts into 16 buckets")
	}
	for i := uint64(0); i < 1000; i++ {
		if v, ok := ht.Get(i); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v after rehash", i, v, ok)
		}
	}
}

func TestBTreeWriteBurst(t *testing.T) {
	// Inserting into the front of a near-full leaf must emit a burst of
	// stores (the shifted tail), the pattern the paper highlights.
	h := newHeap()
	bt := NewBTree(h)
	for i := uint64(2); i <= 60; i++ {
		bt.Insert(i*10, i)
	}
	got := collect(h)
	bt.Insert(1, 1) // lands at position 0: shifts 59 entries
	ops := *got
	stores := 0
	for _, op := range ops {
		if op.Write {
			stores++
		}
	}
	if stores < 60 {
		t.Fatalf("front insert emitted %d stores, want a shift burst", stores)
	}
}

// TestHashTableGetAllocatesNothing guards the chain walk: a lookup follows
// host pointers and allocates nothing, hit or miss.
func TestHashTableGetAllocatesNothing(t *testing.T) {
	h := newHeap()
	ht := NewHashTable(h, 16)
	for i := uint64(0); i < 1000; i++ {
		ht.Insert(i, i)
	}
	if n := testing.AllocsPerRun(100, func() {
		ht.Get(500)
		ht.Get(5000)
	}); n != 0 {
		t.Fatalf("HashTable.Get made %v allocations", n)
	}
}
