package ds

import "repro/internal/trace"

// htNode is one chain node: key, value, next (24 bytes, one line). addr is
// its heap address; the simulated next field holds next's.
type htNode struct {
	key, val uint64
	next     *htNode
	addr     uint64
}

// HashTable is a chained hash table in the style of std::unordered_map:
// an array of bucket head pointers plus per-entry chain nodes, doubling
// the bucket array when the load factor reaches 1 (a full rehash that
// touches every node — the bursty behaviour the paper's Hash Table
// workload stresses).
type HashTable struct {
	sharedHeap
	bucketBase uint64
	nbuckets   int
	buckets    []*htNode
	size       int

	// Rehashes counts full-table rehash events.
	Rehashes int
}

// NewHashTable creates a table with the given initial bucket count
// (rounded up to a power of two).
func NewHashTable(h *trace.Heap, initialBuckets int) *HashTable {
	n := 16
	for n < initialBuckets {
		n *= 2
	}
	t := &HashTable{
		sharedHeap: sharedHeap{h},
		nbuckets:   n,
		buckets:    make([]*htNode, n),
	}
	t.bucketBase = h.Alloc(n * 8)
	return t
}

func (t *HashTable) bucketAddr(idx int) uint64 { return t.bucketBase + uint64(idx*8) }

// Insert adds or updates a key.
func (t *HashTable) Insert(key, val uint64) {
	idx := int(hash64(key) % uint64(t.nbuckets))
	t.h.Load(t.bucketAddr(idx))
	for n := t.buckets[idx]; n != nil; n = n.next {
		t.h.Load(n.addr) // key + next share the node's line
		if n.key == key {
			t.h.Store(n.addr + 8)
			n.val = val
			return
		}
	}
	n := &htNode{key: key, val: val, next: t.buckets[idx], addr: t.h.Alloc(24)}
	t.h.Store(n.addr) // key/val/next written together (one line)
	t.h.Store(t.bucketAddr(idx))
	t.buckets[idx] = n
	t.size++
	if t.size > t.nbuckets {
		t.rehash()
	}
}

// Get looks a key up.
func (t *HashTable) Get(key uint64) (uint64, bool) {
	idx := int(hash64(key) % uint64(t.nbuckets))
	t.h.Load(t.bucketAddr(idx))
	for n := t.buckets[idx]; n != nil; n = n.next {
		t.h.Load(n.addr)
		if n.key == key {
			return n.val, true
		}
	}
	return 0, false
}

// Len returns the number of entries.
func (t *HashTable) Len() int { return t.size }

// rehash doubles the bucket array and relinks every node, emitting the
// full-table traffic burst real unordered_map growth causes.
func (t *HashTable) rehash() {
	t.Rehashes++
	old := t.buckets
	t.nbuckets *= 2
	t.buckets = make([]*htNode, t.nbuckets)
	t.bucketBase = t.h.Alloc(t.nbuckets * 8)
	for _, n := range old {
		for n != nil {
			t.h.Load(n.addr)
			next := n.next
			idx := int(hash64(n.key) % uint64(t.nbuckets))
			n.next = t.buckets[idx]
			t.h.Store(n.addr + 16) // relink
			t.h.Store(t.bucketAddr(idx))
			t.buckets[idx] = n
			n = next
		}
	}
}
