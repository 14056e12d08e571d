package mem

import (
	"math/bits"
	"slices"
)

// Table is a flat open-addressing hash table from uint64 keys to V, the
// one uint64-keyed table of the simulator's state (content plane, DRAM
// side-band, wear counters, OMC payloads and epoch indexes, the coherence
// directory, golden and recovered images). It uses linear probing over a
// power-of-two slot array with a multiplicative (Fibonacci) hash, deletes
// by backward shift so no tombstones accumulate, and doubles at ¾ load.
//
// Key 0 marks an empty slot, so the table keeps key 0's entry out of band.
// Every uint64 is a valid key.
//
// Iteration (ForEach) visits key 0 first and then the slots in array
// order. The order is a pure function of the operation sequence — there
// is no per-process hash seed — so a deterministic simulation iterates a
// table identically on every run. SortedKeys gives ascending order. Len,
// ForEach and SortedKeys treat a nil table as empty.
//
// A slot costs 8 bytes of key plus V; at the ¾ growth threshold a
// Table[uint64] spends ≈21 B per entry, against ≈25–39 B for a Go map.
type Table[V any] struct {
	slots   []tableSlot[V]
	n       int  // live entries in slots (key 0 excluded)
	shift   uint // 64 - log2(len(slots))
	hasZero bool
	zero    V
}

type tableSlot[V any] struct {
	key uint64 // 0: empty
	val V
}

// tableMinSlots is the capacity of a table's first allocation.
const tableMinSlots = 8

// NewTable returns an empty table sized to hold hint entries without
// growing.
func NewTable[V any](hint int) *Table[V] {
	t := &Table[V]{}
	if hint > 0 {
		t.alloc(slotsFor(hint))
	}
	return t
}

// slotsFor returns the power-of-two slot count that holds n entries under
// the ¾ load limit.
func slotsFor(n int) int {
	c := tableMinSlots
	for c*3/4 < n {
		c *= 2
	}
	return c
}

func (t *Table[V]) alloc(slots int) {
	t.slots = make([]tableSlot[V], slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// home is k's preferred slot. The top bits of (k/8)·2^64/φ pick an
// aligned group of eight slots and k's low three bits a slot within it, so
// the up-to-eight word indices of one line land in one or two cache lines
// while strided keys (line and page addresses) still spread evenly.
func (t *Table[V]) home(k uint64) uint64 {
	return ((k>>3)*0x9e3779b97f4a7c15)>>t.shift ^ k&7
}

// find returns the slot holding k, or -1.
func (t *Table[V]) find(k uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k:
			return int(i)
		case 0:
			return -1
		}
	}
}

// Len returns the number of entries.
func (t *Table[V]) Len() int {
	if t == nil {
		return 0
	}
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// Get returns k's value and whether k is present.
func (t *Table[V]) Get(k uint64) (V, bool) {
	if k == 0 {
		return t.zero, t.hasZero
	}
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Ptr returns a pointer to k's value, or nil when k is absent. The
// pointer is valid until the next insertion or deletion: deletion shifts
// later entries of a probe run back into the freed slot.
func (t *Table[V]) Ptr(k uint64) *V {
	if k == 0 {
		if t.hasZero {
			return &t.zero
		}
		return nil
	}
	if i := t.find(k); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// Put sets k's value.
func (t *Table[V]) Put(k uint64, v V) {
	p, _ := t.Upsert(k)
	*p = v
}

// Upsert returns a pointer to k's value, inserting the zero value first
// when k is absent; existed reports whether it was present. The pointer
// is valid until the next insertion or deletion.
func (t *Table[V]) Upsert(k uint64) (p *V, existed bool) {
	if k == 0 {
		existed = t.hasZero
		t.hasZero = true
		return &t.zero, existed
	}
	if len(t.slots) > 0 {
		mask := uint64(len(t.slots) - 1)
		for i := t.home(k); ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.key == k {
				return &s.val, true
			}
			if s.key == 0 {
				if (t.n+1)*4 > len(t.slots)*3 {
					break // inserting would pass ¾ load
				}
				s.key = k
				t.n++
				return &s.val, false
			}
		}
	}
	t.grow()
	s := &t.slots[t.free(k)]
	s.key = k
	t.n++
	return &s.val, false
}

// free returns the empty slot where k, known to be absent, is inserted.
func (t *Table[V]) free(k uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := t.home(k)
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the slot array and reinserts every entry.
func (t *Table[V]) grow() {
	old := t.slots
	t.alloc(max(tableMinSlots, 2*len(old)))
	for _, s := range old {
		if s.key != 0 {
			t.slots[t.free(s.key)] = s
		}
	}
}

// Delete removes k and reports whether it was present. The slots after it
// in its probe run shift back, so lookups never cross a tombstone.
func (t *Table[V]) Delete(k uint64) bool {
	_, ok := t.Take(k)
	return ok
}

// Take removes k and returns the value it held, with one probe where Ptr
// then Delete would take two; ok reports whether k was present.
func (t *Table[V]) Take(k uint64) (v V, ok bool) {
	if k == 0 {
		v, ok = t.zero, t.hasZero
		var zero V
		t.hasZero, t.zero = false, zero
		return v, ok
	}
	i := t.find(k)
	if i < 0 {
		return v, false
	}
	v = t.slots[i].val
	t.deleteAt(i)
	return v, true
}

// Edit calls f on a pointer to k's value, when k is present, and deletes
// k if f returns true, with one probe where Ptr then Delete would take
// two. f must not insert into or delete from the table.
func (t *Table[V]) Edit(k uint64, f func(v *V) (remove bool)) {
	if k == 0 {
		if t.hasZero && f(&t.zero) {
			var zero V
			t.hasZero, t.zero = false, zero
		}
		return
	}
	if i := t.find(k); i >= 0 && f(&t.slots[i].val) {
		t.deleteAt(i)
	}
}

// deleteAt empties slot i. The slots after it in its probe run shift
// back, so lookups never cross a tombstone.
func (t *Table[V]) deleteAt(i int) {
	mask := uint64(len(t.slots) - 1)
	hole := uint64(i)
	for j := (hole + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole only if its home is not in the
		// cyclic range (hole, j]: otherwise moving it would put it before
		// its home, out of reach of its probe.
		if (j-t.home(t.slots[j].key))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = tableSlot[V]{}
	t.n--
}

// Reset empties the table and keeps its slot array for reuse.
func (t *Table[V]) Reset() {
	clear(t.slots)
	var zero V
	t.n, t.hasZero, t.zero = 0, false, zero
}

// ForEach calls f for every entry: key 0 first, then in slot order. f
// must not insert into or delete from the table.
func (t *Table[V]) ForEach(f func(k uint64, v V)) {
	if t == nil {
		return
	}
	if t.hasZero {
		f(0, t.zero)
	}
	for _, s := range t.slots {
		if s.key != 0 {
			f(s.key, s.val)
		}
	}
}

// SortedKeys returns every key in ascending order.
func (t *Table[V]) SortedKeys() []uint64 {
	keys := make([]uint64, 0, t.Len())
	t.ForEach(func(k uint64, _ V) { keys = append(keys, k) })
	slices.Sort(keys)
	return keys
}

// Clone returns an independent copy of the table (values are copied
// shallowly).
func (t *Table[V]) Clone() *Table[V] {
	c := *t
	c.slots = append([]tableSlot[V](nil), t.slots...)
	return &c
}
