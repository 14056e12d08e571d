package cache

import "testing"

// refDir mirrors Directory operations on a plain map for cross-checking.
type refDir map[uint64]DirEntry

// deleteIfEmpty removes addr's entry when it records no sharers and no
// owner, the pruning Levels.DropVD does.
func deleteIfEmpty(d *Directory, addr uint64) {
	if e := d.Ptr(addr); e != nil && e.Sharers.None() && e.Owner == -1 {
		d.Delete(addr)
	}
}

func TestDirectoryAgainstMapModel(t *testing.T) {
	d := &Directory{}
	ref := refDir{}
	// Deterministic pseudo-random op stream over a working set with heavy
	// collisions (line-aligned addresses, as the hierarchies produce).
	x := uint64(0x2545F4914F6CDD1D)
	rnd := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for step := 0; step < 200000; step++ {
		addr := (rnd() % 4096) << 6
		switch rnd() % 5 {
		case 0, 1: // GetOrCreate + mutate
			e := d.GetOrCreate(addr)
			if _, ok := ref[addr]; !ok {
				ref[addr] = DirEntry{Owner: -1}
			}
			re := ref[addr]
			if e.Sharers != re.Sharers || e.Owner != re.Owner {
				t.Fatalf("step %d: entry %#x = %+v, want %+v", step, addr, *e, re)
			}
			e.Sharers.Add(int(rnd() % 8))
			e.Owner = int(rnd()%8) - 1
			ref[addr] = *e
		case 2: // Ptr
			e := d.Ptr(addr)
			re, ok := ref[addr]
			if (e != nil) != ok {
				t.Fatalf("step %d: Ptr(%#x) presence %v, want %v", step, addr, e != nil, ok)
			}
			if e != nil && (*e != re) {
				t.Fatalf("step %d: Ptr(%#x) = %+v, want %+v", step, addr, *e, re)
			}
		case 3: // Delete
			d.Delete(addr)
			delete(ref, addr)
		case 4: // delete if empty
			if e := d.Ptr(addr); e != nil {
				if rnd()%2 == 0 {
					e.Sharers = SharerSet{}
					e.Owner = -1
					ref[addr] = *e
				}
			}
			deleteIfEmpty(d, addr)
			if re, ok := ref[addr]; ok && re.Sharers.None() && re.Owner == -1 {
				delete(ref, addr)
			}
		}
		if d.Len() != len(ref) {
			t.Fatalf("step %d: Len() = %d, want %d", step, d.Len(), len(ref))
		}
	}
	// Full-content comparison via SortedKeys.
	keys := d.SortedKeys()
	if len(keys) != len(ref) {
		t.Fatalf("SortedKeys returned %d keys, want %d", len(keys), len(ref))
	}
	for _, k := range keys {
		re, ok := ref[k]
		if !ok {
			t.Fatalf("spurious key %#x", k)
		}
		if e := d.Ptr(k); *e != re {
			t.Fatalf("key %#x = %+v, want %+v", k, *e, re)
		}
	}
}

// TestDirectoryForEachDeterministicAndDeleteSafe checks that ForEach
// visits entries in the same order for the same operation sequence, and
// that the collect-then-delete pattern (the table forbids deleting during
// ForEach) prunes exactly the chosen entries and leaves the rest intact.
func TestDirectoryForEachDeterministicAndDeleteSafe(t *testing.T) {
	build := func() *Directory {
		d := &Directory{}
		for i := uint64(0); i < 1000; i++ {
			e := d.GetOrCreate(i << 6)
			e.Sharers.Add(int(i % 256))
		}
		return d
	}
	var order1, order2 []uint64
	build().ForEach(func(addr uint64, _ DirEntry) { order1 = append(order1, addr) })
	build().ForEach(func(addr uint64, _ DirEntry) { order2 = append(order2, addr) })
	if len(order1) != 1000 || len(order2) != 1000 {
		t.Fatalf("ForEach visited %d/%d entries, want 1000", len(order1), len(order2))
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatalf("ForEach order differs at %d: %#x vs %#x", i, order1[i], order2[i])
		}
	}
	// Collect, then empty and prune every other entry.
	d := build()
	var addrs []uint64
	d.ForEach(func(addr uint64, _ DirEntry) { addrs = append(addrs, addr) })
	for _, addr := range addrs {
		if addr%(2<<6) == 0 {
			d.Ptr(addr).Sharers = SharerSet{}
		}
		deleteIfEmpty(d, addr)
	}
	if d.Len() != 500 {
		t.Fatalf("after pruning half: Len() = %d, want 500", d.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		e := d.Ptr(i << 6)
		if i%2 == 0 {
			if e != nil {
				t.Fatalf("pruned entry %#x still present", i<<6)
			}
			continue
		}
		if e == nil || !e.Sharers.Only(int(i%256)) || e.Owner != -1 {
			t.Fatalf("surviving entry %#x = %+v, want sharer %d only", i<<6, e, i%256)
		}
	}
}

func TestDirectoryReset(t *testing.T) {
	d := &Directory{}
	for i := uint64(0); i < 100; i++ {
		e := d.GetOrCreate(i << 6)
		e.Sharers.Add(1)
		e.Owner = 2
	}
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("Len after Reset = %d", d.Len())
	}
	if keys := d.SortedKeys(); len(keys) != 0 {
		t.Fatalf("SortedKeys after Reset = %v", keys)
	}
	// Reusable after reset, and a re-created entry starts empty.
	e := d.GetOrCreate(64)
	if !e.Sharers.None() || e.Owner != -1 {
		t.Fatalf("entry re-created after Reset = %+v, want {Owner: -1}", *e)
	}
	e.Sharers.Add(0)
	keys := d.SortedKeys()
	if len(keys) != 1 || keys[0] != 64 {
		t.Fatalf("post-Reset insert: keys = %v", keys)
	}
}
