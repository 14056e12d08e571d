package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache { return New("t", 4*2*64, 2, 64) } // 4 sets, 2 ways

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	for _, k := range c.keys {
		if k != 0 {
			n++
		}
	}
	return n
}

// CountDirty returns the number of valid dirty lines.
func (c *Cache) CountDirty() int {
	n := 0
	for i, k := range c.keys {
		if k != 0 && c.lines[i].Dirty {
			n++
		}
	}
	return n
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%v.String() = %q", s, s.String())
		}
	}
	if State(9).String() != "?9" {
		t.Fatal("unknown state string")
	}
	if Shared.Writable() || Invalid.Writable() {
		t.Fatal("S/I must not be writable")
	}
	if !Exclusive.Writable() || !Modified.Writable() {
		t.Fatal("E/M must be writable")
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { New("x", 0, 2, 64) },
		func() { New("x", 3*2*64, 2, 64) }, // 3 sets: not a power of two
		func() { New("x", 128, 0, 64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(0x0) != nil {
		t.Fatal("lookup on empty cache hit")
	}
	ln, _, ev := c.Insert(0x0)
	if ev {
		t.Fatal("insert into empty cache evicted")
	}
	ln.State = Shared
	if got := c.Lookup(0x0); got == nil || got.Tag != 0 {
		t.Fatal("lookup after insert missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestInsertReusesResidentLine(t *testing.T) {
	c := small()
	ln1, _, _ := c.Insert(0x40)
	ln1.State = Modified
	ln1.OID = 7
	ln2, _, ev := c.Insert(0x40)
	if ev {
		t.Fatal("re-insert evicted")
	}
	if ln1 != ln2 {
		t.Fatal("re-insert did not reuse the resident slot")
	}
	if ln2.State != Modified || ln2.OID != 7 {
		t.Fatal("re-insert clobbered line contents")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets, 2 ways; set = (addr/64) % 4
	// Three addresses mapping to set 0: 0, 256, 512.
	a, b, x := uint64(0), uint64(256), uint64(512)
	ln, _, _ := c.Insert(a)
	ln.State = Shared
	ln, _, _ = c.Insert(b)
	ln.State = Shared
	c.Lookup(a) // make b the LRU way
	ln, victim, ev := c.Insert(x)
	if !ev {
		t.Fatal("expected eviction")
	}
	if victim.Tag != b {
		t.Fatalf("victim = %#x, want %#x (LRU)", victim.Tag, b)
	}
	ln.State = Shared
	if c.Peek(a) == nil || c.Peek(x) == nil || c.Peek(b) != nil {
		t.Fatal("post-eviction residency wrong")
	}
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Evictions)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	ln, _, _ := c.Insert(0x40)
	ln.State = Modified
	ln.Dirty = true
	removed, ok := c.Invalidate(0x40)
	if !ok || !removed.Dirty || removed.State != Modified {
		t.Fatalf("invalidate returned %+v ok=%v", removed, ok)
	}
	if _, ok := c.Invalidate(0x40); ok {
		t.Fatal("double invalidate found the line")
	}
	if c.Peek(0x40) != nil {
		t.Fatal("line still resident after invalidate")
	}
}

func TestPeekDoesNotTouchLRUOrStats(t *testing.T) {
	c := small()
	ln, _, _ := c.Insert(0)
	ln.State = Shared
	ln, _, _ = c.Insert(256)
	ln.State = Shared
	hits, misses := c.Hits, c.Misses
	c.Peek(0) // must not refresh LRU of 0
	if c.Hits != hits || c.Misses != misses {
		t.Fatal("peek changed stats")
	}
	_, victim, _ := c.Insert(512)
	if victim.Tag != 0 {
		t.Fatalf("victim = %#x; peek refreshed LRU", victim.Tag)
	}
}

func TestForEachAndCounts(t *testing.T) {
	c := small()
	for i := 0; i < 4; i++ {
		ln, _, _ := c.Insert(uint64(i * 64))
		ln.State = Modified
		ln.Dirty = i%2 == 0
	}
	if c.CountValid() != 4 {
		t.Fatalf("valid = %d", c.CountValid())
	}
	if c.CountDirty() != 2 {
		t.Fatalf("dirty = %d", c.CountDirty())
	}
	n := 0
	c.ForEach(func(ln *Line) {
		n++
		ln.OID = 42
	})
	if n != 4 {
		t.Fatalf("ForEach visited %d", n)
	}
	for _, ln := range c.CollectValid() {
		if ln.OID != 42 {
			t.Fatal("ForEach mutation not visible")
		}
	}
}

func TestFlush(t *testing.T) {
	c := small()
	ln, _, _ := c.Insert(0x40)
	ln.State = Modified
	ln.Dirty = true
	ln, _, _ = c.Insert(0x80)
	ln.State = Shared
	var dirty []Line
	c.Flush(func(ln Line) { dirty = append(dirty, ln) })
	if len(dirty) != 1 || dirty[0].Tag != 0x40 {
		t.Fatalf("flush returned %v", dirty)
	}
	if c.CountValid() != 0 {
		t.Fatal("flush left valid lines")
	}
}

// TestFlushAllocatesNothing: Flush hands lines to its callback with no
// scratch buffer, so a drain allocates nothing, not even on a cache's
// first flush. Each call flushes a fresh cache; AllocsPerRun makes one
// more call than it counts.
func TestFlushAllocatesNothing(t *testing.T) {
	const runs = 20
	caches := make([]*Cache, runs+1)
	for i := range caches {
		caches[i] = small()
		for _, addr := range []uint64{0x40, 0x80, 0xC0, 0x100} {
			ln, _, _ := caches[i].Insert(addr)
			ln.State, ln.Dirty = Modified, true
		}
	}
	n, next := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		caches[next].Flush(func(Line) { n++ })
		next++
	})
	if allocs != 0 {
		t.Fatalf("Flush allocated %.1f times per call, want 0", allocs)
	}
	if n != 4*len(caches) {
		t.Fatalf("Flush handed over %d dirty lines, want %d", n, 4*len(caches))
	}
}

func TestGeometryAccessors(t *testing.T) {
	c := small()
	if c.Name() != "t" || c.sets != 4 || c.ways != 2 || len(c.keys) != 8 {
		t.Fatalf("geometry wrong: %s %d sets %d ways %d slots", c.Name(), c.sets, c.ways, len(c.keys))
	}
}

// Property: after any insert sequence, (a) no set holds more lines than its
// associativity, (b) every resident address maps to its correct set, and
// (c) a line never appears twice.
func TestInsertInvariants(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New("p", 8*4*64, 4, 64)
		for _, a := range addrs {
			addr := uint64(a) &^ 63
			ln, _, _ := c.Insert(addr)
			ln.State = Shared
		}
		seen := map[uint64]bool{}
		perSet := map[int]int{}
		ok := true
		c.ForEach(func(ln *Line) {
			if seen[ln.Tag] {
				ok = false
			}
			seen[ln.Tag] = true
			set := int((ln.Tag / 64) % uint64(c.sets))
			perSet[set]++
			if perSet[set] > c.ways {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a resident line always survives lookups (lookup never evicts).
func TestLookupNeverEvicts(t *testing.T) {
	f := func(addrs []uint16, probes []uint16) bool {
		c := New("p", 4*2*64, 2, 64)
		resident := map[uint64]bool{}
		for _, a := range addrs {
			addr := uint64(a) &^ 63
			ln, victim, ev := c.Insert(addr)
			ln.State = Shared
			if ev {
				delete(resident, victim.Tag)
			}
			resident[addr] = true
		}
		for _, p := range probes {
			c.Lookup(uint64(p) &^ 63)
		}
		for addr := range resident {
			if c.Peek(addr) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
