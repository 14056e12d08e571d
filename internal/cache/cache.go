// Package cache implements the set-associative cache arrays used for the
// simulated L1s, L2s and LLC slices. Lines carry MESI state, a dirty bit and
// the 16-bit OID (version) tag that NVOverlay adds to every cache tag in the
// hierarchy. Replacement is true LRU. A probe scans a set's row of keys
// (tag+1, 0 when free) and, on a fill, its row of LRU ticks; it touches a
// Line only on a hit or an install. Levels assembles the arrays into the
// simulated machine that both coherence protocols run over.
package cache

import (
	"fmt"
	"math/bits"
)

// State is a MESI coherence state.
type State uint8

// MESI states. Invalid lines are also recognised by Line.Valid == false.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("?%d", uint8(s))
	}
}

// Writable reports whether a line in this state may be stored to without a
// coherence transaction.
func (s State) Writable() bool { return s == Exclusive || s == Modified }

// Line is one cache slot. OID is the epoch in which the line's data was last
// written (the paper's 16-bit version tag; we hold it in a uint64 and let the
// epoch package narrow it when the wrap-around mode is exercised). Data is a
// compact stand-in for the line's 64-byte payload: workloads write opaque
// tokens into it, which lets recovery tests verify snapshot contents
// end-to-end without simulating full cache-line data. The fields are ordered
// so a Line packs into 32 bytes. Valid and Tag mirror the cache's key row and
// are written only by this package.
type Line struct {
	Tag   uint64 // full line address (line-aligned)
	OID   uint64
	Data  uint64
	Valid bool
	State State
	Dirty bool
}

// Cache is one set-associative array. Probes scan two dense per-slot rows
// instead of the Lines: keys holds Tag+1 for a valid slot and 0 for a free
// one, and lru holds the tick of the slot's last use. A 16-way set's key
// row is two host cache lines.
type Cache struct {
	name    string
	sets    int
	ways    int
	div     uint64 // lineSize*stride: (addr/div)&setMask is addr's set
	shift   uint   // log2(div) when div is a power of two, else 0
	setMask uint64 // sets-1
	keys    []uint64
	lru     []uint64
	lines   []Line // sets*ways, row-major by set
	tick    uint64
	scratch []Line // reused by CollectValid (hot-path: no per-call alloc)

	// Stats.
	Hits, Misses, Evictions uint64
}

// New builds a cache of the given total size. size must be divisible by
// ways*lineSize and the resulting set count must be a power of two.
func New(name string, size, ways, lineSize int) *Cache {
	return NewStrided(name, size, ways, lineSize, 1)
}

// NewStrided builds a cache slice of an address-interleaved array: lines
// are distributed over `stride` slices by low line bits, so this slice's
// set index skips those bits (real multi-slice LLCs do the same; without
// it, half the sets would alias with the slice selector and thrash).
func NewStrided(name string, size, ways, lineSize, stride int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d ways=%d line=%d", name, size, ways, lineSize))
	}
	sets := size / (ways * lineSize)
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	if stride < 1 {
		stride = 1
	}
	div := uint64(lineSize) * uint64(stride)
	rows := make([]uint64, 2*sets*ways) // one allocation for both rows
	return &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		div:     div,
		shift:   pow2Shift(div),
		setMask: uint64(sets - 1),
		keys:    rows[:sets*ways],
		lru:     rows[sets*ways:],
		lines:   make([]Line, sets*ways),
	}
}

// pow2Shift returns log2(n) when n is a power of two greater than one, and
// 0 otherwise, which tells index computations to fall back to division.
func pow2Shift(n uint64) uint {
	if n < 2 || n&(n-1) != 0 {
		return 0
	}
	return uint(bits.TrailingZeros64(n))
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// setBase returns the index of the first slot of addr's set.
func (c *Cache) setBase(addr uint64) int {
	idx := addr >> c.shift
	if c.shift == 0 {
		idx = addr / c.div
	}
	return int(idx&c.setMask) * c.ways
}

// find returns the slot holding addr, or -1.
func (c *Cache) find(addr uint64) int {
	base := c.setBase(addr)
	key := addr + 1
	for i, k := range c.keys[base : base+c.ways] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// Lookup returns the line holding addr, or nil on miss. A hit refreshes LRU
// and increments the hit counter; a miss increments the miss counter.
func (c *Cache) Lookup(addr uint64) *Line {
	i := c.find(addr)
	if i < 0 {
		c.Misses++
		return nil
	}
	c.tick++
	c.lru[i] = c.tick
	c.Hits++
	return &c.lines[i]
}

// Peek returns the line holding addr without touching LRU or counters.
func (c *Cache) Peek(addr uint64) *Line {
	if i := c.find(addr); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Insert places addr into the cache and returns the pointer to its line plus
// the evicted victim (by value) when an occupied slot had to be reclaimed.
// The caller is responsible for handling the victim (write-back, directory
// update) before using the new line. If addr is already resident its line is
// reused in place and no victim is produced. Otherwise the line takes the
// set's first free way or, in a full set, the least recently used one (the
// first of them on a tie).
func (c *Cache) Insert(addr uint64) (ln *Line, victim Line, evicted bool) {
	base := c.setBase(addr)
	key := addr + 1
	keys, lru := c.keys[base:base+c.ways], c.lru[base:base+c.ways]
	free, oldest := -1, 0
	for i, k := range keys {
		switch {
		case k == key:
			c.tick++
			lru[i] = c.tick
			return &c.lines[base+i], Line{}, false
		case k == 0:
			if free < 0 {
				free = i
			}
		case lru[i] < lru[oldest]:
			oldest = i
		}
	}
	slot := free
	if slot < 0 {
		slot = oldest
		victim = c.lines[base+slot]
		evicted = true
		c.Evictions++
	}
	c.tick++
	keys[slot] = key
	lru[slot] = c.tick
	c.lines[base+slot] = Line{Valid: true, Tag: addr, State: Invalid}
	return &c.lines[base+slot], victim, evicted
}

// Invalidate removes addr from the cache, returning the removed line by
// value so the caller can inspect its dirty state, and whether it was found.
func (c *Cache) Invalidate(addr uint64) (Line, bool) {
	i := c.find(addr)
	if i < 0 {
		return Line{}, false
	}
	removed := c.lines[i]
	c.lines[i] = Line{}
	c.keys[i] = 0
	return removed, true
}

// ForEach invokes fn on every valid line. fn may mutate the line (the tag
// walker uses this to downgrade M lines after persisting them) but must not
// invalidate it; use CollectValid + Invalidate for removal.
func (c *Cache) ForEach(fn func(*Line)) {
	for i, k := range c.keys {
		if k != 0 {
			fn(&c.lines[i])
		}
	}
}

// CollectValid returns copies of all valid lines; useful for walks that will
// mutate the cache while iterating. The returned slice is backed by a
// per-cache scratch buffer and is only valid until the next CollectValid
// call on the same cache; every caller consumes the previous result before
// asking again, so the eviction/walk paths run allocation-free.
func (c *Cache) CollectValid() []Line {
	if c.scratch == nil {
		c.scratch = make([]Line, 0, min(64, c.sets*c.ways))
	}
	out := c.scratch[:0]
	for i, k := range c.keys {
		if k != 0 {
			out = append(out, c.lines[i])
		}
	}
	c.scratch = out
	return out
}

// Flush invalidates every line and hands each dirty one (by value) to fn,
// in slot order, so the caller can write it back. Used by epoch
// wrap-around resets and by end-of-run drains. fn must not touch this
// cache: it runs while the flush is under way.
func (c *Cache) Flush(fn func(Line)) {
	for i, k := range c.keys {
		if k != 0 && c.lines[i].Dirty {
			fn(c.lines[i])
		}
		c.lines[i] = Line{}
		c.keys[i] = 0
	}
}
