package cache

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// modelGeoms are the shapes the model test drives: direct-mapped, 4-way
// and 16-way arrays, a slice whose set index needs a division (stride 6)
// and an LLC-shaped 16-way slice of four.
var modelGeoms = []struct{ sets, ways, stride int }{
	{8, 1, 1}, {4, 4, 1}, {2, 16, 1}, {4, 4, 6}, {4, 16, 4},
}

const modelLineSize = 64

// modelSlot is one way of the reference model.
type modelSlot struct {
	line Line
	use  uint64
}

// lruModel is a naive true-LRU array: a slice of ways per set, the set
// index taken with two divisions and every probe a scan of whole Lines.
// Victims are the first free way, else the first least recently used one.
type lruModel struct {
	sets                    [][]modelSlot
	stride                  uint64
	tick                    uint64
	hits, misses, evictions uint64
}

func newLRUModel(sets, ways, stride int) *lruModel {
	m := &lruModel{sets: make([][]modelSlot, sets), stride: uint64(stride)}
	for i := range m.sets {
		m.sets[i] = make([]modelSlot, ways)
	}
	return m
}

func (m *lruModel) set(addr uint64) []modelSlot {
	return m.sets[addr/modelLineSize/m.stride%uint64(len(m.sets))]
}

func (m *lruModel) find(addr uint64) *modelSlot {
	s := m.set(addr)
	for i := range s {
		if s[i].line.Valid && s[i].line.Tag == addr {
			return &s[i]
		}
	}
	return nil
}

func (m *lruModel) lookup(addr uint64) *Line {
	sl := m.find(addr)
	if sl == nil {
		m.misses++
		return nil
	}
	m.hits++
	m.tick++
	sl.use = m.tick
	return &sl.line
}

func (m *lruModel) peek(addr uint64) *Line {
	if sl := m.find(addr); sl != nil {
		return &sl.line
	}
	return nil
}

func (m *lruModel) insert(addr uint64) (*Line, Line, bool) {
	m.tick++
	if sl := m.find(addr); sl != nil {
		sl.use = m.tick
		return &sl.line, Line{}, false
	}
	s := m.set(addr)
	var slot *modelSlot
	for i := range s {
		if !s[i].line.Valid {
			slot = &s[i]
			break
		}
	}
	var victim Line
	evicted := slot == nil
	if evicted {
		slot = &s[0]
		for i := range s {
			if s[i].use < slot.use {
				slot = &s[i]
			}
		}
		victim = slot.line
		m.evictions++
	}
	*slot = modelSlot{line: Line{Valid: true, Tag: addr}, use: m.tick}
	return &slot.line, victim, evicted
}

func (m *lruModel) invalidate(addr uint64) (Line, bool) {
	sl := m.find(addr)
	if sl == nil {
		return Line{}, false
	}
	removed := sl.line
	sl.line = Line{}
	return removed, true
}

// lines returns the valid lines (dirtyOnly: the dirty ones) in slot order,
// invalidating every slot when flush is set.
func (m *lruModel) lines(dirtyOnly, flush bool) []Line {
	var out []Line
	for _, s := range m.sets {
		for i := range s {
			if s[i].line.Valid && (!dirtyOnly || s[i].line.Dirty) {
				out = append(out, s[i].line)
			}
			if flush {
				s[i].line = Line{}
			}
		}
	}
	return out
}

// runModel replays fuzz bytes against a Cache and the model and fails on
// the first return value, victim, counter or count that differs. The
// first byte picks the geometry; each later pair is (operation, line).
// Lines handed out by Insert, Lookup and Peek are then written through
// the returned pointer on both sides, so a pointer to the wrong slot
// shows up on a later probe.
func runModel(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	g := modelGeoms[int(data[0])%len(modelGeoms)]
	c := NewStrided("m", g.sets*g.ways*modelLineSize, g.ways, modelLineSize, g.stride)
	m := newLRUModel(g.sets, g.ways, g.stride)
	span := 2 * g.sets * g.ways * g.stride // lines; every set overflows
	same := func(step int, what string, got, want *Line) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && *got != *want {
			t.Fatalf("step %d: %s = %+v, model %+v", step, what, got, want)
		}
		if got != nil && data[step]&0x80 != 0 {
			for _, ln := range []*Line{got, want} {
				ln.State = State(data[step] >> 5 & 3)
				ln.Dirty = data[step]&0x10 != 0
				ln.OID = uint64(step)
				ln.Data = uint64(data[step+1])<<16 | uint64(step)
			}
		}
	}
	sameLines := func(step int, what string, got, want []Line) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("step %d: %s returned %d lines, model %d", step, what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: %s[%d] = %+v, model %+v", step, what, i, got[i], want[i])
			}
		}
	}
	for i := 1; i+1 < len(data); i += 2 {
		addr := uint64(int(data[i+1])%span) * modelLineSize
		switch data[i] % 8 {
		case 0, 1, 2:
			got, gv, ge := c.Insert(addr)
			want, wv, we := m.insert(addr)
			if gv != wv || ge != we {
				t.Fatalf("step %d: Insert(%#x) victim %+v evicted=%v, model %+v evicted=%v", i, addr, gv, ge, wv, we)
			}
			same(i, "Insert", got, want)
		case 3:
			same(i, "Lookup", c.Lookup(addr), m.lookup(addr))
		case 4:
			same(i, "Peek", c.Peek(addr), m.peek(addr))
		case 5:
			got, gok := c.Invalidate(addr)
			want, wok := m.invalidate(addr)
			if got != want || gok != wok {
				t.Fatalf("step %d: Invalidate(%#x) = %+v %v, model %+v %v", i, addr, got, gok, want, wok)
			}
		case 6:
			sameLines(i, "CollectValid", c.CollectValid(), m.lines(false, false))
		case 7:
			if data[i]&0x70 == 0 {
				var dirty []Line
				c.Flush(func(ln Line) { dirty = append(dirty, ln) })
				sameLines(i, "Flush", dirty, m.lines(true, true))
			} else {
				same(i, "Peek", c.Peek(addr), m.peek(addr))
			}
		}
		if c.Hits != m.hits || c.Misses != m.misses || c.Evictions != m.evictions {
			t.Fatalf("step %d: hits/misses/evictions %d/%d/%d, model %d/%d/%d",
				i, c.Hits, c.Misses, c.Evictions, m.hits, m.misses, m.evictions)
		}
		if gv, gd, wv, wd := c.CountValid(), c.CountDirty(), len(m.lines(false, false)), len(m.lines(true, false)); gv != wv || gd != wd {
			t.Fatalf("step %d: valid/dirty %d/%d, model %d/%d", i, gv, gd, wv, wd)
		}
	}
}

// modelSeeds returns one seeded operation stream per geometry.
func modelSeeds(ops int) [][]byte {
	r := sim.NewRNG(16)
	var seeds [][]byte
	for g := range modelGeoms {
		seed := []byte{byte(g)}
		for i := 0; i < ops; i++ {
			seed = append(seed, byte(r.Intn(256)), byte(r.Intn(256)))
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

// TestCacheMatchesModel drives every geometry with a seeded stream of
// Insert/Lookup/Peek/Invalidate/Flush/CollectValid and requires the
// arrays to agree with the naive model after every operation.
func TestCacheMatchesModel(t *testing.T) {
	for _, seed := range modelSeeds(4000) {
		runModel(t, seed)
	}
}

// FuzzCacheModel is TestCacheMatchesModel over fuzzed operation streams.
func FuzzCacheModel(f *testing.F) {
	for _, seed := range modelSeeds(400) {
		f.Add(seed)
	}
	f.Fuzz(runModel)
}

// TestLineIs32Bytes pins the packed Line: with its key and LRU words a
// slot costs 48 B of host memory.
func TestLineIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 32 {
		t.Fatalf("Line is %d bytes, want 32", n)
	}
}
