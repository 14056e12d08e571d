package trace

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

func cfg() *sim.Config {
	c := sim.DefaultConfig()
	return &c
}

func TestHeapAllocAlignment(t *testing.T) {
	h := NewHeap(cfg())
	a := h.Alloc(8)
	if a%8 != 0 {
		t.Fatalf("small alloc misaligned: %#x", a)
	}
	b := h.Alloc(128)
	if b%64 != 0 {
		t.Fatalf("line-sized alloc not line-aligned: %#x", b)
	}
	c := h.Alloc(8)
	if c <= b {
		t.Fatal("allocator not monotonic")
	}
	if h.Footprint() != 8+128+8 {
		t.Fatalf("footprint = %d", h.Footprint())
	}
}

func TestHeapAllocPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHeap(cfg()).Alloc(0)
}

func TestHeapRecordsOps(t *testing.T) {
	h := NewHeap(cfg())
	a := h.Alloc(256)
	h.Load(a)
	tok := h.Store(a + 64)
	if tok == 0 {
		t.Fatal("store token should be non-zero")
	}
	ops := h.Ops()
	if len(ops) != 2 {
		t.Fatalf("ops = %d", len(ops))
	}
	if ops[0].Write || !ops[1].Write || ops[1].Data != tok {
		t.Fatalf("ops = %+v", ops)
	}
	h.ResetOps()
	if len(h.Ops()) != 0 {
		t.Fatal("ResetOps left ops")
	}
}

func TestHeapRanges(t *testing.T) {
	h := NewHeap(cfg())
	a := h.Alloc(4096)
	h.LoadRange(a, 256) // 4 lines
	if got := len(h.Ops()); got != 4 {
		t.Fatalf("LoadRange emitted %d ops", got)
	}
	h.ResetOps()
	h.StoreRange(a+32, 64) // straddles two lines
	if got := len(h.Ops()); got != 2 {
		t.Fatalf("straddling StoreRange emitted %d ops", got)
	}
	h.ResetOps()
	// Store tokens are strictly increasing.
	h.StoreRange(a, 192)
	ops := h.Ops()
	for i := 1; i < len(ops); i++ {
		if ops[i].Data <= ops[i-1].Data {
			t.Fatal("tokens not increasing")
		}
	}
}

// fixedScheme is a Scheme stub with constant latency.
type fixedScheme struct {
	lat  uint64
	nvm  *mem.NVM
	seen []int // tids in access order
}

func newFixedScheme(c *sim.Config, lat uint64) *fixedScheme {
	return &fixedScheme{lat: lat, nvm: mem.NewNVM(c)}
}

func (f *fixedScheme) Name() string      { return "fixed" }
func (f *fixedScheme) Bind(*sim.Clocks)  {}
func (f *fixedScheme) Drain(uint64)      {}
func (f *fixedScheme) Stats() *stats.Set { return stats.NewSet("fixed") }
func (f *fixedScheme) NVM() *mem.NVM     { return f.nvm }
func (f *fixedScheme) Access(tid int, addr uint64, w bool, d uint64) uint64 {
	f.seen = append(f.seen, tid)
	return f.lat
}

// countWorkload issues n single-store ops per thread.
type countWorkload struct {
	n    int
	done map[int]int
	base uint64
}

func (w *countWorkload) Name() string { return "count" }
func (w *countWorkload) Setup(h *Heap, rng *sim.RNG) {
	w.done = map[int]int{}
	w.base = h.Alloc(1 << 20)
}
func (w *countWorkload) Step(tid int, h *Heap, rng *sim.RNG) bool {
	if w.done[tid] >= w.n {
		return false
	}
	w.done[tid]++
	h.Store(w.base + uint64(tid*1000+w.done[tid])*64)
	return true
}

func TestDriverRunCompletesAndSummarises(t *testing.T) {
	c := cfg()
	s := newFixedScheme(c, 10)
	d := NewDriver(c, s, &countWorkload{n: 5}, 1<<20)
	golden := NewGolden(c)
	d.SetSink(golden)
	sum := d.Run()
	want := uint64(c.Cores * 5)
	if sum.Accesses != want || sum.Stores != want || sum.Ops != want {
		t.Fatalf("summary = %+v, want %d accesses", sum, want)
	}
	// Every thread advanced by n*(lat+pipeline).
	if sum.Cycles != 5*(10+PipelineCost) {
		t.Fatalf("cycles = %d", sum.Cycles)
	}
	if golden.Final().Len() != int(want) {
		t.Fatalf("final image = %d entries", golden.Final().Len())
	}
	if sum.Scheme != "fixed" || sum.Workload != "count" {
		t.Fatal("names")
	}
}

func TestDriverInterleavesBySmallestClock(t *testing.T) {
	c := cfg()
	c.Cores = 4
	s := newFixedScheme(c, 10)
	d := NewDriver(c, s, &countWorkload{n: 3}, 1<<20)
	d.Run()
	// With equal costs the driver round-robins: the first four accesses
	// must come from four distinct threads.
	seen := map[int]bool{}
	for _, tid := range s.seen[:4] {
		seen[tid] = true
	}
	if len(seen) != 4 {
		t.Fatalf("first accesses from %d distinct threads, want 4 (%v)", len(seen), s.seen[:4])
	}
}

func TestDriverRespectsMaxAccesses(t *testing.T) {
	c := cfg()
	s := newFixedScheme(c, 1)
	d := NewDriver(c, s, &countWorkload{n: 1 << 20}, 100)
	sum := d.Run()
	if sum.Accesses != 100 {
		t.Fatalf("accesses = %d, want 100", sum.Accesses)
	}
}

func TestDriverFinalTracksLastStore(t *testing.T) {
	c := cfg()
	s := newFixedScheme(c, 1)
	wl := &rewriteWorkload{}
	d := NewDriver(c, s, wl, 1<<20)
	golden := NewGolden(c)
	d.SetSink(golden)
	d.Run()
	final := golden.Final()
	if final.Len() != 1 {
		t.Fatalf("final = %v", final.SortedKeys())
	}
	final.ForEach(func(_, tok uint64) {
		if tok != wl.last {
			t.Fatalf("final token %d, want %d", tok, wl.last)
		}
	})
}

type rewriteWorkload struct {
	addr  uint64
	count int
	last  uint64
}

func (w *rewriteWorkload) Name() string { return "rewrite" }
func (w *rewriteWorkload) Setup(h *Heap, rng *sim.RNG) {
	w.addr = h.Alloc(64)
}
func (w *rewriteWorkload) Step(tid int, h *Heap, rng *sim.RNG) bool {
	if tid != 0 || w.count >= 10 {
		return false
	}
	w.count++
	w.last = h.Store(w.addr)
	return true
}
