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

// collector is a heap consumer that keeps every access it is handed.
type collector struct{ ops []Op }

func (c *collector) add(op Op) { c.ops = append(c.ops, op) }

// take returns the accesses collected since the last take.
func (c *collector) take() []Op {
	ops := c.ops
	c.ops = nil
	return ops
}

func TestHeapRecordsOps(t *testing.T) {
	h := NewHeap(cfg())
	var c collector
	h.SetConsumer(c.add)
	a := h.Alloc(256)
	h.Load(a)
	tok := h.Store(a + 64)
	if tok == 0 {
		t.Fatal("store token should be non-zero")
	}
	ops := c.take()
	if len(ops) != 2 {
		t.Fatalf("ops = %d", len(ops))
	}
	if ops[0].Write || !ops[1].Write || ops[1].Data != tok {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestHeapRanges(t *testing.T) {
	h := NewHeap(cfg())
	var c collector
	h.SetConsumer(c.add)
	a := h.Alloc(4096)
	h.LoadRange(a, 256) // 4 lines
	if got := len(c.take()); got != 4 {
		t.Fatalf("LoadRange emitted %d ops", got)
	}
	h.StoreRange(a+32, 64) // straddles two lines
	if got := len(c.take()); got != 2 {
		t.Fatalf("straddling StoreRange emitted %d ops", got)
	}
	// Store tokens are strictly increasing.
	h.StoreRange(a, 192)
	ops := c.take()
	for i := 1; i < len(ops); i++ {
		if ops[i].Data <= ops[i-1].Data {
			t.Fatal("tokens not increasing")
		}
	}
}

// TestHeapStreamsInOrder locks the heap's hand-off: its consumer sees each
// access exactly once, in program order, as it happens; with recording off
// it sees nothing, but stores still take tokens, so the token stream a
// workload observes does not depend on recording.
func TestHeapStreamsInOrder(t *testing.T) {
	h := NewHeap(cfg())
	h.Load(HeapBase) // no consumer yet: dropped
	var c collector
	h.SetConsumer(c.add)
	want := []Op{{Addr: 64}, {Addr: 128, Write: true, Data: 1}, {Addr: 64, Write: true, Data: 2}, {Addr: 192}}
	for i, op := range want {
		if op.Write {
			if tok := h.Store(op.Addr); tok != op.Data {
				t.Fatalf("store %d took token %d, want %d", i, tok, op.Data)
			}
		} else {
			h.Load(op.Addr)
		}
		if len(c.ops) != i+1 || c.ops[i] != op {
			t.Fatalf("after access %d consumer saw %+v, want %+v", i, c.ops, want[:i+1])
		}
	}
	c.take()
	h.SetRecording(false)
	h.Load(64)
	if tok := h.Store(64); tok != 3 {
		t.Fatalf("store with recording off took token %d, want 3", tok)
	}
	if len(c.ops) != 0 {
		t.Fatalf("recording off: consumer saw %+v", c.ops)
	}
	h.SetRecording(true)
	if tok := h.Store(64); tok != 4 || len(c.ops) != 1 || c.ops[0].Data != 4 {
		t.Fatalf("recording back on: token %d, consumer saw %+v", tok, c.ops)
	}
	h.SetConsumer(nil)
	h.Store(64)
	if len(c.ops) != 1 {
		t.Fatalf("detached consumer saw %+v", c.ops)
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

// nullScheme charges every access one cycle and keeps nothing.
type nullScheme struct{ nvm *mem.NVM }

func (s nullScheme) Name() string                            { return "null" }
func (s nullScheme) Bind(*sim.Clocks)                        {}
func (s nullScheme) Drain(uint64)                            {}
func (s nullScheme) Stats() *stats.Set                       { return nil }
func (s nullScheme) NVM() *mem.NVM                           { return s.nvm }
func (s nullScheme) Access(int, uint64, bool, uint64) uint64 { return 1 }

// TestDriverRunBuffersNoOp guards the streamed access path: a run whose
// first operation alone is n accesses (a StoreRange past the bound)
// allocates exactly as often at 4n, so the driver holds no per-access
// state between the workload and the scheme.
func TestDriverRunBuffersNoOp(t *testing.T) {
	c := cfg()
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			d := NewDriver(c, nullScheme{nvm: mem.NewNVM(c)}, &burstWorkload{lines: n}, uint64(n))
			if sum := d.Run(); sum.Accesses != uint64(n) {
				t.Fatalf("accesses = %d, want %d", sum.Accesses, n)
			}
		})
	}
	const n = 4096
	if a, a4 := allocs(n), allocs(4*n); a4 != a {
		t.Fatalf("a %d-access op made %v allocations, a %d-access one %v: the driver buffers the op", 4*n, a4, n, a)
	}
}
