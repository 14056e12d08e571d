package trace

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// burstWorkload issues one multi-access op (a StoreRange over several
// lines) per step, forever. Its final op straddles any access bound that
// is not a multiple of the burst size.
type burstWorkload struct {
	lines int
	base  uint64
}

func (w *burstWorkload) Name() string { return "burst" }
func (w *burstWorkload) Setup(h *Heap, rng *sim.RNG) {
	w.base = h.Alloc(1 << 20)
}
func (w *burstWorkload) Step(tid int, h *Heap, rng *sim.RNG) bool {
	h.StoreRange(w.base+uint64(tid)<<12, w.lines*64)
	return true
}

// TestDriverStopsMidOp locks the access-bound fix: a multi-access final
// op must stop at maxAccesses exactly, not finish the op and overshoot.
func TestDriverStopsMidOp(t *testing.T) {
	c := cfg()
	s := newFixedScheme(c, 1)
	// 7 stores per op, bound 100: the 15th op of the round crosses the
	// bound mid-op (14*7 = 98).
	d := NewDriver(c, s, &burstWorkload{lines: 7}, 100)
	sum := d.Run()
	if sum.Accesses != 100 {
		t.Fatalf("accesses = %d, want exactly 100", sum.Accesses)
	}
	if got := len(s.seen); got != 100 {
		t.Fatalf("scheme saw %d accesses, want 100", got)
	}
	if sum.Stores != 100 {
		t.Fatalf("stores = %d, want 100", sum.Stores)
	}
}

// TestDriverProgressClamped locks the progress-callback fix: the ratio
// reported to the NVM never exceeds 1.0 even when issued passes target.
func TestDriverProgressClamped(t *testing.T) {
	c := cfg()
	d := NewDriver(c, newFixedScheme(c, 1), &burstWorkload{lines: 7}, 100)
	if got := d.progress(); got != 0 {
		t.Fatalf("progress before run = %v", got)
	}
	d.issued = 99
	if got := d.progress(); got != 0.99 {
		t.Fatalf("progress at 99/100 = %v", got)
	}
	d.issued = 107 // a 7-access op that overshot the bound
	if got := d.progress(); got != 1.0 {
		t.Fatalf("progress past target = %v, want clamp to 1.0", got)
	}
	d.target = 0
	if got := d.progress(); got != 0 {
		t.Fatalf("progress with zero target = %v", got)
	}
}

// memTrace is an in-memory Sink + Source for driver-level tests (the
// on-disk codec has its own round-trip suite in internal/tracefile).
type memTrace struct {
	recs []Access
	pos  int
	// failAfter, when > 0, makes Append fail once that many records are in.
	failAfter int
}

func (m *memTrace) Append(a Access) error {
	if m.failAfter > 0 && len(m.recs) >= m.failAfter {
		return errors.New("sink full")
	}
	m.recs = append(m.recs, a)
	return nil
}

func (m *memTrace) Next() (Access, error) {
	if m.pos >= len(m.recs) {
		return Access{}, io.EOF
	}
	a := m.recs[m.pos]
	m.pos++
	return a, nil
}

// teeSink feeds each access to every sink in order; the first error stops
// it.
type teeSink []Sink

func (t teeSink) Append(a Access) error {
	for _, s := range t {
		if err := s.Append(a); err != nil {
			return err
		}
	}
	return nil
}

// TestDriverRecordReplayIdentical runs a workload with a record sink, then
// replays the captured stream into a fresh driver and requires identical
// clocks, counters, access sequence, and golden image.
func TestDriverRecordReplayIdentical(t *testing.T) {
	c := cfg()
	rec := newFixedScheme(c, 3)
	d := NewDriver(c, rec, &countWorkload{n: 40}, 500)
	sink := &memTrace{}
	wantGolden := NewGolden(c)
	d.SetSink(teeSink{sink, wantGolden})
	want := d.Run()
	if err := d.SinkErr(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	if uint64(len(sink.recs)) != want.Accesses {
		t.Fatalf("recorded %d accesses, run issued %d", len(sink.recs), want.Accesses)
	}

	rep := newFixedScheme(c, 3)
	d2 := NewDriver(c, rep, nil, 500)
	gotGolden := NewGolden(c)
	d2.SetSink(gotGolden)
	got, err := d2.RunReplay(sink)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got.Cycles != want.Cycles || got.Accesses != want.Accesses || got.Stores != want.Stores {
		t.Fatalf("replay summary %+v, recorded run %+v", got, want)
	}
	if got.NVMBytes != want.NVMBytes {
		t.Fatalf("replay NVM bytes %d, want %d", got.NVMBytes, want.NVMBytes)
	}
	if len(rep.seen) != len(rec.seen) {
		t.Fatalf("replay issued %d accesses, want %d", len(rep.seen), len(rec.seen))
	}
	for i := range rec.seen {
		if rep.seen[i] != rec.seen[i] {
			t.Fatalf("access %d went to tid %d, recorded tid %d", i, rep.seen[i], rec.seen[i])
		}
	}
	if g, w := gotGolden.Final().Len(), wantGolden.Final().Len(); g != w {
		t.Fatalf("replay final image has %d lines, want %d", g, w)
	}
	wantGolden.Final().ForEach(func(addr, tok uint64) {
		if g, _ := gotGolden.Final().Get(addr); g != tok {
			t.Fatalf("final[%#x] = %d, want %d", addr, g, tok)
		}
	})
	if got.Workload != "replay" || got.Ops != 0 {
		t.Fatalf("replay summary identity: %+v", got)
	}
}

// TestDriverSinkErrorLatches: a failing sink stops recording but not the
// run, and the first error is reported.
func TestDriverSinkErrorLatches(t *testing.T) {
	c := cfg()
	d := NewDriver(c, newFixedScheme(c, 1), &countWorkload{n: 10}, 1<<20)
	sink := &memTrace{failAfter: 5}
	d.SetSink(sink)
	sum := d.Run()
	if sum.Accesses != uint64(c.Cores*10) {
		t.Fatalf("run truncated by sink failure: %d accesses", sum.Accesses)
	}
	if err := d.SinkErr(); err == nil {
		t.Fatal("sink error not reported")
	}
	if len(sink.recs) != 5 {
		t.Fatalf("sink holds %d records after failure at 5", len(sink.recs))
	}
}

// TestRunReplayHonoursBoundAndValidatesTids: replay stops at maxAccesses
// like Run, and rejects out-of-range tids.
func TestRunReplayHonoursBoundAndValidatesTids(t *testing.T) {
	c := cfg()
	src := &memTrace{}
	for i := 0; i < 50; i++ {
		src.recs = append(src.recs, Access{Tid: i % c.Cores, Addr: uint64(i) * 64, Write: true, Data: uint64(i + 1)})
	}
	d := NewDriver(c, newFixedScheme(c, 1), nil, 20)
	sum, err := d.RunReplay(src)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if sum.Accesses != 20 {
		t.Fatalf("bounded replay issued %d accesses, want 20", sum.Accesses)
	}

	bad := &memTrace{recs: []Access{{Tid: c.Cores, Addr: 64}}}
	d2 := NewDriver(c, newFixedScheme(c, 1), nil, 100)
	if _, err := d2.RunReplay(bad); err == nil {
		t.Fatal("out-of-range tid accepted")
	} else if want := fmt.Sprintf("tid %d out of range", c.Cores); !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// mixWorkload issues a load and a store per step at random word offsets in
// a few lines, so lines are stored many times, by many threads, at
// addresses that are not line-aligned.
type mixWorkload struct{ base uint64 }

func (w *mixWorkload) Name() string { return "mix" }
func (w *mixWorkload) Setup(h *Heap, rng *sim.RNG) {
	w.base = h.Alloc(64 * 64)
}
func (w *mixWorkload) Step(tid int, h *Heap, rng *sim.RNG) bool {
	h.Load(w.base + rng.Uint64n(64*8)*8)
	h.Store(w.base + rng.Uint64n(64*8)*8)
	return true
}

// lastStorePerLine folds a recorded stream into the golden image
// independently of Golden: each line maps to its last store's token.
func lastStorePerLine(c *sim.Config, recs []Access) map[uint64]uint64 {
	want := make(map[uint64]uint64)
	for _, a := range recs {
		if a.Write {
			want[a.Addr&^uint64(c.LineSize-1)] = a.Data
		}
	}
	return want
}

// checkImage fails t unless final holds exactly want.
func checkImage(t *testing.T, what string, final *mem.Table[uint64], want map[uint64]uint64) {
	t.Helper()
	if final.Len() != len(want) {
		t.Fatalf("%s: golden image has %d lines, fold has %d", what, final.Len(), len(want))
	}
	for addr, tok := range want {
		if got, ok := final.Get(addr); !ok || got != tok {
			t.Fatalf("%s: golden[%#x] = %d (present %v), fold says %d", what, addr, got, ok, tok)
		}
	}
}

// TestGoldenMatchesLastStoreFold checks the golden sink against an
// independent fold of the recorded stream, for a live run and its replay.
func TestGoldenMatchesLastStoreFold(t *testing.T) {
	c := cfg()
	d := NewDriver(c, newFixedScheme(c, 3), &mixWorkload{}, 3000)
	rec := &memTrace{}
	live := NewGolden(c)
	d.SetSink(teeSink{rec, live})
	d.Run()
	want := lastStorePerLine(c, rec.recs)
	if len(want) < 32 {
		t.Fatalf("run stored to only %d lines", len(want))
	}
	checkImage(t, "live run", live.Final(), want)

	d2 := NewDriver(c, newFixedScheme(c, 3), nil, 3000)
	replayed := NewGolden(c)
	d2.SetSink(replayed)
	if _, err := d2.RunReplay(rec); err != nil {
		t.Fatalf("replay: %v", err)
	}
	checkImage(t, "replay", replayed.Final(), want)
}

// quietScheme is a constant-latency Scheme that keeps no per-access
// state, so a driver over it allocates only what the driver itself does.
type quietScheme struct{ nvm *mem.NVM }

func (q quietScheme) Name() string                            { return "quiet" }
func (q quietScheme) Bind(*sim.Clocks)                        {}
func (q quietScheme) Drain(uint64)                            {}
func (q quietScheme) Stats() *stats.Set                       { return nil }
func (q quietScheme) NVM() *mem.NVM                           { return q.nvm }
func (q quietScheme) Access(int, uint64, bool, uint64) uint64 { return 1 }

// TestRunReplayKeepsNoPerLineState guards the driver against state that
// grows with the lines a run stores to: with no sink attached, replaying
// stores to 4N distinct lines allocates exactly as often as replaying N.
func TestRunReplayKeepsNoPerLineState(t *testing.T) {
	c := cfg()
	allocs := func(lines int) float64 {
		src := &memTrace{}
		for i := 0; i < lines; i++ {
			src.recs = append(src.recs, Access{Tid: i % c.Cores, Addr: uint64(i+1) * 64, Write: true, Data: uint64(i + 1)})
		}
		return testing.AllocsPerRun(3, func() {
			src.pos = 0
			d := NewDriver(c, quietScheme{nvm: mem.NewNVM(c)}, nil, uint64(lines))
			if _, err := d.RunReplay(src); err != nil {
				t.Fatalf("replay: %v", err)
			}
		})
	}
	if n, n4 := allocs(4096), allocs(4*4096); n4 != n {
		t.Fatalf("replaying 4N lines made %v allocations, N lines %v: the driver keeps per-line state", n4, n)
	}
}
