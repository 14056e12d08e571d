package trace

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/sim"
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

// TestDriverRecordReplayIdentical runs a workload with a record sink, then
// replays the captured stream into a fresh driver and requires identical
// clocks, counters, access sequence, and golden image.
func TestDriverRecordReplayIdentical(t *testing.T) {
	c := cfg()
	rec := newFixedScheme(c, 3)
	d := NewDriver(c, rec, &countWorkload{n: 40}, 500)
	sink := &memTrace{}
	d.SetSink(sink)
	want := d.Run()
	if err := d.SinkErr(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	if uint64(len(sink.recs)) != want.Accesses {
		t.Fatalf("recorded %d accesses, run issued %d", len(sink.recs), want.Accesses)
	}

	rep := newFixedScheme(c, 3)
	d2 := NewDriver(c, rep, nil, 500)
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
	if got.Final.Len() != want.Final.Len() {
		t.Fatalf("replay final image has %d lines, want %d", got.Final.Len(), want.Final.Len())
	}
	want.Final.ForEach(func(addr, tok uint64) {
		if g, _ := got.Final.Get(addr); g != tok {
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
