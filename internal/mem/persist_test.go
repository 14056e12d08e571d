package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func contentNVM(t *testing.T) (*NVM, *sim.Config) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.NVMBanks = 4
	n := NewNVM(&cfg)
	n.AttachPlane(NewRAMPlane())
	return n, &cfg
}

// TestPersistTimingMatchesWrite: with faults off, Persist must book exactly
// what Write books — the content plane is timing-invisible.
func TestPersistTimingMatchesWrite(t *testing.T) {
	a, cfg := contentNVM(t)
	b, _ := contentNVM(t)
	_ = cfg
	for i := uint64(0); i < 200; i++ {
		addr := i * 64 * 3
		now := i * 50
		sa := a.Write(WData, addr, 24, now)
		sb := b.Persist(WData, addr, 24, []uint64{i, i + 1, i + 2}, now)
		if sa != sb {
			t.Fatalf("write %d: stall %d (Write) vs %d (Persist)", i, sa, sb)
		}
	}
	if a.Stats().Get("nvm_writes") != b.Stats().Get("nvm_writes") {
		t.Fatal("accounting diverged between Write and Persist")
	}
}

// TestPersistDurabilityWatermark: a word persisted at time t sits in the
// volatile bank queue — exposed to bank loss — until a full device latency
// has passed, after which no fault class can take it.
func TestPersistDurabilityWatermark(t *testing.T) {
	n, _ := contentNVM(t)
	n.AttachFaults(fault.New(fault.Config{Seed: 1, LossPer100: 100}))
	n.Persist(WData, 0x1000, 8, []uint64{7}, 100)
	if img := n.PowerCut(100); img.Len() != 0 {
		t.Fatalf("in-flight write survived a lost bank: %d words", img.Len())
	}
	n2, cfg := contentNVM(t)
	n2.AttachFaults(fault.New(fault.Config{Seed: 1, LossPer100: 100}))
	n2.Persist(WData, 0x1000, 8, []uint64{7}, 100)
	img := n2.PowerCut(100 + cfg.NVMWriteLat)
	if v, ok := img.Word(0x1000); !ok || v != 7 {
		t.Fatalf("completed write not durable after full latency: %v %v", v, ok)
	}
}

// TestPersistSilentPiggybacks: silent writes become durable at the bank
// watermark without moving it.
func TestPersistSilentPiggybacks(t *testing.T) {
	n, cfg := contentNVM(t)
	n.Persist(WMeta, 0x2000, 8, []uint64{1}, 0)
	n.PersistSilent(0x2008, []uint64{2}, 0)
	img := n.PowerCut(cfg.NVMWriteLat)
	if _, ok := img.Word(0x2008); !ok {
		t.Fatal("silent write did not ride the booked watermark")
	}
}

// TestPowerCutCleanADR: without an injector, in-flight writes drain whole.
func TestPowerCutCleanADR(t *testing.T) {
	n, _ := contentNVM(t)
	for i := uint64(0); i < 50; i++ {
		n.Persist(WData, 0x4000+i*64, 24, []uint64{i, i, i}, 0)
	}
	img := n.PowerCut(0) // nothing completed yet: ADR drains everything
	if img.Len() != 150 {
		t.Fatalf("clean cut lost words: %d/150", img.Len())
	}
}

// TestPowerCutTearsPrefix: a torn write keeps an 8-byte-word prefix; later
// words of the burst never reach the array.
func TestPowerCutTearsPrefix(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 3, TornPer100: 100})
	n, _ := contentNVM(t)
	n.AttachFaults(inj)
	n.Persist(WData, 0x5000, 24, []uint64{10, 11, 12}, 0)
	img := n.PowerCut(0)
	if inj.Count(fault.Torn) != 1 {
		t.Fatalf("tear did not fire: %d", inj.Count(fault.Torn))
	}
	keep := inj.Events()[0].Arg
	for i := uint64(0); i < 3; i++ {
		_, ok := img.Word(0x5000 + i*8)
		if want := i < keep; ok != want {
			t.Fatalf("word %d present=%v, torn prefix keep=%d", i, ok, keep)
		}
	}
}

// TestPowerCutBankLoss: a lost bank drops its whole volatile queue while
// other banks drain normally.
func TestPowerCutBankLoss(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, LossPer100: 100})
	n, _ := contentNVM(t)
	n.AttachFaults(inj)
	for i := uint64(0); i < 40; i++ {
		n.Persist(WData, 0x8000+i*64, 8, []uint64{i + 1}, 0)
	}
	img := n.PowerCut(0)
	if img.Len() != 0 {
		t.Fatalf("LossPer100=100 must drop every bank queue, %d words survive", img.Len())
	}
	if inj.Count(fault.BankLoss) == 0 {
		t.Fatal("no bank-loss events recorded")
	}
}

// TestNAKDropNeverReachesArray: a write abandoned after the retry budget
// leaves no content behind.
func TestNAKDropNeverReachesArray(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 2, NAKPer10k: 10_000}) // always NAK
	n, _ := contentNVM(t)
	n.AttachFaults(inj)
	stall := n.Persist(WData, 0x9000, 8, []uint64{5}, 0)
	if stall == 0 {
		t.Fatal("NAK retries must cost backoff cycles")
	}
	if inj.Count(fault.NAKDrop) != 1 {
		t.Fatalf("write was not dropped: %d", inj.Count(fault.NAKDrop))
	}
	if img := n.PowerCut(1 << 30); img.Len() != 0 {
		t.Fatal("dropped write reached the array")
	}
}

// TestImageIncludesPending: the fault-free Image() sees queued writes as if
// they had completed, and does not consume the queues.
func TestImageIncludesPending(t *testing.T) {
	n, _ := contentNVM(t)
	n.Persist(WData, 0xA000, 8, []uint64{9}, 0)
	if v, ok := n.Image().Word(0xA000); !ok || v != 9 {
		t.Fatalf("Image missed pending write: %v %v", v, ok)
	}
	if v, ok := n.Image().Word(0xA000); !ok || v != 9 {
		t.Fatalf("second Image read diverged: %v %v", v, ok)
	}
}

// TestBankQueueRing drives one bank queue through random pushes and pops
// against a slice reference: payloads come back intact across ring wraps
// and growth, each is a copy of the caller's slice, and neither ring ever
// holds more than twice the most the queue has had live.
func TestBankQueueRing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q bankQueue
	type ref struct {
		addr  uint64
		words []uint64
	}
	var want []ref
	peak, peakWords, live := 0, 0, 0
	next := uint64(1)
	for step := 0; step < 20000; step++ {
		if len(want) == 0 || rng.Intn(100) < 52 {
			words := make([]uint64, 1+rng.Intn(12))
			for i := range words {
				words[i] = next
				next++
			}
			addr := uint64(step) * 8
			q.push(addr, uint64(step), words)
			want = append(want, ref{addr, append([]uint64(nil), words...)})
			words[0] = 0 // the queue must hold a copy
			live += len(words)
		} else {
			w, words := q.pop()
			if w.addr != want[0].addr || !reflect.DeepEqual(words, want[0].words) {
				t.Fatalf("step %d: popped %#x %v, want %#x %v", step, w.addr, words, want[0].addr, want[0].words)
			}
			live -= len(want[0].words)
			want = want[1:]
		}
		peak, peakWords = max(peak, len(want)), max(peakWords, live)
		if q.n != len(want) || q.wn != live {
			t.Fatalf("step %d: queue holds %d writes / %d words, want %d / %d", step, q.n, q.wn, len(want), live)
		}
		if len(q.ring) > 2*peak || len(q.words) > 2*peakWords {
			t.Fatalf("step %d: rings %d/%d exceed twice the peak %d/%d", step, len(q.ring), len(q.words), peak, peakWords)
		}
	}
	i := 0
	q.each(func(w pendingWrite, words []uint64) {
		if w.addr != want[i].addr || !reflect.DeepEqual(words, want[i].words) {
			t.Fatalf("each visits %#x %v at %d, want %#x %v", w.addr, words, i, want[i].addr, want[i].words)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("each visited %d writes, want %d", i, len(want))
	}
}

// TestPowerCutFlipsOnlyTheImage: a flip-class cut corrupts the image it
// returns at exactly the (address, bit) pairs the injector records, and
// leaves the device's own words untouched, so a later Image still reads
// what was written.
func TestPowerCutFlipsOnlyTheImage(t *testing.T) {
	n, cfg := contentNVM(t)
	fc, err := fault.ClassConfig("flip", 3)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fc)
	n.AttachFaults(inj)
	want := map[uint64]uint64{}
	for i := uint64(0); i < 40; i++ {
		addr := 0x8000 + i*64
		n.Persist(WData, addr, 16, []uint64{i * 3, i*3 + 1}, 0)
		want[addr], want[addr+8] = i*3, i*3+1
	}
	img := n.PowerCut(1000 * cfg.NVMWriteLat) // every write has completed

	flips := map[uint64]uint64{} // addr -> XOR of the recorded flips
	for _, ev := range inj.Events() {
		if ev.Class != fault.BitFlip {
			t.Fatalf("flip class injected %v", ev)
		}
		flips[ev.Addr] ^= 1 << ev.Arg
	}
	if len(inj.Events()) != fc.Flips {
		t.Fatalf("%d flips recorded, want %d", len(inj.Events()), fc.Flips)
	}
	if img.Len() != len(want) {
		t.Fatalf("cut image holds %d words, want %d", img.Len(), len(want))
	}
	for addr, w := range want {
		got, ok := img.Word(addr)
		if !ok || got^w != flips[addr] {
			t.Fatalf("word %#x: cut image %#x (present %v), written %#x, recorded flips %#x", addr, got, ok, w, flips[addr])
		}
	}

	after := n.Image()
	for addr, w := range want {
		if got, ok := after.Word(addr); !ok || got != w {
			t.Fatalf("word %#x after the cut: Image reads %#x (present %v), want the written %#x", addr, got, ok, w)
		}
	}
}

// TestPlanelessNVMKeepsNoPerLineState guards the timing-only device: with
// no plane attached, persisting N and then 4N distinct lines, each
// drained by the next write on its bank, allocates exactly as often. One
// page holds every line, so the per-page wear table (timing state, not
// content) stays one entry. A RAM plane keeps every persisted word, and
// the same run shows that growth.
func TestPlanelessNVMKeepsNoPerLineState(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.PageSize = 1 << 30
	allocs := func(lines int, plane bool) float64 {
		return testing.AllocsPerRun(3, func() {
			n := NewNVM(&cfg)
			if plane {
				n.AttachPlane(NewRAMPlane())
			}
			for i := 0; i < lines; i++ {
				addr := uint64(i) * uint64(cfg.LineSize)
				n.Persist(WData, addr, cfg.LineSize, []uint64{addr, 1, addr ^ 1}, uint64(i)*cfg.NVMWriteLat)
			}
		})
	}
	const lines = 4096
	if n, n4 := allocs(lines, false), allocs(4*lines, false); n4 != n {
		t.Fatalf("persisting 4N lines made %v allocations, N lines %v: the plane-less device keeps per-line state", n4, n)
	}
	if n, n4 := allocs(lines, true), allocs(4*lines, true); n4 <= n {
		t.Fatalf("with a RAM plane 4N lines made %v allocations, N lines %v: the guard cannot see per-line state", n4, n)
	}
}

// TestUnobservedNVMStopsQueueing guards the timing-only store path: once a
// device with no plane and no bus has dropped a drained write, nothing can
// read its bank queues, so it releases them and N and then 4N further
// Persists allocate exactly as often. The writes are write-combined 8-byte
// slots on one line: each adds a full latency to the bank's completion
// clock, so none of them drains and, while queued, the queue grows with
// them. Before the first drop the queue is kept, and the same run shows
// that growth.
func TestUnobservedNVMStopsQueueing(t *testing.T) {
	cfg := sim.DefaultConfig()
	line := uint64(cfg.LineSize * cfg.NVMBanks) // the next line on bank 0
	allocs := func(writes int, drop bool) float64 {
		return testing.AllocsPerRun(3, func() {
			n := NewNVM(&cfg)
			if drop { // the second write drains the first
				n.Persist(WData, 0, cfg.LineSize, []uint64{1, 2, 3}, 0)
				n.Persist(WData, 2*line, cfg.LineSize, []uint64{4, 5, 6}, cfg.NVMWriteLat)
			}
			for i := 0; i < writes; i++ {
				n.Persist(WMeta, line, 8, []uint64{uint64(i)}, cfg.NVMWriteLat)
			}
		})
	}
	const writes = 1024
	if n, n4 := allocs(writes, true), allocs(4*writes, true); n4 != n {
		t.Fatalf("after the first drop 4N writes made %v allocations, N writes %v: the device still queues words no reader can see", n4, n)
	}
	if n, n4 := allocs(writes, false), allocs(4*writes, false); n4 <= n {
		t.Fatalf("before any drop 4N writes made %v allocations, N writes %v: the guard cannot see the queue grow", n4, n)
	}
	n := NewNVM(&cfg)
	for b := 0; b < cfg.NVMBanks; b++ {
		n.Persist(WData, uint64(b*cfg.LineSize), cfg.LineSize, []uint64{1}, 0)
	}
	n.Persist(WData, line, cfg.LineSize, []uint64{2}, cfg.NVMWriteLat)
	for b, q := range n.pending {
		if q.ring != nil || q.words != nil {
			t.Fatalf("bank %d keeps its rings after the first drop", b)
		}
	}
}

// TestPlanelessTimingMatchesPlane: the plane records content only, so the
// same writes book the same stalls and counters with or without one.
func TestPlanelessTimingMatchesPlane(t *testing.T) {
	a, _ := contentNVM(t)
	cfg := sim.DefaultConfig()
	cfg.NVMBanks = 4
	b := NewNVM(&cfg)
	for i := uint64(0); i < 400; i++ {
		addr, now := i*64*3, i*50
		sa := a.Persist(WData, addr, 64, []uint64{i, i + 1, i + 2}, now)
		sb := b.Persist(WData, addr, 64, []uint64{i, i + 1, i + 2}, now)
		a.PersistSilent(addr+8, []uint64{i}, now)
		b.PersistSilent(addr+8, []uint64{i}, now)
		if sa != sb {
			t.Fatalf("write %d: stall %d with a plane, %d without", i, sa, sb)
		}
	}
	if sa, sb := a.Stats().String(), b.Stats().String(); sa != sb {
		t.Fatalf("counters diverged:\nwith plane    %s\nwithout plane %s", sa, sb)
	}
}

// mustPanicNaming runs f and requires a panic whose message names want.
func mustPanicNaming(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one naming %s", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name %s", msg, want)
		}
	}()
	f()
}

// TestContentReadersNeedPlane: a forgotten attach fails loudly, naming
// AttachPlane, instead of returning an empty image.
func TestContentReadersNeedPlane(t *testing.T) {
	cfg := sim.DefaultConfig()
	queued := func() *NVM {
		n := NewNVM(&cfg)
		n.Persist(WData, 0x1000, 64, []uint64{1, 2, 3}, 0)
		return n
	}
	t.Run("PowerCut", func(t *testing.T) {
		n := queued()
		mustPanicNaming(t, "AttachPlane", func() { n.PowerCut(cfg.NVMWriteLat) })
	})
	t.Run("Image", func(t *testing.T) {
		n := queued()
		mustPanicNaming(t, "AttachPlane", func() { n.Image() })
	})
	t.Run("AttachAfterCommit", func(t *testing.T) {
		n := queued()
		// The next write on the same bank drains the first: committed
		// with no plane, its content is gone.
		line := uint64(cfg.LineSize * cfg.NVMBanks)
		n.Persist(WData, 0x1000+line, 64, []uint64{4, 5, 6}, cfg.NVMWriteLat)
		mustPanicNaming(t, "AttachPlane", func() { n.AttachPlane(NewRAMPlane()) })
	})
	t.Run("AttachCarriesQueuedWrites", func(t *testing.T) {
		// With no plane the seal barrier and close are no-ops, so the
		// write is still queued, and an attach now (after construction
		// traffic) carries it onto the plane.
		n := queued()
		n.SealDurable(1, cfg.NVMWriteLat)
		if err := n.ClosePlane(); err != nil {
			t.Fatalf("ClosePlane with no plane: %v", err)
		}
		n.AttachPlane(NewRAMPlane())
		if v, ok := n.PowerCut(cfg.NVMWriteLat).Word(0x1008); !ok || v != 2 {
			t.Fatalf("queued write lost across attach: %v %v", v, ok)
		}
	})
}
