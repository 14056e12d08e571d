package cst

import "testing"

// TestWrapSpace16BitBoundary pins down the paper's 16-bit OID space at the
// exact wrap seam: wire values 65534 -> 65535 -> 0, group membership, the
// sense flip, and cross-group ordering after the flip.
func TestWrapSpace16BitBoundary(t *testing.T) {
	w := NewWrapSpace(16)
	if w.Size() != 65536 || w.Half() != 32768 {
		t.Fatalf("size=%d half=%d", w.Size(), w.Half())
	}
	wires := []struct {
		logical uint64
		wire    WireEpoch
		groupU  bool
	}{
		{32767, 32767, false},
		{32768, 32768, true},
		{65534, 65534, true},
		{65535, 65535, true},
		{65536, 0, false}, // the 16-bit OID wraps here
		{65537, 1, false},
		{98303, 32767, false},
		{98304, 32768, true},
	}
	for _, c := range wires {
		if got := w.Wire(c.logical); got != c.wire {
			t.Errorf("Wire(%d) = %d, want %d", c.logical, got, c.wire)
		}
		if got := w.GroupU(c.wire); got != c.groupU {
			t.Errorf("GroupU(%d) = %v, want %v", c.wire, got, c.groupU)
		}
	}
	if w.CrossesGroup(65534, 65535) {
		t.Error("65534 -> 65535 must stay inside group U")
	}
	if !w.CrossesGroup(65535, 0) {
		t.Error("65535 -> 0 must cross the group boundary")
	}

	// Drive the sense bit through a full cycle: L -> U -> L.
	if w.Sense() {
		t.Fatal("reset sense must be L-ahead")
	}
	w.OnGroupTransition(32768) // enter U
	if !w.Sense() || w.Flips() != 1 {
		t.Fatalf("after entering U: sense=%v flips=%d", w.Sense(), w.Flips())
	}
	w.OnGroupTransition(0) // wrap back into L
	if w.Sense() || w.Flips() != 2 {
		t.Fatalf("after wrapping to L: sense=%v flips=%d", w.Sense(), w.Flips())
	}
	// With L ahead again, the stale U values order before the fresh L ones:
	// wire 65535 is logically older than wire 0.
	if !w.Less(65535, 0) {
		t.Error("Less(65535, 0) = false after wrap; U must be behind L")
	}
	if w.Less(0, 65535) {
		t.Error("Less(0, 65535) = true after wrap")
	}
}

// TestOIDBoundaryWrapFrontend runs the frontend's version access protocol
// across warped epoch starting points: the 65535 -> 0 wire seam, the
// half-space L -> U crossing, and a same-group control. Each case checks the
// wire sequence, the group-transition flush count, that every version
// (including the ones the walker drains across the wrap) still reaches the
// OMC with its correct monotonic epoch, and that min-ver reporting keeps
// tracking the current epoch through the flip.
func TestOIDBoundaryWrapFrontend(t *testing.T) {
	cases := []struct {
		name        string
		start       uint64      // cur-epoch warped in before the first store
		wantWires   []WireEpoch // wire of cur after each of the stores
		wantFlushes int
	}{
		{"wrap 65534-65535-0", 65534, []WireEpoch{65535, 0, 1, 2}, 1},
		{"cross half 32767-32768", 32766, []WireEpoch{32767, 32768, 32769, 32770}, 1},
		{"same group control", 100, []WireEpoch{101, 102, 103, 104}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := cstCfg()
			cfg.EpochSize = 1 // every store closes an epoch
			cfg.WrapWidth = 16
			f, mb, _ := newFE(cfg)

			// Warp VD0 to the starting epoch and sync the sense bit the way
			// a long-running system would have arrived there.
			f.cur[0] = c.start
			f.wrap.OnGroupTransition(f.wrap.Wire(c.start))
			baseFlips := f.wrap.Flips()

			stores := len(c.wantWires)
			for i := 0; i < stores; i++ {
				addr := uint64(0x40 + i*64)
				f.Access(0, addr, true, uint64(i)+1, uint64(i))
				if got := f.wrap.Wire(f.CurEpoch(0)); got != c.wantWires[i] {
					t.Fatalf("wire after store %d = %d, want %d", i, got, c.wantWires[i])
				}
			}
			if got := f.WrapFlushes(); got != c.wantFlushes {
				t.Errorf("wrap flushes = %d, want %d", got, c.wantFlushes)
			}
			if got := f.wrap.Flips() - baseFlips; got != c.wantFlushes {
				t.Errorf("sense flips = %d, want %d", got, c.wantFlushes)
			}
			// The logical epoch is monotonic even though the wire wrapped.
			if got, want := f.CurEpoch(0), c.start+uint64(stores); got != want {
				t.Errorf("cur epoch = %d, want %d", got, want)
			}
			// Every store's version was persisted under its monotonic epoch,
			// whether the walker or the group-transition flush shipped it.
			for i := 0; i < stores; i++ {
				addr := uint64(0x40 + i*64)
				v, ok := mb.latest(addr)
				if !ok {
					t.Fatalf("addr %#x never reached the OMC", addr)
				}
				if v.Epoch != c.start+uint64(i) || v.Data != uint64(i)+1 {
					t.Errorf("addr %#x persisted as epoch %d data %d, want epoch %d data %d",
						addr, v.Epoch, v.Data, c.start+uint64(i), uint64(i)+1)
				}
			}
			// The walker kept running across the wrap and its final report
			// tracks the current epoch (nothing unpersisted remains).
			if got := mb.minVers[0]; got != f.CurEpoch(0) {
				t.Errorf("min-ver = %d, want cur epoch %d", got, f.CurEpoch(0))
			}
			if f.EvictReason(ReasonWalk) == 0 {
				t.Error("tag walker shipped nothing across the boundary")
			}
			if c.wantFlushes > 0 && f.EvictReason(ReasonDrain) == 0 {
				t.Error("group transition performed no flush write-back")
			}
			if err := f.CheckInvariants(); err != nil {
				t.Errorf("invariants violated after wrap: %v", err)
			}
		})
	}
}

// TestNaturalWrap16Bit advances a VD from epoch 1 through the full 16-bit
// space by store-count boundaries alone (no warping): the run crosses the
// half-space boundary at 32768 and the wrap seam at 65536, so exactly two
// group-transition flushes and sense flips must occur, and the final drained
// image must still hold every address's last value.
func TestNaturalWrap16Bit(t *testing.T) {
	if testing.Short() {
		t.Skip("65k epoch advances")
	}
	cfg := cstCfg()
	cfg.EpochSize = 1
	cfg.WrapWidth = 16
	f, mb, _ := newFE(cfg)

	const stores = 65600 // past logical 65536: both group boundaries crossed
	const addrs = 8
	last := make(map[uint64]uint64)
	for i := 0; i < stores; i++ {
		addr := uint64(0x40 + (i%addrs)*64)
		data := uint64(i) + 1
		f.Access(0, addr, true, data, uint64(i))
		last[addr] = data
	}
	if got, want := f.CurEpoch(0), uint64(1+stores); got != want {
		t.Fatalf("cur epoch = %d, want %d", got, want)
	}
	if got := f.WrapFlushes(); got != 2 {
		t.Fatalf("wrap flushes = %d, want 2 (at 32768 and at 65536)", got)
	}
	if got := f.wrap.Flips(); got != 2 {
		t.Fatalf("sense flips = %d, want 2", got)
	}
	if f.wrap.Sense() {
		t.Fatal("sense must be back to L-ahead after a full cycle")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	f.Drain(uint64(stores))
	for addr, want := range last {
		v, ok := mb.latest(addr)
		if !ok || v.Data != want {
			t.Errorf("addr %#x: latest persisted version %+v (ok=%v), want data %d",
				addr, v, ok, want)
		}
	}
}
