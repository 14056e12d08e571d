package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func coreCfg() *sim.Config {
	cfg := sim.DefaultConfig()
	cfg.EpochSize = 4000
	return &cfg
}

func TestNVOverlayImplementsScheme(t *testing.T) {
	cfg := coreCfg()
	var s trace.Scheme = New(cfg)
	if s.Name() != "NVOverlay" {
		t.Fatal("name")
	}
	if s.NVM() == nil || s.Stats() == nil {
		t.Fatal("accessors nil")
	}
}

func TestNVOverlayOptions(t *testing.T) {
	cfg := coreCfg()
	cfg.OMCBufferBytes = cfg.LLCSize
	cfg.OMCs = 2
	cfg.RetainEpochs = true
	n := New(cfg)
	// Two OMCs interleave 4 KB pages: neighbours differ, every other page
	// shares an owner.
	g := n.Group()
	if g.Route(0) == g.Route(4096) || g.Route(0) != g.Route(8192) {
		t.Fatal("routing is not over 2 OMCs")
	}
	// A second version of a buffered line hits the OMC buffer.
	for i := 0; i < 2; i++ {
		g.ReceiveVersion(omc.Version{Addr: 0x40, Epoch: 1, Data: uint64(i + 1)}, 0)
	}
	if g.BufferHitRate() == 0 {
		t.Fatal("buffer not enabled")
	}
	if n.Frontend() == nil || n.DRAM() == nil {
		t.Fatal("accessors nil")
	}
}

func TestNVOverlayEndToEndWorkload(t *testing.T) {
	cfg := coreCfg()
	cfg.OMCs = 2
	n := New(cfg)
	n.NVM().AttachPlane(mem.NewRAMPlane()) // the test recovers the image
	wl, err := workload.Get("hashtable")
	if err != nil {
		t.Fatal(err)
	}
	d := trace.NewDriver(cfg, n, wl, 60_000)
	golden := trace.NewGolden(cfg)
	d.SetSink(golden)
	sum := d.Run()
	// The driver finishes the in-flight operation, so it may slightly
	// overshoot the access budget.
	if sum.Accesses < 60_000 || sum.Accesses > 61_000 {
		t.Fatalf("accesses = %d", sum.Accesses)
	}
	if sum.DataBytes == 0 {
		t.Fatal("no snapshot data persisted")
	}
	if sum.MetaBytes == 0 {
		t.Fatal("no master-table metadata persisted")
	}
	// After the drain the recovered image equals the final write state.
	img, _ := n.Group().RecoverImage()
	final := golden.Final()
	if img.Len() != final.Len() {
		t.Fatalf("image %d lines, final %d", img.Len(), final.Len())
	}
	final.ForEach(func(addr, want uint64) {
		if got, _ := img.Get(addr); got != want {
			t.Fatalf("addr %#x = %d, want %d", addr, got, want)
		}
	})
	// Mid-run epochs advanced and merged.
	if n.Stats().Get("epoch_advances") == 0 {
		t.Fatal("no epoch advances")
	}
	if n.Stats().Get("epochs_merged") == 0 {
		t.Fatal("no merges")
	}
}

func TestNVOverlayVDStallOnAdvance(t *testing.T) {
	cfg := coreCfg()
	cfg.EpochSize = 4 // per-VD threshold of 4 stores
	n := New(cfg)
	clocks := sim.NewClocks(cfg.Cores)
	n.Bind(clocks)
	for i := 0; i < 4; i++ {
		lat := n.Access(0, uint64(i*64), true, uint64(i))
		clocks.Advance(0, lat)
	}
	// The boundary stalled the whole VD: the sibling core's clock moved
	// even though it never issued an access.
	if clocks.Now(1) == 0 {
		t.Fatal("sibling core not stalled by the VD epoch advance")
	}
	if clocks.Now(2) != 0 {
		t.Fatal("foreign VD stalled")
	}
}
