package cst

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
)

// TestMinVerProtocolInvariant asserts the correctness condition behind the
// recoverable-epoch protocol (§V-B): no version may ever arrive at an OMC
// for an epoch that the OMC has already declared recoverable. The test
// hammers the full stack with heavy cross-VD sharing — the regime that
// uncovered two real races during development (dirty cache-to-cache
// transfers need a standing min-ver floor, and deferred walk reports must
// rescan live tags).
func TestMinVerProtocolInvariant(t *testing.T) {
	for _, seed := range []int64{3, 21, 77, 1234} {
		cfg := cstCfg()
		cfg.EpochSize = 30
		nvm := mem.NewNVM(cfg)
		g := omc.NewGroup(cfg, nvm, 2)
		dram := mem.NewDRAM(cfg)
		f := New(cfg, dram, g)
		violations := 0
		omc.SetLateVersionHook(func(v omc.Version, rec uint64) { violations++ })
		r := sim.NewRNG(seed)
		var token uint64
		for i := 0; i < 25000; i++ {
			tid := r.Intn(cfg.Cores)
			// A narrow, hot address range maximises c2c transfers.
			addr := uint64(r.Intn(48) * 64)
			if r.Intn(2) == 0 {
				token++
				f.Access(tid, addr, true, token, uint64(i))
			} else {
				f.Access(tid, addr, false, 0, uint64(i))
			}
		}
		omc.SetLateVersionHook(nil)
		if violations != 0 {
			t.Fatalf("seed %d: %d versions arrived for already-recoverable epochs", seed, violations)
		}
		// The protocol made progress despite the contention.
		if g.Stats().Get("recepoch_advances") == 0 {
			t.Fatalf("seed %d: rec-epoch never advanced", seed)
		}
	}
}

// TestWrapAroundEndToEnd runs the full stack with a narrow 5-bit epoch
// space so group transitions fire constantly, then verifies snapshot
// consistency survived every wrap.
func TestWrapAroundEndToEnd(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 24
	cfg.WrapWidth = 5 // 32 epochs, groups of 16
	nvm := mem.NewNVM(cfg)
	nvm.AttachPlane(mem.NewRAMPlane()) // the test recovers the image
	g := omc.NewGroup(cfg, nvm, 2)
	dram := mem.NewDRAM(cfg)
	f := New(cfg, dram, g)
	r := sim.NewRNG(9)
	final := map[uint64]uint64{}
	var token uint64
	for i := 0; i < 20000; i++ {
		tid := r.Intn(cfg.Cores)
		addr := uint64(r.Intn(200) * 64)
		if r.Intn(2) == 0 {
			token++
			f.Access(tid, addr, true, token, uint64(i))
			final[addr] = token
		} else {
			f.Access(tid, addr, false, 0, uint64(i))
		}
	}
	if f.WrapFlushes() < 5 {
		t.Fatalf("only %d group transitions over ~%d epochs", f.WrapFlushes(), f.CurEpoch(0))
	}
	f.Drain(20000)
	g.Seal(20000)
	img, _ := g.RecoverImage()
	for addr, want := range final {
		if got, _ := img.Get(addr); got != want {
			t.Fatalf("addr %#x = %d, want %d (wrap-around corrupted a snapshot)",
				addr, got, want)
		}
	}
}

// TestReadOnlyVDsDoNotBlockRecovery exercises skewed store distributions:
// half the threads only read. Their VDs advance via coherence and the
// walker still reports, so the recoverable epoch keeps moving.
func TestReadOnlyVDsDoNotBlockRecovery(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 20
	nvm := mem.NewNVM(cfg)
	g := omc.NewGroup(cfg, nvm, 2)
	f := New(cfg, mem.NewDRAM(cfg), g)
	r := sim.NewRNG(5)
	var token uint64
	for i := 0; i < 20000; i++ {
		tid := r.Intn(cfg.Cores)
		addr := uint64(r.Intn(64) * 64)
		// Only VD0's cores (0,1) ever write; VD1 (2,3) just reads.
		if tid < 2 && r.Intn(2) == 0 {
			token++
			f.Access(tid, addr, true, token, uint64(i))
		} else {
			f.Access(tid, addr, false, 0, uint64(i))
		}
	}
	if g.RecEpoch() == 0 {
		t.Fatal("read-only VD starved the recoverable epoch")
	}
}

// TestEpochScheduleBursts verifies the Fig 17b watch-point mechanism: a
// store-count window with a tiny epoch size multiplies the epoch rate
// inside the window.
func TestEpochScheduleBursts(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 1000
	cfg.Bursts = []sim.Burst{{From: 200, To: 400, Size: 10}}
	f, mb, _ := newFE(cfg)
	for i := 0; i < 1200; i++ {
		f.Access(0, uint64((i%16)*64), true, uint64(i), uint64(i))
	}
	// The schedule is keyed by machine-global stores (totStores * VDs with
	// 2 VDs here): VD0's stores 100..199 run with epoch size 10, giving
	// ~10 boundaries, versus ~1 from the surrounding 1000-store epochs.
	if mb.contexts < 9 || mb.contexts > 14 {
		t.Fatalf("burst window produced %d epoch advances, want ~11", mb.contexts)
	}
}
