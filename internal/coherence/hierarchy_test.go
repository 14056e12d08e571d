package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// smallCfg returns a shrunken machine so tests exercise evictions quickly.
func smallCfg() *sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	cfg.CoresPerVD = 2
	cfg.LLCSlices = 2
	cfg.L1Size = 4 * 2 * 64 // 4 sets, 2 ways
	cfg.L1Ways = 2
	cfg.L2Size = 8 * 2 * 64
	cfg.L2Ways = 2
	cfg.LLCSize = 2 * 16 * 4 * 64 // 2 slices * (4 sets * 16... )
	cfg.LLCWays = 4
	cfg.LLCSize = 2 * 4 * 4 * 64 // slice = 4 sets * 4 ways
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &cfg
}

func newH(cfg *sim.Config, cb Callbacks) *Hierarchy {
	return New(cfg, mem.NewDRAM(cfg), cb)
}

func TestLoadHitLatencies(t *testing.T) {
	cfg := smallCfg()
	h := newH(cfg, Callbacks{})
	// Cold miss goes to DRAM.
	lat := h.Load(0, 0x1000)
	want := cfg.L1Latency + cfg.L2Latency + cfg.LLCLatency + cfg.DRAMLatency
	if lat != want {
		t.Fatalf("cold load latency = %d, want %d", lat, want)
	}
	// Second load hits L1.
	if lat := h.Load(0, 0x1000); lat != cfg.L1Latency {
		t.Fatalf("L1 hit latency = %d, want %d", lat, cfg.L1Latency)
	}
	// Sibling core load hits the shared L2.
	if lat := h.Load(1, 0x1000); lat != cfg.L1Latency+cfg.L2Latency {
		t.Fatalf("L2 hit latency = %d", lat)
	}
}

func TestStoreGrantsExclusive(t *testing.T) {
	cfg := smallCfg()
	h := newH(cfg, Callbacks{})
	h.Store(0, 0x40, 1)
	ln := h.L1(0).Peek(0x40)
	if ln == nil || ln.State != cache.Modified || !ln.Dirty {
		t.Fatalf("post-store L1 line = %+v", ln)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Store hit is cheap afterwards.
	if lat := h.Store(0, 0x40, 1); lat != cfg.L1Latency {
		t.Fatalf("store hit latency = %d", lat)
	}
}

func TestRemoteInvalidationOnStore(t *testing.T) {
	cfg := smallCfg()
	var coherenceWBs int
	h := newH(cfg, Callbacks{
		OnL2WriteBack: func(vd int, ln cache.Line, reason cache.Reason) uint64 {
			if reason == cache.ReasonCoherence {
				coherenceWBs++
			}
			return 0
		},
	})
	h.Store(0, 0x80, 1) // VD0 owns dirty
	h.Store(2, 0x80, 1) // VD1 steals: VD0's dirty copy must be written back
	if coherenceWBs != 1 {
		t.Fatalf("coherence write-backs = %d, want 1", coherenceWBs)
	}
	if h.L1(0).Peek(0x80) != nil || h.L2(0).Peek(0x80) != nil {
		t.Fatal("VD0 still caches the line after invalidation")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteDowngradeOnLoad(t *testing.T) {
	cfg := smallCfg()
	h := newH(cfg, Callbacks{})
	h.Store(0, 0x80, 1)
	h.Load(2, 0x80) // VD1 reads: VD0 downgraded to S
	if ln := h.L1(0).Peek(0x80); ln != nil && ln.State.Writable() {
		t.Fatal("VD0 L1 still writable after remote load")
	}
	if ln := h.L2(0).Peek(0x80); ln == nil || ln.State.Writable() {
		t.Fatal("VD0 L2 should retain a shared copy")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSiblingDowngradeWithinVD(t *testing.T) {
	cfg := smallCfg()
	h := newH(cfg, Callbacks{})
	h.Store(0, 0xC0, 1)
	h.Load(1, 0xC0) // sibling load: core 0 must lose writability
	if ln := h.L1(0).Peek(0xC0); ln != nil && ln.State.Writable() {
		t.Fatal("sibling L1 still writable")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Store by core 1 must invalidate core 0's copy.
	h.Store(1, 0xC0, 1)
	if h.L1(0).Peek(0xC0) != nil {
		t.Fatal("stale sibling copy survived a store")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOnStoreCallbackSeesPreStoreLine(t *testing.T) {
	cfg := smallCfg()
	var sawDirty []bool
	h := newH(cfg, Callbacks{
		OnStore: func(tid, vd int, ln *cache.Line) uint64 {
			sawDirty = append(sawDirty, ln.Dirty)
			ln.OID = 99
			return 7
		},
	})
	lat1 := h.Store(0, 0x40, 1)
	lat2 := h.Store(0, 0x40, 1)
	if len(sawDirty) != 2 || sawDirty[0] || !sawDirty[1] {
		t.Fatalf("pre-store dirty flags = %v", sawDirty)
	}
	if h.L1(0).Peek(0x40).OID != 99 {
		t.Fatal("OnStore retag lost")
	}
	if lat2-cfg.L1Latency != 7 {
		t.Fatalf("extra cycles not charged: %d then %d", lat1, lat2)
	}
}

func TestOnResponseRV(t *testing.T) {
	cfg := smallCfg()
	var rvs []uint64
	h := newH(cfg, Callbacks{
		OnStore:    func(tid, vd int, ln *cache.Line) uint64 { ln.OID = 55; return 0 },
		OnResponse: func(vd int, rv uint64) uint64 { rvs = append(rvs, rv); return 0 },
	})
	h.Store(0, 0x40, 1) // response rv=0 (from DRAM)
	h.Load(2, 0x40)     // VD1 fetches, must observe rv=55
	found := false
	for _, rv := range rvs {
		if rv == 55 {
			found = true
		}
	}
	if !found {
		t.Fatalf("remote load did not observe the writer's version: %v", rvs)
	}
}

func TestLLCEvictionWritesDRAM(t *testing.T) {
	cfg := smallCfg()
	dram := mem.NewDRAM(cfg)
	var llcWBs int
	h := New(cfg, dram, Callbacks{
		OnLLCWriteBack: func(ln cache.Line, reason cache.Reason) uint64 { llcWBs++; return 0 },
	})
	// Dirty many distinct lines mapping across the tiny LLC to force
	// capacity evictions.
	for i := 0; i < 256; i++ {
		h.Store(0, uint64(i*64), 1)
	}
	if llcWBs == 0 {
		t.Fatal("no LLC write-backs despite capacity pressure")
	}
	if dram.Stats().Get("writebacks") == 0 {
		t.Fatal("DRAM saw no write-backs")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInclusionUnderPressure(t *testing.T) {
	cfg := smallCfg()
	h := newH(cfg, Callbacks{})
	// Mixed loads/stores from all cores over a window larger than the LLC.
	r := sim.NewRNG(11)
	for i := 0; i < 5000; i++ {
		tid := r.Intn(cfg.Cores)
		addr := uint64(r.Intn(512) * 64)
		if r.Intn(2) == 0 {
			h.Load(tid, addr)
		} else {
			h.Store(tid, addr, 1)
		}
		if i%500 == 0 {
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDataFreshness uses OID tags as a data oracle: every store stamps the
// line with a global version and carries three times that version as its
// payload; every load must then observe the most recent version and payload
// stored to that address, no matter which caches the data traversed.
func TestDataFreshness(t *testing.T) {
	cfg := smallCfg()
	var version uint64
	latest := map[uint64]uint64{}
	var h *Hierarchy
	h = New(cfg, mem.NewDRAM(cfg), Callbacks{
		OnStore: func(tid, vd int, ln *cache.Line) uint64 {
			version++
			ln.OID = version
			latest[ln.Tag] = version
			return 0
		},
	})
	r := sim.NewRNG(99)
	for i := 0; i < 20000; i++ {
		tid := r.Intn(cfg.Cores)
		addr := uint64(r.Intn(256) * 64)
		if r.Intn(3) == 0 {
			h.Store(tid, addr, (version+1)*3) // the payload of the version OnStore stamps
		} else {
			h.Load(tid, addr)
			ln := h.L1(tid).Peek(addr)
			if ln == nil {
				t.Fatalf("iteration %d: loaded line %#x absent from L1", i, addr)
			}
			if want := latest[addr]; ln.OID != want {
				t.Fatalf("iteration %d: tid %d read version %d of %#x, want %d (stale data)",
					i, tid, ln.OID, addr, want)
			}
			if want := latest[addr] * 3; ln.Data != want {
				t.Fatalf("iteration %d: tid %d read payload %d of %#x, want %d (stale payload)",
					i, tid, ln.Data, addr, want)
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyLines(t *testing.T) {
	cfg := smallCfg()
	h := newH(cfg, Callbacks{
		OnStore: func(tid, vd int, ln *cache.Line) uint64 { ln.OID = 5; return 0 },
	})
	h.Store(0, 0x40, 1)
	h.Store(2, 0x80, 1)
	dirty := h.DirtyLines(10, cache.LevelLLC)
	if len(dirty) != 2 {
		t.Fatalf("dirty lines = %d, want 2", len(dirty))
	}
	if got := h.DirtyLines(4, cache.LevelLLC); len(got) != 0 {
		t.Fatalf("maxOID filter failed: %d lines", len(got))
	}
}
