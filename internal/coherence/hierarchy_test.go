package coherence

import (
	"fmt"
	"math/rand"
	"strings"
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

// TestPersistDirty is the fixed case: two dirty L1 lines in different
// domains are handed out in walk order, and every copy, including the
// stale clean one in the inclusive LLC, ends up clean and synced.
func TestPersistDirty(t *testing.T) {
	cfg := smallCfg()
	h := newH(cfg, Callbacks{
		OnStore: func(tid, vd int, ln *cache.Line) uint64 { ln.OID = 5; return 0 },
	})
	h.Store(0, 0x40, 1)
	h.Store(2, 0x80, 2)
	if llc := h.SliceOf(0x40).Peek(0x40); llc == nil || llc.Dirty || llc.Data != 0 {
		t.Fatalf("LLC copy before the walk = %+v, want a stale clean copy", llc)
	}
	var got []cache.Line
	h.PersistDirty(cache.LevelLLC, func(ln cache.Line) { got = append(got, ln) })
	if len(got) != 2 || got[0].Tag != 0x40 || got[1].Tag != 0x80 {
		t.Fatalf("persisted %+v, want 0x40 then 0x80", got)
	}
	for _, want := range got {
		if want.OID != 5 || want.Data != want.Tag/0x40 {
			t.Fatalf("persisted %+v, want OID 5 and the stored payload", want)
		}
		if llc := h.SliceOf(want.Tag).Peek(want.Tag); llc.Dirty || llc.OID != 5 || llc.Data != want.Data {
			t.Fatalf("LLC copy of %#x after the walk = %+v, want clean and synced", want.Tag, llc)
		}
	}
	h.PersistDirty(cache.LevelLLC, func(ln cache.Line) { t.Fatalf("%#x still dirty after the walk", ln.Tag) })
}

// twoPassPersist is the checkpoint PersistDirty replaced, kept as its
// reference: collect the first dirty copy of each address from the L1s
// down to deepest, then sync every copy in the hierarchy to it through a
// map and a second full scan.
func twoPassPersist(h *Hierarchy, deepest cache.Level, fn func(cache.Line)) {
	seen := make(map[uint64]bool)
	var lines []cache.Line
	h.Walk(cache.AllVDs, deepest, func(_ cache.Level, c *cache.Cache) {
		c.ForEach(func(ln *cache.Line) {
			if ln.Dirty && !seen[ln.Tag] {
				seen[ln.Tag] = true
				lines = append(lines, *ln)
			}
		})
	})
	newest := make(map[uint64]cache.Line, len(lines))
	for _, ln := range lines {
		newest[ln.Tag] = ln
	}
	h.Walk(cache.AllVDs, cache.LevelLLC, func(_ cache.Level, c *cache.Cache) {
		c.ForEach(func(ln *cache.Line) {
			if n, ok := newest[ln.Tag]; ok {
				ln.Dirty = false
				ln.Data = n.Data
				ln.OID = n.OID
			}
		})
	})
	for _, ln := range lines {
		fn(ln)
	}
}

// arrays renders every slot of every L1, L2 and LLC array.
func arrays(h *Hierarchy) string {
	var b strings.Builder
	h.Walk(cache.AllVDs, cache.LevelLLC, func(_ cache.Level, c *cache.Cache) {
		fmt.Fprintf(&b, "%s:", c.Name())
		c.ForEach(func(ln *cache.Line) { fmt.Fprintf(&b, " %+v", *ln) })
		b.WriteByte('\n')
	})
	return b.String()
}

// TestPersistDirtyReference runs seeded random load/store sequences on
// twin hierarchies and, at random points, checkpoints one with
// PersistDirty and the other with the two-pass reference. The lines
// handed out must match in order, and so must every line of every array
// afterwards. The fill hooks retag lines the way PiCL and PiCL-L2 do, so
// the copies a checkpoint syncs differ from the line it persists.
func TestPersistDirtyReference(t *testing.T) {
	for _, hook := range []struct {
		name string
		set  func(cb *Callbacks)
	}{
		{"plain", func(cb *Callbacks) {}},
		{"llc-tag", func(cb *Callbacks) { cb.OnLLCFill = func(ln *cache.Line) { ln.OID = 0 } }},
		{"l2-tag", func(cb *Callbacks) { cb.OnL2Fill = func(vd int, ln *cache.Line) { ln.OID = 0 } }},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := smallCfg()
			epoch := uint64(1)
			cb := Callbacks{OnStore: func(tid, vd int, ln *cache.Line) uint64 { ln.OID = epoch; return 0 }}
			hook.set(&cb)
			h, twin := newH(cfg, cb), newH(cfg, cb)
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				tid, addr := r.Intn(cfg.Cores), uint64(r.Intn(96)*64)
				if r.Intn(3) == 0 {
					data := r.Uint64()
					h.Store(tid, addr, data)
					twin.Store(tid, addr, data)
				} else {
					h.Load(tid, addr)
					twin.Load(tid, addr)
				}
				if r.Intn(50) != 0 {
					continue
				}
				deepest := cache.LevelL2 + cache.Level(r.Intn(2))
				var got, want []cache.Line
				h.PersistDirty(deepest, func(ln cache.Line) { got = append(got, ln) })
				twoPassPersist(twin, deepest, func(ln cache.Line) { want = append(want, ln) })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s seed %d step %d: persisted\n%v\nwant\n%v", hook.name, seed, i, got, want)
				}
				if g, w := arrays(h), arrays(twin); g != w {
					t.Fatalf("%s seed %d step %d: arrays after the walk\n%s\nwant\n%s", hook.name, seed, i, g, w)
				}
				epoch++
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("%s seed %d: %v", hook.name, seed, err)
			}
		}
	}
}
