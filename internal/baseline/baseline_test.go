package baseline

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

func blCfg() *sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	cfg.CoresPerVD = 2
	cfg.LLCSlices = 2
	cfg.L1Size = 4 * 2 * 64
	cfg.L1Ways = 2
	cfg.L2Size = 8 * 2 * 64
	cfg.L2Ways = 2
	cfg.LLCSize = 2 * 8 * 4 * 64
	cfg.LLCWays = 4
	cfg.EpochSize = 50
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &cfg
}

// runRandom drives a scheme with a fixed random mix and returns the wall
// clock and the scheme itself for inspection.
func runRandom(t *testing.T, s trace.Scheme, cfg *sim.Config, n int) uint64 {
	t.Helper()
	clocks := sim.NewClocks(cfg.Cores)
	s.Bind(clocks)
	r := sim.NewRNG(5)
	var token uint64
	for i := 0; i < n; i++ {
		tid := r.Intn(cfg.Cores)
		addr := uint64(r.Intn(400) * 64)
		lat := uint64(0)
		if r.Intn(2) == 0 {
			token++
			lat = s.Access(tid, addr, true, token)
		} else {
			lat = s.Access(tid, addr, false, 0)
		}
		clocks.Advance(tid, lat+2)
	}
	s.Drain(clocks.Max())
	return clocks.Max()
}

func TestIdealNoNVMTraffic(t *testing.T) {
	cfg := blCfg()
	s := NewIdeal(cfg)
	runRandom(t, s, cfg, 5000)
	if s.NVM().TotalBytes() != 0 {
		t.Fatalf("ideal wrote %d NVM bytes", s.NVM().TotalBytes())
	}
	if s.Name() != "Ideal" {
		t.Fatal("name")
	}
	if err := s.Hierarchy().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSWLogWritesLogAndData(t *testing.T) {
	cfg := blCfg()
	s := NewSWLog(cfg)
	runRandom(t, s, cfg, 5000)
	if s.NVM().Bytes(mem.WLog) == 0 {
		t.Fatal("no log traffic")
	}
	if s.NVM().Bytes(mem.WData) == 0 {
		t.Fatal("no data traffic")
	}
	if s.Stats().Get("log_entries") == 0 || s.Stats().Get("epoch_boundaries") == 0 {
		t.Fatal("log/boundary counters empty")
	}
	// Undo logging writes at least one log entry per flushed line.
	if s.Stats().Get("log_entries") < s.Stats().Get("flushed_lines")/2 {
		t.Fatal("implausibly few log entries")
	}
}

func TestSWLogBarrierOnCriticalPath(t *testing.T) {
	cfg := blCfg()
	cfg.EpochSize = 1 << 30 // no boundary: isolate the per-write barrier
	s := NewSWLog(cfg)
	clocks := sim.NewClocks(cfg.Cores)
	s.Bind(clocks)
	lat := s.Access(0, 0x40, true, 1)
	if lat < cfg.NVMWriteLat {
		t.Fatalf("first-write latency %d lacks the sync log write", lat)
	}
	// Second store to the same line in the same epoch is cheap.
	lat2 := s.Access(0, 0x40, true, 2)
	if lat2 >= cfg.NVMWriteLat {
		t.Fatalf("re-write latency %d should not pay a barrier", lat2)
	}
}

func TestSWShadowTableUpdates(t *testing.T) {
	cfg := blCfg()
	s := NewSWShadow(cfg)
	runRandom(t, s, cfg, 5000)
	if s.NVM().Bytes(mem.WMeta) == 0 {
		t.Fatal("no mapping-table traffic")
	}
	if s.NVM().Bytes(mem.WLog) != 0 {
		t.Fatal("shadow paging must not write logs")
	}
	if s.Stats().Get("shadow_copies") == 0 {
		t.Fatal("no shadow copies")
	}
}

func TestHWShadowOverlapsDataPersistence(t *testing.T) {
	cfg := blCfg()
	hw := NewHWShadow(cfg)
	sw := NewSWShadow(cfg)
	hwCycles := runRandom(t, hw, cfg, 8000)
	swCycles := runRandom(t, sw, cfg, 8000)
	if hwCycles >= swCycles {
		t.Fatalf("HW shadow (%d cycles) not faster than SW shadow (%d)", hwCycles, swCycles)
	}
	if hw.NVM().Bytes(mem.WMeta) == 0 {
		t.Fatal("HW shadow wrote no table entries")
	}
	if hw.Stats().Get("barrier_stall_cycles") == 0 {
		t.Fatal("HW shadow's synchronous table update did not stall")
	}
}

func TestPiCLLogsOncePerLinePerEpoch(t *testing.T) {
	cfg := blCfg()
	cfg.EpochSize = 10
	s := NewPiCL(cfg)
	clocks := sim.NewClocks(cfg.Cores)
	s.Bind(clocks)
	// 5 stores to the same line within one epoch: one log entry.
	for i := 0; i < 5; i++ {
		s.Access(0, 0x40, true, uint64(i))
	}
	if got := s.Stats().Get("log_entries"); got != 1 {
		t.Fatalf("log entries = %d, want 1", got)
	}
	// Cross the boundary (5 more stores) and write again: a second entry.
	for i := 0; i < 5; i++ {
		s.Access(0, uint64(0x1000+i*64), true, uint64(i))
	}
	s.Access(0, 0x40, true, 99)
	if got := s.Stats().Get("log_entries"); got != 7 {
		t.Fatalf("log entries = %d, want 7 (6 first-writes + 1 re-log)", got)
	}
}

func TestPiCLWalkWritesHomeLocations(t *testing.T) {
	cfg := blCfg()
	cfg.EpochSize = 20
	s := NewPiCL(cfg)
	runRandom(t, s, cfg, 3000)
	if s.Stats().Get("acs_walks") == 0 {
		t.Fatal("no ACS walks")
	}
	_, _, walk, logw := s.EvictReasons()
	if walk == 0 || logw == 0 {
		t.Fatalf("evict decomposition: walk=%d log=%d", walk, logw)
	}
}

func TestPiCLWalkerDisabled(t *testing.T) {
	cfg := blCfg()
	cfg.EpochSize = 20
	cfg.TagWalker = false
	s := NewPiCL(cfg)
	runRandom(t, s, cfg, 3000)
	if s.Stats().Get("acs_walks") != 0 {
		t.Fatal("walker ran despite ablation")
	}
	_, _, walk, _ := s.EvictReasons()
	if walk != 0 {
		t.Fatal("walk evictions without walker")
	}
}

func TestPiCLL2MoreTrafficThanPiCL(t *testing.T) {
	cfg := blCfg()
	// The contrast requires the paper's capacity relationship: the working
	// set (400 lines) fits in the LLC but thrashes the small per-VD L2s,
	// and epochs long enough that lines are re-stored within one epoch
	// (tag loss then forces PiCL-L2 to re-log).
	cfg.LLCSize = 2 * 64 * 4 * 64 // 512 lines
	cfg.EpochSize = 2000
	p := NewPiCL(cfg)
	p2 := NewPiCLL2(cfg)
	runRandom(t, p, cfg, 10000)
	runRandom(t, p2, cfg, 10000)
	// The L2-tracked variant loses tags on its tiny L2s: more log entries
	// and at least as many home writes.
	if p2.Stats().Get("log_entries") <= p.Stats().Get("log_entries") {
		t.Fatalf("PiCL-L2 logs (%d) not more than PiCL (%d)",
			p2.Stats().Get("log_entries"), p.Stats().Get("log_entries"))
	}
	if p2.NVM().TotalBytes() <= p.NVM().TotalBytes() {
		t.Fatalf("PiCL-L2 bytes (%d) not more than PiCL (%d)",
			p2.NVM().TotalBytes(), p.NVM().TotalBytes())
	}
}

func TestSchemeOrderingMatchesPaper(t *testing.T) {
	// The qualitative Fig 11 ordering on a random mix: SW logging slowest,
	// SW shadow close behind, HW shadow faster, PiCL/ideal fastest.
	cfg := blCfg()
	ideal := runRandom(t, NewIdeal(cfg), cfg, 8000)
	swlog := runRandom(t, NewSWLog(cfg), cfg, 8000)
	swsh := runRandom(t, NewSWShadow(cfg), cfg, 8000)
	picl := runRandom(t, NewPiCL(cfg), cfg, 8000)
	if !(swlog > swsh) {
		t.Fatalf("SWLog (%d) should be slower than SWShadow (%d)", swlog, swsh)
	}
	if !(swsh > picl) {
		t.Fatalf("SWShadow (%d) should be slower than PiCL (%d)", swsh, picl)
	}
	if picl < ideal {
		t.Fatalf("PiCL (%d) faster than ideal (%d)?", picl, ideal)
	}
	if float64(picl) > float64(ideal)*1.5 {
		t.Fatalf("PiCL (%d) should be near ideal (%d)", picl, ideal)
	}
}

func TestDrainPersistsOutstandingState(t *testing.T) {
	cfg := blCfg()
	cfg.EpochSize = 1 << 30 // never hit a boundary
	for _, s := range []trace.Scheme{NewSWLog(cfg), NewSWShadow(cfg), NewHWShadow(cfg), NewPiCL(cfg), NewPiCLL2(cfg)} {
		clocks := sim.NewClocks(cfg.Cores)
		s.Bind(clocks)
		s.Access(0, 0x40, true, 7)
		before := s.NVM().Bytes(mem.WData)
		s.Drain(100)
		if s.NVM().Bytes(mem.WData) <= before {
			t.Fatalf("%s: drain wrote no data", s.Name())
		}
	}
}

// TestCheckpointAllocatesNothing pins that a checkpoint is one in-place
// walk: with every cached line re-dirtied, persisting them all builds no
// map and collects no line slice.
func TestCheckpointAllocatesNothing(t *testing.T) {
	cfg := blCfg()
	s := NewPiCL(cfg)
	runRandom(t, s, cfg, 2000)
	redirty := func(ln *cache.Line) { ln.Dirty = true }
	allocs := testing.AllocsPerRun(5, func() {
		s.Hierarchy().Walk(cache.AllVDs, cache.LevelLLC, func(_ cache.Level, c *cache.Cache) { c.ForEach(redirty) })
		if n, _ := s.checkpoint(cache.LevelLLC, 0, false); n == 0 {
			t.Fatal("checkpoint persisted no lines")
		}
	})
	if allocs != 0 {
		t.Fatalf("checkpoint allocated %v times per run, want 0", allocs)
	}
}

// TestACSWalkRendersZeroWritebacks pins the touched-at-zero rule at the
// component level: a tag walk that finds no dirty line still renders
// acs_writebacks=0, while a counter nothing touched (log_entries, with no
// store issued) stays out of the rendering.
func TestACSWalkRendersZeroWritebacks(t *testing.T) {
	cfg := blCfg()
	s := NewPiCL(cfg)
	s.Bind(sim.NewClocks(cfg.Cores))
	s.Access(0, 0x40, false, 0)
	s.ackWalk(cache.LevelLLC)
	got := s.Stats().String()
	if !strings.Contains(got, " acs_writebacks=0 ") || !strings.Contains(got, "acs_walks=1") {
		t.Fatalf("Stats() = %q, want acs_walks=1 and acs_writebacks=0", got)
	}
	if strings.Contains(got, "log_entries") {
		t.Fatalf("Stats() = %q renders untouched log_entries", got)
	}
}
