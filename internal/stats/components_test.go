package stats_test

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/cst"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// component is one simulator part with a counter set: count does some
// work that touches its counters.
type component struct {
	name  string
	stats func() *stats.Set
	count func()
}

// components builds every part that declares counters. Building a set
// from a name table panics on an empty or duplicate name, so a gap in any
// component's keyed table fails here.
func components() []component {
	cfg := sim.DefaultConfig()
	dram := mem.NewDRAM(&cfg)
	nvm := mem.NewNVM(&cfg)
	h := coherence.New(&cfg, mem.NewDRAM(&cfg), coherence.Callbacks{})
	o := omc.New(&cfg, mem.NewNVM(&cfg), 0)
	g := omc.NewGroup(&cfg, mem.NewNVM(&cfg), 2)
	fe := cst.New(&cfg, mem.NewDRAM(&cfg), omc.NewGroup(&cfg, mem.NewNVM(&cfg), 1))
	cs := []component{
		{"dram", dram.Stats, func() { dram.WriteBack(0x40, 1, 7) }},
		{"nvm", nvm.Stats, func() { nvm.Write(mem.WData, 0x40, cfg.LineSize, 0) }},
		{"coherence", h.Stats, func() { h.Load(0, 0x40) }},
		{"omc", o.Stats, func() { o.ReceiveVersion(omc.Version{Addr: 0x40, Epoch: 1, Data: 7}, 0) }},
		{"omcgroup", g.Stats, func() { g.ReportMinVer(0, 2, 0) }},
		{"cst", fe.Stats, func() { fe.Access(0, 0x40, true, 7, 0) }},
	}
	for _, s := range []trace.Scheme{baseline.NewIdeal(&cfg), baseline.NewSWLog(&cfg), baseline.NewSWShadow(&cfg),
		baseline.NewHWShadow(&cfg), baseline.NewPiCL(&cfg), baseline.NewPiCLL2(&cfg)} {
		s.Bind(sim.NewClocks(cfg.Cores))
		cs = append(cs, component{s.Name(), s.Stats, func() { s.Access(0, 0x40, true, 7) }})
	}
	return cs
}

// touchedKeys returns the names of s's touched counters, read off its
// "name{k=v ...}" rendering.
func touchedKeys(s *stats.Set) []string {
	body := strings.TrimSuffix(strings.TrimPrefix(s.String(), s.Name()+"{"), "}")
	var keys []string
	for _, kv := range strings.Fields(body) {
		k, _, _ := strings.Cut(kv, "=")
		keys = append(keys, k)
	}
	return keys
}

func TestComponentsDeclareCounters(t *testing.T) {
	for _, c := range components() {
		if got := c.stats().Name(); got != c.name {
			t.Errorf("%s: Stats() is named %q", c.name, got)
		}
	}
}

// Stats hands out a snapshot: whatever a caller adds to or merges into
// the returned set does not reach the component's running counts.
func TestStatsReturnsSnapshot(t *testing.T) {
	for _, c := range components() {
		c.count()
		got := c.stats()
		keys, before := touchedKeys(got), got.String()
		if len(keys) == 0 {
			t.Fatalf("%s: count touched no counter", c.name)
		}
		got.Merge(c.stats())
		for _, k := range keys {
			got.Add(k, 1)
		}
		if after := c.stats().String(); after != before {
			t.Errorf("%s: mutating a returned set changed the next Stats():\nbefore %s\nafter  %s", c.name, before, after)
		}
	}
}

// The per-reason and per-class slots render under the names the figure
// code reads them by.
func TestSlotNamesMatchEnums(t *testing.T) {
	cfg := sim.DefaultConfig()
	nvm := mem.NewNVM(&cfg)
	for c, name := range []string{"data", "log", "meta", "context"} {
		class := mem.WriteClass(c)
		nvm.Write(class, uint64(c)*0x1000, 8*(c+1), 0)
		s := nvm.Stats()
		if s.Get("bytes_"+name) != int64(8*(c+1)) || s.Get("writes_"+name) != 1 ||
			nvm.Bytes(class) != int64(8*(c+1)) || nvm.Writes(class) != 1 {
			t.Errorf("class %s: %s", name, s)
		}
	}
	fe := cst.New(&cfg, mem.NewDRAM(&cfg), omc.NewGroup(&cfg, mem.NewNVM(&cfg), 1))
	fe.Access(0, 0x40, true, 7, 0)
	fe.Drain(10)
	s := fe.Stats()
	for r := cache.Reason(0); r < cache.NumReasons; r++ {
		if got := s.Get("evict_" + r.String()); got != int64(fe.EvictReason(r)) {
			t.Errorf("evict_%s = %d, EvictReason = %d", r, got, fe.EvictReason(r))
		}
	}
	if fe.EvictReason(cst.ReasonDrain) != 1 {
		t.Errorf("drain evictions = %d, want 1: %s", fe.EvictReason(cst.ReasonDrain), s)
	}
}
