package sim

import (
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.VDs() != 8 {
		t.Fatalf("VDs = %d, want 8", cfg.VDs())
	}
	if cfg.VDOf(0) != 0 || cfg.VDOf(1) != 0 || cfg.VDOf(2) != 1 || cfg.VDOf(15) != 7 {
		t.Fatal("VDOf mapping wrong")
	}
	// The default has wrap-around off (WrapWidth 0); both ends of the
	// wire-width range validate too.
	if cfg.WrapWidth != 0 {
		t.Fatalf("default WrapWidth = %d, want 0 (off)", cfg.WrapWidth)
	}
	for _, w := range []uint{4, 16} {
		cfg.WrapWidth = w
		if err := cfg.Validate(); err != nil {
			t.Errorf("WrapWidth %d rejected: %v", w, err)
		}
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.CoresPerVD = 3 }, // does not divide 16
		func(c *Config) { c.LLCSlices = 0 },
		func(c *Config) { c.LineSize = 48 },
		func(c *Config) { c.L1Size = 1000 },
		func(c *Config) { c.L2Size = 1000 },
		func(c *Config) { c.LLCSize = 12345 },
		func(c *Config) { c.EpochSize = 0 },
		func(c *Config) { c.PageSize = 32 },
		func(c *Config) { c.SuperBlock = 3 },
		func(c *Config) { c.NVMBanks = 0 },
		func(c *Config) { c.WrapWidth = 2 },
		func(c *Config) { c.WrapWidth = 3 },
		func(c *Config) { c.WrapWidth = 17 },
		func(c *Config) { c.OMCs = 0 },
		func(c *Config) { c.OMCBufferBytes = -1 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLineAndPageAddr(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.LineAddr(0x12345); got != 0x12340 {
		t.Fatalf("LineAddr = %#x", got)
	}
	if got := cfg.PageAddr(0x12345); got != 0x12000 {
		t.Fatalf("PageAddr = %#x", got)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1)
	mustPanic(t, func() { r.Intn(0) })
	mustPanic(t, func() { r.Uint64n(0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestClocksBasics(t *testing.T) {
	c := NewClocks(4)
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	c.Advance(1, 10)
	c.Advance(2, 5)
	if c.MinLive() != 0 {
		t.Fatalf("min = %d, want 0", c.MinLive())
	}
	c.Advance(0, 20)
	c.Advance(3, 30)
	if c.MinLive() != 2 {
		t.Fatalf("min = %d, want 2", c.MinLive())
	}
	if c.Max() != 30 {
		t.Fatalf("max = %d", c.Max())
	}
}

func TestClocksMinAmong(t *testing.T) {
	c := NewClocks(3)
	c.Advance(0, 5)
	c.Advance(1, 1)
	c.Advance(2, 9)
	live := []bool{true, false, true}
	if got := c.MinAmong(live); got != 0 {
		t.Fatalf("MinAmong = %d, want 0", got)
	}
	if got := c.MinAmong([]bool{false, false, false}); got != -1 {
		t.Fatalf("MinAmong all-dead = %d, want -1", got)
	}
}

func TestClocksStallGroup(t *testing.T) {
	c := NewClocks(4)
	c.Advance(0, 10)
	c.Advance(1, 20)
	c.StallGroup(0, 2, 100)
	if c.Now(0) != 120 || c.Now(1) != 120 {
		t.Fatalf("group clocks = %d,%d, want 120,120", c.Now(0), c.Now(1))
	}
	if c.Now(2) != 0 || c.Now(3) != 0 {
		t.Fatal("StallGroup touched threads outside the group")
	}
}

// Property: MinLive always returns an index whose clock is <= all others.
func TestClocksMinProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		c := NewClocks(len(vals))
		for i, v := range vals {
			c.Advance(i, uint64(v))
		}
		m := c.MinLive()
		for i := range vals {
			if c.Now(m) > c.Now(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClocksRetireAndMinLive(t *testing.T) {
	c := NewClocks(5)
	for i := 0; i < 5; i++ {
		c.Advance(i, uint64(10*(i+1)))
	}
	if got := c.MinLive(); got != 0 {
		t.Fatalf("MinLive = %d, want 0", got)
	}
	c.Retire(0)
	c.Retire(1)
	if got := c.MinLive(); got != 2 {
		t.Fatalf("MinLive after retiring 0,1 = %d, want 2", got)
	}
	c.Advance(2, 1000)
	if got := c.MinLive(); got != 3 {
		t.Fatalf("MinLive after advancing 2 = %d, want 3", got)
	}
	for i := 2; i < 5; i++ {
		c.Retire(i)
	}
	if got := c.MinLive(); got != -1 {
		t.Fatalf("MinLive all-retired = %d, want -1", got)
	}
}

// Property: the tournament tree agrees with the linear reference scan —
// same winner, including MinAmong's first-minimum tie-break — through any
// interleaving of advances and retirements. This is the equivalence that
// keeps the big-machine driver loop byte-identical to the old
// live-slice/MinAmong loop.
func TestClocksTournamentMatchesMinAmong(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 64, 100, 256} {
		rng := NewRNG(int64(n))
		c := NewClocks(n)
		live := make([]bool, n)
		for i := range live {
			live[i] = true
		}
		for step := 0; step < 2000; step++ {
			want := c.MinAmong(live)
			if got := c.MinLive(); got != want {
				t.Fatalf("n=%d step %d: MinLive = %d, MinAmong = %d", n, step, got, want)
			}
			if want < 0 {
				break
			}
			// Mostly advance the winner (the driver's pattern), sometimes a
			// random live thread, occasionally retire one.
			switch rng.Intn(10) {
			case 0:
				c.Retire(want)
				live[want] = false
			case 1:
				tid := rng.Intn(n)
				if live[tid] {
					c.Advance(tid, uint64(rng.Intn(50)))
				}
			default:
				c.Advance(want, uint64(rng.Intn(20))) // ties are common on 0
			}
		}
	}
}

// Property: the lazily fixed tree answers as the linear reference does
// after any batch of Advance, StallGroup and Retire calls made between two
// MinLive calls, including MinAmong's first-minimum tie-break. Batches
// touch several threads, so MinLive replays several marked paths at once.
func TestClocksLazyTreeMatchesMinAmong(t *testing.T) {
	for _, n := range []int{1, 3, 16, 64, 256} {
		rng := NewRNG(int64(1000 + n))
		c := NewClocks(n)
		live := make([]bool, n)
		for i := range live {
			live[i] = true
		}
		for round := 0; round < 500; round++ {
			want := c.MinAmong(live)
			if got := c.MinLive(); got != want {
				t.Fatalf("n=%d round %d: MinLive = %d, MinAmong = %d", n, round, got, want)
			}
			if want < 0 {
				break
			}
			for k := rng.Intn(8); k >= 0; k-- {
				tid := rng.Intn(n)
				switch rng.Intn(20) {
				case 0:
					c.Retire(tid)
					live[tid] = false
				case 1, 2:
					lo := rng.Intn(n)
					c.StallGroup(lo, lo+1+rng.Intn(n-lo), uint64(rng.Intn(30)))
				default:
					c.Advance(tid, uint64(rng.Intn(20))) // ties are common on 0
				}
			}
		}
	}
}

// A run that never reads the minimum (trace replay) must not grow the
// mark list: each thread is listed at most once until MinLive drains it.
func TestClocksPendingMarksBounded(t *testing.T) {
	for _, n := range []int{1, 3, 16, 64, 256} {
		c := NewClocks(n)
		for i := 0; i < 10*n; i++ {
			c.Advance(i%n, 1)
			if len(c.pend) > n {
				t.Fatalf("n=%d after %d advances: %d marks pending, want <= %d", n, i+1, len(c.pend), n)
			}
		}
		c.StallGroup(0, n, 5)
		if len(c.pend) != n {
			t.Fatalf("n=%d: %d marks pending after touching every thread, want %d", n, len(c.pend), n)
		}
		if got := c.MinLive(); got != 0 || len(c.pend) != 0 {
			t.Fatalf("n=%d: MinLive = %d with %d marks left, want 0 with none", n, got, len(c.pend))
		}
	}
}
