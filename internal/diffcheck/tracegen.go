package diffcheck

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Access patterns the generator can produce. They mirror the shapes of the
// internal/workload suite at trace granularity: uniform random, a hot set
// absorbing most of the traffic, and a strided sweep.
const (
	PatternUniform = "uniform"
	PatternHotspot = "hotspot"
	PatternStride  = "stride"
)

// Params describes one differential trace: the machine shape, the access
// mix, and the verification schedule. A Params value plus nothing else
// deterministically reproduces a full run — it is the reproducer printed
// with every divergence.
type Params struct {
	Seed       int64
	Cores      int
	CoresPerVD int
	Steps      int // trace length in accesses
	Lines      int // working-set lines per region (shared and per-core private)
	SharePct   int // 0..100: chance an access targets the shared region
	WritePct   int // 0..100: chance an access is a store
	EpochSize  int // stores per epoch (per VD for NVOverlay, global for baselines)
	Pattern    string

	Walker   bool // NVOverlay tag walker (min-ver reports need it)
	Buffered bool // battery-backed OMC buffer
	// WrapWidth is the epoch wire width in bits of the two-group
	// wrap-around protocol, in [4,16]; 0 leaves wrap-around off.
	WrapWidth uint
	OMCs      int

	CrashPoints int // swept mid-run crash probes

	// Fault selects a deterministic NVM fault-injection class for the
	// fault-sweep runner ("", "torn", "flip", "loss", "nak", "all").
	Fault string
}

// Validate rejects parameter combinations the harness cannot run.
func (p Params) Validate() error {
	switch {
	case p.Cores <= 0:
		return fmt.Errorf("diffcheck: Cores must be positive, got %d", p.Cores)
	case p.CoresPerVD <= 0 || p.Cores%p.CoresPerVD != 0:
		return fmt.Errorf("diffcheck: CoresPerVD %d must divide Cores %d", p.CoresPerVD, p.Cores)
	case p.Steps <= 0:
		return fmt.Errorf("diffcheck: Steps must be positive, got %d", p.Steps)
	case p.Lines <= 0:
		return fmt.Errorf("diffcheck: Lines must be positive, got %d", p.Lines)
	case p.SharePct < 0 || p.SharePct > 100:
		return fmt.Errorf("diffcheck: SharePct must be in [0,100], got %d", p.SharePct)
	case p.WritePct < 0 || p.WritePct > 100:
		return fmt.Errorf("diffcheck: WritePct must be in [0,100], got %d", p.WritePct)
	case p.EpochSize <= 0:
		return fmt.Errorf("diffcheck: EpochSize must be positive, got %d", p.EpochSize)
	case p.Pattern != PatternUniform && p.Pattern != PatternHotspot && p.Pattern != PatternStride:
		return fmt.Errorf("diffcheck: unknown pattern %q", p.Pattern)
	case p.WrapWidth != 0 && (p.WrapWidth < 4 || p.WrapWidth > 16):
		return fmt.Errorf("diffcheck: WrapWidth must be in [4,16], got %d", p.WrapWidth)
	case p.OMCs <= 0:
		return fmt.Errorf("diffcheck: OMCs must be positive, got %d", p.OMCs)
	case p.CrashPoints < 0 || p.CrashPoints >= p.Steps:
		return fmt.Errorf("diffcheck: CrashPoints %d must be in [0,Steps)", p.CrashPoints)
	case !fault.ValidClass(p.Fault):
		return fmt.Errorf("diffcheck: unknown fault class %q", p.Fault)
	}
	return nil
}

// Config builds the simulated machine for this trace: a deliberately tiny
// hierarchy so capacity evictions, coherence transfers and walker traffic
// all fire within a short trace.
func (p Params) Config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = p.Cores
	cfg.CoresPerVD = p.CoresPerVD
	cfg.LLCSlices = 2
	cfg.L1Size = 1 << 10
	cfg.L1Ways = 2
	cfg.L2Size = 4 << 10
	cfg.L2Ways = 4
	cfg.LLCSize = 16 << 10
	cfg.LLCWays = 4
	cfg.EpochSize = p.EpochSize
	cfg.EpochAdvanceCost = 100
	cfg.TagWalker = p.Walker
	if p.Buffered {
		cfg.OMCBufferBytes = 2 << 10 // small: force buffer evictions
	}
	cfg.NVMPoolPages = 0 // unbounded pool, no compaction: exact retention
	cfg.WrapWidth = p.WrapWidth
	cfg.OMCs = p.OMCs
	cfg.RetainEpochs = true // the time-travel cross-checks read merged epochs
	cfg.Seed = p.Seed
	cfg.FaultClass = p.Fault // injector seed derives from Seed
	return cfg
}

// Each deterministically generates the first n trace steps from the seed,
// streaming each to f in order without materialising the trace. A store's
// Data is its step index + 1, unique and non-zero. f returns
// false to stop early. Thread choice, region choice, line choice and
// load/store choice all come from one internal/sim PRNG stream consumed
// strictly in step order, so the stream is bit-identical across runs and
// any prefix of a longer trace equals the shorter trace outright — the
// property the file-backed replay and Minimize both lean on.
func (p Params) Each(n int, f func(i int, s trace.Access) bool) {
	cfg := p.Config()
	rng := sim.NewRNG(p.Seed)
	line := uint64(cfg.LineSize)
	hot := p.Lines / 5
	if hot < 1 {
		hot = 1
	}
	for i := 0; i < n; i++ {
		tid := rng.Intn(p.Cores)
		var idx int
		switch p.Pattern {
		case PatternHotspot:
			if rng.Intn(100) < 80 {
				idx = rng.Intn(hot)
			} else {
				idx = rng.Intn(p.Lines)
			}
		case PatternStride:
			idx = (i * 3) % p.Lines
		default:
			idx = rng.Intn(p.Lines)
		}
		base := trace.HeapBase + uint64(1+tid)<<20 // private region of tid
		if rng.Intn(100) < p.SharePct {
			base = trace.HeapBase // shared region
		}
		st := trace.Access{Tid: tid, Addr: base + uint64(idx)*line}
		if rng.Intn(100) < p.WritePct {
			st.Write = true
			st.Data = uint64(i) + 1
		}
		if !f(i, st) {
			return
		}
	}
}

// crashSteps returns the swept crash-probe schedule: CrashPoints step
// indices spread evenly across the trace.
func (p Params) crashSteps() map[int]bool {
	pts := make(map[int]bool, p.CrashPoints)
	for i := 1; i <= p.CrashPoints; i++ {
		pts[i*p.Steps/(p.CrashPoints+1)] = true
	}
	return pts
}

// FlagString renders the params as nvcheck diff flags, the second half of
// every divergence reproducer.
func (p Params) FlagString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-seed %d -cores %d -vdcores %d -steps %d -lines %d -share %d -write %d -epoch %d -pattern %s -omcs %d -crash %d",
		p.Seed, p.Cores, p.CoresPerVD, p.Steps, p.Lines, p.SharePct, p.WritePct, p.EpochSize, p.Pattern, p.OMCs, p.CrashPoints)
	if !p.Walker {
		b.WriteString(" -nowalker")
	}
	if p.Buffered {
		b.WriteString(" -buffer")
	}
	if p.WrapWidth != 0 {
		fmt.Fprintf(&b, " -wrapwidth %d", p.WrapWidth)
	}
	if p.Fault != "" {
		fmt.Fprintf(&b, " -fault %s", p.Fault)
	}
	return b.String()
}
