// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII). Each FigN function runs the required (workload,
// scheme, configuration) combinations through the driver and reduces the
// results to the same rows/series the paper plots. cmd/nvbench and the
// repository's testing.B benchmarks are thin wrappers around this package.
package experiments

import (
	"fmt"
	"sync/atomic"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// accessesRun counts simulated accesses across every Run call in the
// process. cmd/nvbench reads the deltas to report accesses/sec per
// experiment; the final value is a deterministic sum regardless of how the
// cells were scheduled.
var accessesRun atomic.Uint64

// AccessesRun returns the total accesses simulated by Run so far.
func AccessesRun() uint64 { return accessesRun.Load() }

// Scale selects run sizes. The paper simulates 100M instructions/thread
// with 1M-store epochs on zsim; these scales keep the same epoch-to-run
// proportions at simulation-friendly sizes.
type Scale struct {
	Name        string
	MaxAccesses uint64
	EpochSize   int // stores per epoch
	// Seed, when non-zero, overrides sim.Config.Seed for every run at
	// this scale. All workload randomness flows from this one value
	// through sim's seeded PRNG, so a (seed, flags) pair replays
	// bit-identically; there is no ambient math/rand anywhere (nvlint's
	// wallclock check keeps it that way).
	Seed int64
	// FaultClass, when non-empty, arms NVOverlay's deterministic NVM fault
	// injector for every run at this scale ("torn", "flip", "loss", "nak",
	// "all"). The injector's PRNG seed derives from Seed (see
	// sim.Config.EffectiveFaultSeed), so a faulted run replays its fault
	// schedule byte-for-byte from (-seed, -faults) alone.
	FaultClass string
	// Machine, when non-nil, shrinks the cache hierarchy so the paper's
	// capacity relationships hold at reduced run length: the per-epoch
	// write set must exceed an L2 but fit the LLC, exactly as 1M-store
	// epochs relate to 256KB/32MB on the Table II machine.
	Machine func(*sim.Config)
	// Jobs is the worker count for the sweep engine: each figure fans its
	// independent (scheme, workload, config) cells over this many workers
	// and merges results in canonical cell order, so every value of Jobs
	// produces byte-identical figures (see internal/parallel). 0 means
	// runtime.GOMAXPROCS(0); 1 runs the cells serially in place.
	Jobs int
}

// Predefined scales. EpochSize counts machine-global stores; stores are
// roughly 40% of accesses, so each scale yields a few dozen epochs per
// run — and, with 8 versioned domains, several boundaries per VD.
var (
	// Smoke is for unit tests and quick CI runs.
	Smoke = Scale{Name: "smoke", MaxAccesses: 150_000, EpochSize: 1_500,
		Machine: func(c *sim.Config) {
			c.L1Size = 4 << 10
			c.L1Ways = 4
			c.L2Size = 16 << 10
			c.LLCSize = 2 << 20
			// Processor context is a fixed hardware cost; at reduced epoch
			// lengths it must scale too or it dwarfs tiny-epoch runs.
			c.ContextDumpBytes = 256
		}}
	// Quick is the default for cmd/nvbench.
	Quick = Scale{Name: "quick", MaxAccesses: 1_200_000, EpochSize: 12_000,
		Machine: func(c *sim.Config) {
			c.L1Size = 4 << 10
			c.L1Ways = 4
			c.L2Size = 16 << 10
			c.LLCSize = 4 << 20
			c.ContextDumpBytes = 256
		}}
	// Full approaches the paper's proportions on the unmodified Table II
	// machine (slow).
	Full = Scale{Name: "full", MaxAccesses: 8_000_000, EpochSize: 80_000}
)

// ScaleByName returns the predefined scale of that name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "smoke":
		return Smoke, nil
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Scale{}, fmt.Errorf("unknown scale %q (smoke, quick, full)", name)
	}
}

// SchemeNames lists the comparison schemes in the paper's Fig 11 order.
var SchemeNames = []string{"SWLog", "SWShadow", "HWShadow", "PiCL", "PiCL-L2", "NVOverlay"}

// NewScheme constructs a scheme by name over the given config.
func NewScheme(name string, cfg *sim.Config) (trace.Scheme, error) {
	switch name {
	case "Ideal":
		return baseline.NewIdeal(cfg), nil
	case "SWLog":
		return baseline.NewSWLog(cfg), nil
	case "SWShadow":
		return baseline.NewSWShadow(cfg), nil
	case "HWShadow":
		return baseline.NewHWShadow(cfg), nil
	case "PiCL":
		return baseline.NewPiCL(cfg), nil
	case "PiCL-L2":
		return baseline.NewPiCLL2(cfg), nil
	case "NVOverlay":
		return core.New(cfg), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", name)
	}
}

// RunResult bundles a run's summary with the scheme for post-run metric
// extraction (master-table sizes, evict decompositions, series).
type RunResult struct {
	Sum    trace.Summary
	Scheme trace.Scheme
}

// Run executes one (scheme, workload) pair at the given scale. cfgMod, if
// non-nil, adjusts the configuration before the run (sweeps, ablations).
func Run(schemeName, wlName string, scale Scale, cfgMod func(*sim.Config)) (RunResult, error) {
	d, s, _, err := newRun(schemeName, wlName, scale, cfgMod)
	if err != nil {
		return RunResult{}, err
	}
	sum := d.Run()
	accessesRun.Add(sum.Accesses)
	return RunResult{Sum: sum, Scheme: s}, nil
}

// config returns the machine every run at this scale starts from.
func (scale Scale) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.EpochSize = scale.EpochSize
	if scale.Seed != 0 {
		cfg.Seed = scale.Seed
	}
	cfg.FaultClass = scale.FaultClass
	if scale.Machine != nil {
		scale.Machine(&cfg)
	}
	return cfg
}

// newRun builds the driver and scheme Run runs, and the config they share,
// so a caller can attach a sink (the golden image, say) before running it.
func newRun(schemeName, wlName string, scale Scale, cfgMod func(*sim.Config)) (*trace.Driver, trace.Scheme, *sim.Config, error) {
	cfg := scale.config()
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	var s trace.Scheme
	var err error
	if cfg.StoreDir == "" {
		s, err = NewScheme(schemeName, &cfg)
	} else {
		s, err = newStoreScheme(schemeName, &cfg)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	wl, err := workload.Get(wlName)
	if err != nil {
		return nil, nil, nil, err
	}
	return trace.NewDriver(&cfg, s, wl, scale.MaxAccesses), s, &cfg, nil
}

// newStoreScheme builds the scheme with its content plane backed by the
// on-disk store in cfg.StoreDir. NVOverlay is assembled on a device that
// has the plane before construction: under NAK faults a retried OMC
// genesis write can drain another, and only a plane attached first keeps
// it (core.NewOn). The baselines persist no content, so theirs attaches
// after.
func newStoreScheme(name string, cfg *sim.Config) (trace.Scheme, error) {
	var s trace.Scheme
	if name != "NVOverlay" {
		var err error
		if s, err = NewScheme(name, cfg); err != nil {
			return nil, err
		}
	}
	plane, err := mem.OpenFilePlane(fault.OS, cfg.StoreDir, mem.DefaultCheckpointEvery)
	if err != nil {
		return nil, err
	}
	// Observed runs see the plane's I/O events (io_fault, io_retry,
	// plane_wound) in the same stream as everything else.
	plane.AttachBus(cfg.Obs)
	if s != nil {
		s.NVM().AttachPlane(plane)
		return s, nil
	}
	nvm := mem.NewNVM(cfg)
	nvm.AttachPlane(plane)
	return core.NewOn(cfg, nvm), nil
}

// cellSpec names one independent cell of a figure's sweep grid. Cells
// share no mutable state (Run builds a fresh config, scheme, workload and
// driver per call, and all randomness is seeded from the config), which is
// what lets the figures fan them out.
type cellSpec struct {
	scheme string
	wl     string
	mod    func(*sim.Config)
}

// runCells executes every cell at scale.Jobs-way parallelism and returns
// the results in cell order — the same order a serial loop over the specs
// would produce. On failure the first error in cell order is returned,
// matching which error a serial sweep would have surfaced.
func runCells(scale Scale, cells []cellSpec) ([]RunResult, error) {
	type outcome struct {
		r   RunResult
		err error
	}
	res := parallel.Map(parallel.Jobs(scale.Jobs), len(cells), func(i int) outcome {
		r, err := Run(cells[i].scheme, cells[i].wl, scale, cells[i].mod)
		return outcome{r, err}
	})
	out := make([]RunResult, len(cells))
	for i, o := range res {
		if o.err != nil {
			return nil, o.err
		}
		out[i] = o.r
	}
	return out, nil
}

// Matrix is a workloads x schemes table of float64 values.
type Matrix struct {
	Title     string
	Workloads []string
	Schemes   []string
	Cells     map[string]map[string]float64 // workload -> scheme -> value
}

func newMatrix(title string, workloads, schemes []string) *Matrix {
	m := &Matrix{Title: title, Workloads: workloads, Schemes: schemes,
		Cells: make(map[string]map[string]float64)}
	for _, w := range workloads {
		m.Cells[w] = make(map[string]float64)
	}
	return m
}

// Set stores a cell.
func (m *Matrix) Set(wl, scheme string, v float64) { m.Cells[wl][scheme] = v }

// Get reads a cell.
func (m *Matrix) Get(wl, scheme string) float64 { return m.Cells[wl][scheme] }
