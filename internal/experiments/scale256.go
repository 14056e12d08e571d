package experiments

import (
	"repro/internal/sim"
)

// Scale256Point is one cell of the big-machine scale sweep: a (core count,
// VD layout, scheme, workload) run with its deterministic metrics. Wall
// clock is deliberately absent — the point values must stay byte-identical
// across -j and across hosts; throughput lives in nvbench's per-experiment
// accesses/sec and in the committed BENCH_scale.json capture.
type Scale256Point struct {
	Cores      int     `json:"cores"`
	VDs        int     `json:"vds"`
	OMCs       int     `json:"omcs"`
	Scheme     string  `json:"scheme"`
	Workload   string  `json:"workload"`
	Accesses   uint64  `json:"accesses"`
	Cycles     uint64  `json:"cycles"`
	NormCycles float64 `json:"norm_cycles"` // vs the ideal system at the same size
}

// Scale256Cores is the default core-count grid of the big-machine sweep.
var Scale256Cores = []int{64, 128, 256}

// Scale256Workloads is the default workload set: the zipfian multi-tenant
// OLTP mix and the social-graph hot-key kernel — production-skewed traffic
// rather than the paper's uniform microkernels, so a handful of hot lines
// are shared across most of the machine's versioned domains.
var Scale256Workloads = []string{"oltp", "social"}

// scale256Schemes are the schemes the sweep compares (the same pair as
// AblateScaling: PiCL-L2 is the only PiCL variant even possible on a large
// non-inclusive machine).
var scale256Schemes = []string{"PiCL-L2", "NVOverlay"}

// Scale256 runs the big-machine sweep: the paper stops at 16 cores, this
// pushes the same simulator to 64-256 cores / up to 256 versioned domains
// and reports overhead against a same-size ideal machine. Cache capacity,
// LLC slices, NVM banks and OMC partitions all scale with the core count
// (constant per-core pressure: AblateScaling's growMachine plus OMCs);
// each core count runs at the default 2 cores/VD, and the 256-core point
// additionally runs a 1-core/VD layout — the full 256-domain directory
// the sharded SharerSet exists for. nil coreCounts/workloads select the
// default grids.
func Scale256(scale Scale, coreCounts []int, workloads []string) ([]Scale256Point, error) {
	if coreCounts == nil {
		coreCounts = Scale256Cores
	}
	if workloads == nil {
		workloads = Scale256Workloads
	}
	type layout struct{ cores, cpv int }
	var layouts []layout
	for _, cores := range coreCounts {
		layouts = append(layouts, layout{cores, 2})
		if cores >= 256 {
			layouts = append(layouts, layout{cores, 1})
		}
	}
	stride := 1 + len(scale256Schemes) // Ideal + the compared schemes
	cells := make([]cellSpec, 0, len(layouts)*len(workloads)*stride)
	for _, l := range layouts {
		mod := scale256Machine(scale, l.cores, l.cpv)
		for _, wl := range workloads {
			cells = append(cells, cellSpec{scheme: "Ideal", wl: wl, mod: mod})
			for _, sc := range scale256Schemes {
				cells = append(cells, cellSpec{scheme: sc, wl: wl, mod: mod})
			}
		}
	}
	res, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	var out []Scale256Point
	i := 0
	for _, l := range layouts {
		for _, wl := range workloads {
			ideal := res[i]
			for j, sc := range scale256Schemes {
				r := res[i+1+j]
				out = append(out, Scale256Point{
					Cores:      l.cores,
					VDs:        l.cores / l.cpv,
					OMCs:       l.cores / 4,
					Scheme:     sc,
					Workload:   wl,
					Accesses:   r.Sum.Accesses,
					Cycles:     r.Sum.Cycles,
					NormCycles: float64(r.Sum.Cycles) / float64(ideal.Sum.Cycles),
				})
			}
			i += stride
		}
	}
	return out, nil
}

// scale256Machine is growMachine with cpv cores per VD and OMC partitions
// scaled too (4 OMCs at 16 cores, the paper's one-per-memory-controller
// layout).
func scale256Machine(scale Scale, cores, cpv int) func(*sim.Config) {
	return func(c *sim.Config) {
		growMachine(c, scale, cores)
		c.CoresPerVD = cpv
		c.OMCs = cores / 4
	}
}

// growMachine grows scale's Table II machine to the given core count with
// constant per-core pressure: LLC capacity, slice count and NVM banks
// scale linearly from the 16-core baseline.
func growMachine(c *sim.Config, scale Scale, cores int) {
	base := sim.DefaultConfig()
	if scale.Machine != nil {
		scale.Machine(&base)
	}
	c.Cores = cores
	c.LLCSlices = cores / 2
	c.LLCSize = base.LLCSize / 16 * cores
	c.NVMBanks = max(base.NVMBanks/16*cores, 2)
}
