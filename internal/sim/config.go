// Package sim provides the simulation substrate shared by every scheme: the
// machine configuration (paper Table II), a deterministic PRNG, and the
// per-thread clock bookkeeping used for smallest-clock-first interleaving.
package sim

import (
	"fmt"

	"repro/internal/obs"
)

// Config describes the simulated machine and run parameters. The defaults
// returned by DefaultConfig mirror Table II of the NVOverlay paper.
type Config struct {
	// Topology.
	Cores      int // total cores (paper: 16)
	CoresPerVD int // cores sharing one L2 / versioned domain (paper: 2)
	LLCSlices  int // distributed LLC slices (paper-style multi-slice LLC)
	// OMCs is the number of overlay memory controllers sharing the NVM
	// plane (paper §V-F: 4 on the 16-core machine); big-machine scale
	// configs raise it so per-OMC epoch tables and bank queues stay
	// proportionate to core count.
	OMCs int

	// Cache geometry. Sizes are in bytes; LineSize divides all of them.
	LineSize int
	L1Size   int
	L1Ways   int
	L2Size   int
	L2Ways   int
	LLCSize  int // total across all slices
	LLCWays  int

	// Latencies in core cycles (3 GHz clock).
	L1Latency     uint64
	L2Latency     uint64
	LLCLatency    uint64
	DRAMLatency   uint64
	NVMReadLat    uint64
	NVMWriteLat   uint64 // per-line bank occupancy (133 ns at 3 GHz ≈ 400)
	RemoteL2Lat   uint64 // extra hop for inter-VD forwarding
	ClockHz       float64
	NVMBanks      int
	NVMMaxBacklog uint64 // bank backlog beyond which issuing access stalls

	// Snapshotting.
	EpochSize        int    // stores per VD before a local epoch advance
	EpochAdvanceCost uint64 // drain + context dump cost per VD advance
	ContextDumpBytes int64  // bytes of processor context persisted per advance
	// Bursts overrides the epoch size for store-count windows, modelling
	// the paper's Fig 17b time-travel-debugging scenario where programmers
	// manually open tiny epochs around suspicious code regions.
	Bursts []Burst

	// NVOverlay-specific switches.
	TagWalker bool // enable the per-VD L2 tag walker (§IV-C)
	// OMCBufferBytes sizes the battery-backed OMC write-back cache
	// (§IV-E); 0 means no buffer. The paper's buffer is LLC-sized.
	OMCBufferBytes int
	SuperBlock     int // DRAM OID granularity in lines (1 or 4, §V-F)

	// MNM storage management.
	NVMPoolPages int // page-pool quota; 0 means unbounded
	PageSize     int // NVM data page size
	// WrapWidth is the epoch wire width in bits of the two-group
	// wrap-around protocol (§IV-D), in [4,16]; 0 means wrap-around is off.
	WrapWidth uint
	// RetainEpochs keeps merged per-epoch tables and their payloads for
	// time-travel reads (the debugging usage model, §V-E).
	RetainEpochs bool
	Seed         int64 // PRNG seed for workloads

	// Fault injection (robustness harness). FaultClass selects a named
	// deterministic NVM fault regime ("", "torn", "flip", "loss", "nak",
	// "all"); the injector's PRNG is seeded from Seed (EffectiveFaultSeed),
	// so faulted runs replay from the workload seed alone.
	FaultClass string

	// Obs, when non-nil, receives the run's structured event stream
	// (internal/obs sits below sim in the dependency tower, so pointing at
	// it from here creates no cycle). Components cache the bus at
	// construction; a nil bus costs one pointer check per emission site.
	Obs *obs.Bus
}

// DefaultConfig returns the paper's Table II machine. EpochSize here is
// expressed in store uops per VD; experiments scale it alongside the trace
// length so the walk/boundary frequency matches the paper's proportions.
func DefaultConfig() Config {
	return Config{
		Cores:      16,
		CoresPerVD: 2,
		LLCSlices:  8,
		OMCs:       4,

		LineSize: 64,
		L1Size:   32 << 10,
		L1Ways:   8,
		L2Size:   256 << 10,
		L2Ways:   8,
		LLCSize:  32 << 20,
		LLCWays:  16,

		L1Latency:     4,
		L2Latency:     8,
		LLCLatency:    30,
		DRAMLatency:   200,
		NVMReadLat:    300,
		NVMWriteLat:   400, // 133 ns at 3 GHz
		RemoteL2Lat:   30,
		ClockHz:       3e9,
		NVMBanks:      16,
		NVMMaxBacklog: 160_000, // ~400 writes deep per bank: the write-back
		// DRAM buffer of §VI-B absorbs bursts; only sustained
		// oversubscription backpressures execution.

		EpochSize:        100_000,
		EpochAdvanceCost: 1000,
		ContextDumpBytes: 2048, // architectural context per VD advance

		TagWalker:  true,
		SuperBlock: 1,

		PageSize: 4096,
		Seed:     42,
	}
}

// Burst is one store-count window with an overridden epoch size.
type Burst struct {
	From, To uint64 // store-count window [From, To)
	Size     int    // epoch size inside the window
}

// EpochSizeAt returns the epoch length in effect after `stores` stores
// (per VD for NVOverlay's distributed epochs, global for the baselines).
func (c *Config) EpochSizeAt(stores uint64) int {
	for _, b := range c.Bursts {
		if stores >= b.From && stores < b.To {
			return b.Size
		}
	}
	return c.EpochSize
}

// VDs returns the number of versioned domains implied by the topology.
func (c *Config) VDs() int { return c.Cores / c.CoresPerVD }

// VDOf maps a core/thread id to its versioned domain.
func (c *Config) VDOf(tid int) int { return tid / c.CoresPerVD }

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("sim: Cores must be positive, got %d", c.Cores)
	case c.CoresPerVD <= 0 || c.Cores%c.CoresPerVD != 0:
		return fmt.Errorf("sim: CoresPerVD %d must divide Cores %d", c.CoresPerVD, c.Cores)
	case c.VDs() > maxVDs:
		// The bound is cache.SharerSet's fixed capacity (sim sits below
		// cache in the dependency tower, so the constant is mirrored here).
		return fmt.Errorf("sim: %d versioned domains exceed the directory's %d-domain capacity",
			c.VDs(), maxVDs)
	case c.OMCs <= 0:
		return fmt.Errorf("sim: OMCs must be positive, got %d", c.OMCs)
	case c.OMCBufferBytes < 0:
		return fmt.Errorf("sim: OMCBufferBytes must be non-negative, got %d", c.OMCBufferBytes)
	case c.LLCSlices <= 0:
		return fmt.Errorf("sim: LLCSlices must be positive, got %d", c.LLCSlices)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("sim: LineSize must be a power of two, got %d", c.LineSize)
	case c.L1Size%(c.LineSize*c.L1Ways) != 0:
		return fmt.Errorf("sim: L1 geometry %d/%d-way not line-divisible", c.L1Size, c.L1Ways)
	case c.L2Size%(c.LineSize*c.L2Ways) != 0:
		return fmt.Errorf("sim: L2 geometry %d/%d-way not line-divisible", c.L2Size, c.L2Ways)
	case c.LLCSize%(c.LineSize*c.LLCWays*c.LLCSlices) != 0:
		return fmt.Errorf("sim: LLC geometry %d/%d-way/%d-slice not line-divisible",
			c.LLCSize, c.LLCWays, c.LLCSlices)
	case c.EpochSize <= 0:
		return fmt.Errorf("sim: EpochSize must be positive, got %d", c.EpochSize)
	case c.PageSize < c.LineSize || c.PageSize%c.LineSize != 0:
		return fmt.Errorf("sim: PageSize %d must be a multiple of LineSize %d", c.PageSize, c.LineSize)
	case c.SuperBlock != 1 && c.SuperBlock != 4:
		return fmt.Errorf("sim: SuperBlock must be 1 or 4, got %d", c.SuperBlock)
	case c.NVMBanks <= 0:
		return fmt.Errorf("sim: NVMBanks must be positive, got %d", c.NVMBanks)
	case c.WrapWidth != 0 && (c.WrapWidth < 4 || c.WrapWidth > 16):
		return fmt.Errorf("sim: WrapWidth must be 0 (off) or in [4,16], got %d", c.WrapWidth)
	case !validFaultClass(c.FaultClass):
		return fmt.Errorf("sim: unknown FaultClass %q (\"\", torn, flip, loss, nak, all)", c.FaultClass)
	}
	return nil
}

// maxVDs mirrors cache.MaxSharers (the SharerSet capacity) without
// importing it.
const maxVDs = 256

// validFaultClass mirrors fault.ValidClass without importing it (sim is the
// bottom of the dependency tower).
func validFaultClass(name string) bool {
	switch name {
	case "", "torn", "flip", "loss", "nak", "all":
		return true
	}
	return false
}

// EffectiveFaultSeed returns the injector seed, a fixed mix of the
// workload seed so a faulted run replays byte-identically from -seed alone.
func (c *Config) EffectiveFaultSeed() int64 {
	return c.Seed ^ 0x6661756c74 // "fault"
}

// LineAddr masks addr down to its cache-line address.
func (c *Config) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.LineSize-1)
}

// PageAddr masks addr down to its page address.
func (c *Config) PageAddr(addr uint64) uint64 {
	return addr &^ uint64(c.PageSize-1)
}
