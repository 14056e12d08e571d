package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cst"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Figure is one entry of the evaluation `nvbench -exp all` regenerates.
type Figure struct {
	Name string
	// Run runs the entry's cells at sc, prints it to w and returns its
	// result, which is also its -json result. wls narrows the
	// per-workload figures (nil: the paper's twelve); the others ignore it.
	Run func(sc Scale, wls []string, w io.Writer) (any, error)
}

// Figures lists, in order, every entry `nvbench -exp all` runs: Table II,
// the paper's Figs 11-17 and the three ablations.
var Figures = []Figure{
	{"config", runConfig},
	figure("fig11", Fig11, PrintMatrix),
	figure("fig12", Fig12, PrintMatrix),
	figure("fig13", Fig13, PrintFig13),
	figure("fig14", scaleOnly(Fig14), PrintFig14),
	figure("fig15", scaleOnly(Fig15), PrintFig15),
	figure("fig16", scaleOnly(Fig16), PrintFig16),
	figure("fig17", scaleOnly(func(sc Scale) ([]Fig17Series, error) { return Fig17(sc, false) }), PrintFig17),
	figure("fig17b", scaleOnly(func(sc Scale) ([]Fig17Series, error) { return Fig17(sc, true) }), PrintFig17),
	figure("ablate-superblock", scaleOnly(AblateSuperBlock), PrintSuperBlock),
	figure("ablate-scaling", scaleOnly(AblateScaling), PrintScaling),
	figure("ablate-walker", scaleOnly(AblateWalker), PrintWalker),
}

// figure builds the entry that runs a figure and prints its result.
func figure[R any](name string, run func(Scale, []string) (R, error), render func(io.Writer, R)) Figure {
	return Figure{name, func(sc Scale, wls []string, w io.Writer) (any, error) {
		r, err := run(sc, wls)
		if err != nil {
			return nil, err
		}
		render(w, r)
		return r, nil
	}}
}

// scaleOnly adapts a figure that runs fixed workloads.
func scaleOnly[R any](run func(Scale) (R, error)) func(Scale, []string) (R, error) {
	return func(sc Scale, _ []string) (R, error) { return run(sc) }
}

// runConfig prints Table II for the machine the scale runs; it has no
// result.
func runConfig(sc Scale, _ []string, w io.Writer) (any, error) {
	cfg := sc.Config()
	PrintConfig(w, &cfg)
	fmt.Fprintf(w, "  Scale       %s: %d accesses, caches scaled to keep the paper's\n",
		sc.Name, sc.MaxAccesses)
	fmt.Fprintln(w, "              epoch-write-set vs L2/LLC capacity relationships")
	return nil, nil
}

// Fig11 regenerates Figure 11: wall-clock cycles of every scheme on every
// workload, normalised to the ideal no-snapshotting system.
func Fig11(scale Scale, workloads []string) (*Matrix, error) {
	if workloads == nil {
		workloads = workload.Names()
	}
	m := newMatrix("Fig 11: Normalized Cycles (vs no-snapshotting ideal)", workloads, SchemeNames)
	stride := 1 + len(SchemeNames) // ideal + comparison schemes per workload
	cells := make([]cellSpec, 0, len(workloads)*stride)
	for _, wl := range workloads {
		cells = append(cells, cellSpec{scheme: "Ideal", wl: wl})
		for _, sc := range SchemeNames {
			cells = append(cells, cellSpec{scheme: sc, wl: wl})
		}
	}
	res, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	for i, wl := range workloads {
		base := float64(res[i*stride].Sum.Cycles)
		for j, sc := range SchemeNames {
			m.Set(wl, sc, float64(res[i*stride+1+j].Sum.Cycles)/base)
		}
	}
	return m, nil
}

// Fig12 regenerates Figure 12: bytes written to NVM (data + log +
// metadata), normalised to NVOverlay, for the four hardware schemes the
// paper plots.
func Fig12(scale Scale, workloads []string) (*Matrix, error) {
	if workloads == nil {
		workloads = workload.Names()
	}
	schemes := []string{"HWShadow", "PiCL", "PiCL-L2", "NVOverlay"}
	m := newMatrix("Fig 12: NVM Write Bytes (data+log+metadata, normalized to NVOverlay)", workloads, schemes)
	stride := 1 + 3 // NVOverlay (the normalisation base) + three baselines
	cells := make([]cellSpec, 0, len(workloads)*stride)
	for _, wl := range workloads {
		cells = append(cells, cellSpec{scheme: "NVOverlay", wl: wl})
		for _, sc := range schemes[:3] {
			cells = append(cells, cellSpec{scheme: sc, wl: wl})
		}
	}
	res, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	for i, wl := range workloads {
		base := float64(snapshotBytes(res[i*stride].Sum))
		m.Set(wl, "NVOverlay", 1.0)
		for j, sc := range schemes[:3] {
			m.Set(wl, sc, float64(snapshotBytes(res[i*stride+1+j].Sum))/base)
		}
	}
	return m, nil
}

// snapshotBytes is the write-amplification numerator the paper uses in
// Fig 12: snapshot data, log entries and mapping metadata. Processor
// context dumps are excluded — the baselines would pay an equivalent,
// unmodelled cost.
func snapshotBytes(s trace.Summary) int64 {
	return s.DataBytes + s.LogBytes + s.MetaBytes
}

// Fig13Row is one bar of Figure 13.
type Fig13Row struct {
	Workload      string
	MasterPct     float64 // Mmaster size as % of write working set
	LeafOccupancy float64 // fraction of leaf slots mapping a line
	WorkingSetMB  float64
}

// Fig13 regenerates Figure 13: the persistent Master Table's size relative
// to the write working set, per workload, plus the leaf-occupancy statistic
// behind the paper's yada discussion.
func Fig13(scale Scale, workloads []string) ([]Fig13Row, error) {
	if workloads == nil {
		workloads = workload.Names()
	}
	cells := make([]cellSpec, len(workloads))
	for i, wl := range workloads {
		cells[i] = cellSpec{scheme: "NVOverlay", wl: wl}
	}
	res, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	var rows []Fig13Row
	for i, wl := range workloads {
		nvo := res[i].Scheme.(*core.NVOverlay)
		ws := nvo.Group().WorkingSetBytes()
		var pct float64
		if ws > 0 {
			pct = 100 * float64(nvo.Group().MasterBytes()) / float64(ws)
		}
		rows = append(rows, Fig13Row{
			Workload:      wl,
			MasterPct:     pct,
			LeafOccupancy: nvo.Group().LeafOccupancy(),
			WorkingSetMB:  float64(ws) / (1 << 20),
		})
	}
	return rows, nil
}

// Fig14Point is one (scheme, epoch-size) measurement of Figure 14.
type Fig14Point struct {
	Scheme     string
	EpochSize  int
	NormCycles float64 // vs ideal
	NormBytes  float64 // vs NVOverlay at the same epoch size
	RawBytes   int64   // absolute NVM bytes (trend diagnostics)
}

// Fig14 regenerates Figure 14: epoch-size sensitivity on ART for PiCL,
// PiCL-L2 and NVOverlay. Epoch sizes sweep 0.5x..4x of the scale's epoch,
// mirroring the paper's 500K..4M sweep around its 1M default.
func Fig14(scale Scale) ([]Fig14Point, error) {
	sizes := []int{scale.EpochSize / 2, scale.EpochSize, scale.EpochSize * 2, scale.EpochSize * 4}
	schemes := []string{"PiCL", "PiCL-L2", "NVOverlay"}
	const stride = 4 // Ideal + NVOverlay + PiCL + PiCL-L2 per epoch size
	cells := make([]cellSpec, 0, len(sizes)*stride)
	for _, size := range sizes {
		mod := func(c *sim.Config) { c.EpochSize = size }
		cells = append(cells,
			cellSpec{scheme: "Ideal", wl: "art", mod: mod},
			cellSpec{scheme: "NVOverlay", wl: "art", mod: mod},
			cellSpec{scheme: "PiCL", wl: "art", mod: mod},
			cellSpec{scheme: "PiCL-L2", wl: "art", mod: mod})
	}
	res, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	var out []Fig14Point
	for si, size := range sizes {
		ideal, nvo := res[si*stride], res[si*stride+1]
		for _, sc := range schemes {
			r := nvo
			switch sc {
			case "PiCL":
				r = res[si*stride+2]
			case "PiCL-L2":
				r = res[si*stride+3]
			}
			out = append(out, Fig14Point{
				Scheme:     sc,
				EpochSize:  size,
				NormCycles: float64(r.Sum.Cycles) / float64(ideal.Sum.Cycles),
				NormBytes:  float64(snapshotBytes(r.Sum)) / float64(snapshotBytes(nvo.Sum)),
				RawBytes:   snapshotBytes(r.Sum),
			})
		}
	}
	return out, nil
}

// Fig15Row is one stacked bar of Figure 15: the share of NVM data
// write-backs by cause.
type Fig15Row struct {
	Scheme                             string
	Walker                             bool
	CapacityPct, CoherencePct, WalkPct float64
	Total                              uint64
}

// Fig15 regenerates Figure 15: the evict-reason decomposition on ART for
// PiCL, PiCL-L2 and NVOverlay, with and without the tag walker.
func Fig15(scale Scale) ([]Fig15Row, error) {
	type variant struct {
		scheme string
		walker bool
	}
	var grid []variant
	var cells []cellSpec
	for _, walker := range []bool{true, false} {
		for _, sc := range []string{"PiCL", "PiCL-L2", "NVOverlay"} {
			grid = append(grid, variant{sc, walker})
			cells = append(cells, cellSpec{scheme: sc, wl: "art",
				mod: func(c *sim.Config) { c.TagWalker = walker }})
		}
	}
	res, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	var rows []Fig15Row
	for i, v := range grid {
		r := res[i]
		var capN, cohN, walkN uint64
		switch s := r.Scheme.(type) {
		case *core.NVOverlay:
			fe := s.Frontend()
			capN = fe.EvictReason(cst.ReasonCapacity) + fe.EvictReason(cst.ReasonDrain)
			cohN = fe.EvictReason(cst.ReasonCoherence) + fe.EvictReason(cst.ReasonStoreEvict)
			walkN = fe.EvictReason(cst.ReasonWalk)
		case interface {
			EvictReasons() (uint64, uint64, uint64, uint64)
		}:
			var logN uint64
			capN, cohN, walkN, logN = s.EvictReasons()
			cohN += logN // the paper groups coherence and log traffic
		}
		total := capN + cohN + walkN
		row := Fig15Row{Scheme: v.scheme, Walker: v.walker, Total: total}
		if total > 0 {
			row.CapacityPct = 100 * float64(capN) / float64(total)
			row.CoherencePct = 100 * float64(cohN) / float64(total)
			row.WalkPct = 100 * float64(walkN) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig16Result holds the OMC-buffer ablation of Figure 16.
type Fig16Result struct {
	NormCyclesNoBuffer float64 // with-buffer = 1.0
	WritesNoBuffer     int64   // NVM write operations
	WritesWithBuffer   int64
	BufferHitRate      float64
}

// Fig16 regenerates Figure 16: NVOverlay on ART with a single epoch for
// the whole run, with and without the battery-backed OMC buffer.
func Fig16(scale Scale) (Fig16Result, error) {
	oneEpoch := func(buf bool) func(*sim.Config) {
		return func(c *sim.Config) {
			c.EpochSize = 1 << 30 // one epoch for the entire run
			if buf {
				c.OMCBufferBytes = c.LLCSize // the paper's LLC-sized buffer
			}
		}
	}
	res, err := runCells(scale, []cellSpec{
		{scheme: "NVOverlay", wl: "art", mod: oneEpoch(false)},
		{scheme: "NVOverlay", wl: "art", mod: oneEpoch(true)},
	})
	if err != nil {
		return Fig16Result{}, err
	}
	noBuf, withBuf := res[0], res[1]
	nvo := withBuf.Scheme.(*core.NVOverlay)
	return Fig16Result{
		NormCyclesNoBuffer: float64(noBuf.Sum.Cycles) / float64(withBuf.Sum.Cycles),
		WritesNoBuffer:     noBuf.Scheme.NVM().TotalWrites(),
		WritesWithBuffer:   withBuf.Scheme.NVM().TotalWrites(),
		BufferHitRate:      nvo.Group().BufferHitRate(),
	}, nil
}

// Fig17Series is one curve of Figure 17.
type Fig17Series struct {
	Scheme string
	Bursty bool
	Series *stats.TimeSeries
	Hz     float64
}

// MarshalJSON writes the curve as its scheme, its bursty flag and the
// bandwidth of each bucket in GB/s (the series keeps its buckets
// unexported).
func (s Fig17Series) MarshalJSON() ([]byte, error) {
	c := struct {
		Scheme       string    `json:"scheme"`
		Bursty       bool      `json:"bursty"`
		BandwidthGBs []float64 `json:"bandwidth_gbs"`
	}{Scheme: s.Scheme, Bursty: s.Bursty}
	for i := 0; i < s.Series.Len(); i++ {
		c.BandwidthGBs = append(c.BandwidthGBs, s.Series.BandwidthGBs(i, s.Hz))
	}
	return json.Marshal(c)
}

// Fig17 regenerates Figure 17: NVM write bandwidth over run progress on
// the B+Tree workload, for PiCL and NVOverlay, under the default epoch and
// under the bursty time-travel-debugging epoch schedule (three windows of
// progressively larger tiny epochs, as in the paper's Fig 17b).
func Fig17(scale Scale, bursty bool) ([]Fig17Series, error) {
	mod := func(c *sim.Config) {
		if !bursty {
			return
		}
		// Three bursty windows across the run; epoch sizes scale with the
		// default the same way the paper's 1K/10K/100K relate to 1M.
		est := uint64(scale.MaxAccesses / 3) // rough stores over the run
		win := est / 10
		burst := func(div int) int {
			size := scale.EpochSize / div
			if size < 16 {
				size = 16 // an epoch below ~one operation is meaningless
			}
			return size
		}
		c.Bursts = []sim.Burst{
			{From: 1 * est / 5, To: 1*est/5 + win, Size: burst(1000)},
			{From: 2 * est / 5, To: 2*est/5 + win, Size: burst(100)},
			{From: 3 * est / 5, To: 3*est/5 + win, Size: burst(10)},
		}
	}
	schemes := []string{"PiCL", "NVOverlay"}
	cells := make([]cellSpec, len(schemes))
	for i, sc := range schemes {
		cells[i] = cellSpec{scheme: sc, wl: "btree", mod: mod}
	}
	res, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	var out []Fig17Series
	for i, sc := range schemes {
		cfg := sim.DefaultConfig()
		out = append(out, Fig17Series{
			Scheme: sc,
			Bursty: bursty,
			Series: res[i].Scheme.NVM().Series(),
			Hz:     cfg.ClockHz,
		})
	}
	return out, nil
}

// AblateSuperBlock quantifies §V-F's DRAM OID granularity trade-off: the
// side-band metadata footprint with per-line tags versus 4-line super
// blocks, on the B+Tree workload.
type SuperBlockResult struct {
	SideBandBytesLine  int64
	SideBandBytesSuper int64
	CyclesLine         uint64
	CyclesSuper        uint64
}

// AblateSuperBlock runs the comparison.
func AblateSuperBlock(scale Scale) (SuperBlockResult, error) {
	res, err := runCells(scale, []cellSpec{
		{scheme: "NVOverlay", wl: "btree", mod: func(c *sim.Config) { c.SuperBlock = 1 }},
		{scheme: "NVOverlay", wl: "btree", mod: func(c *sim.Config) { c.SuperBlock = 4 }},
	})
	if err != nil {
		return SuperBlockResult{}, err
	}
	line, super := res[0], res[1]
	return SuperBlockResult{
		SideBandBytesLine:  line.Scheme.(*core.NVOverlay).DRAM().SideBandBytes(),
		SideBandBytesSuper: super.Scheme.(*core.NVOverlay).DRAM().SideBandBytes(),
		CyclesLine:         line.Sum.Cycles,
		CyclesSuper:        super.Sum.Cycles,
	}, nil
}

// WalkerAblation compares NVOverlay cycles and mid-run recoverable-epoch
// progress with and without the tag walker (beyond Fig 15's decomposition):
// without walks, no min-ver reports flow and the recoverable epoch never
// advances until the final drain.
type WalkerAblation struct {
	CyclesOn, CyclesOff     uint64
	AdvancesOn, AdvancesOff int64 // mid-run rec-epoch advances
}

// AblateWalker runs the comparison on ART.
func AblateWalker(scale Scale) (WalkerAblation, error) {
	res, err := runCells(scale, []cellSpec{
		{scheme: "NVOverlay", wl: "art", mod: func(c *sim.Config) { c.TagWalker = true }},
		{scheme: "NVOverlay", wl: "art", mod: func(c *sim.Config) { c.TagWalker = false }},
	})
	if err != nil {
		return WalkerAblation{}, err
	}
	on, off := res[0], res[1]
	return WalkerAblation{
		CyclesOn:    on.Sum.Cycles,
		CyclesOff:   off.Sum.Cycles,
		AdvancesOn:  on.Scheme.Stats().Get("recepoch_advances"),
		AdvancesOff: off.Scheme.Stats().Get("recepoch_advances"),
	}, nil
}

// ScalePoint is one core-count measurement of the scalability sweep.
type ScalePoint struct {
	Cores      int
	Scheme     string
	NormCycles float64 // vs the ideal system at the same core count
}

// AblateScaling sweeps the core count (the paper's scalability motivation,
// §II-D): NVOverlay's distributed epochs and per-VD walkers should keep
// its overhead flat as the machine grows, while PiCL-L2 — the only PiCL
// variant even possible on a large non-inclusive machine — degrades.
// Cache capacities scale with the core count so per-core pressure is
// constant.
func AblateScaling(scale Scale) ([]ScalePoint, error) {
	coreCounts := []int{4, 8, 16, 32}
	schemes := []string{"PiCL-L2", "NVOverlay"}
	stride := 1 + len(schemes) // Ideal + the two schemes per core count
	cells := make([]cellSpec, 0, len(coreCounts)*stride)
	for _, cores := range coreCounts {
		mod := func(c *sim.Config) { growMachine(c, scale, cores) }
		cells = append(cells, cellSpec{scheme: "Ideal", wl: "rbtree", mod: mod})
		for _, sc := range schemes {
			cells = append(cells, cellSpec{scheme: sc, wl: "rbtree", mod: mod})
		}
	}
	res, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	var out []ScalePoint
	for ci, cores := range coreCounts {
		ideal := res[ci*stride]
		for j, sc := range schemes {
			r := res[ci*stride+1+j]
			out = append(out, ScalePoint{
				Cores:      cores,
				Scheme:     sc,
				NormCycles: float64(r.Sum.Cycles) / float64(ideal.Sum.Cycles),
			})
		}
	}
	return out, nil
}
