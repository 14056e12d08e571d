package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/soak"
	"repro/internal/trace"
)

// The crash-consistency sweep: one grid of (layer, class, seed, cut) cells
// holding the paper's recovery claim at both persistence layers.
//
//   - An nvm cell replays a faulted trace prefix through the full stack,
//     cuts power on the modelled NVM under the class's fault injector, and
//     salvages the surviving image.
//   - A disk cell runs the soak writer over fault.FaultFS(MemFS) under the
//     class's disk-fault schedule, stops it dead at a mutating-syscall
//     ordinal, and cold-salvages the store directory twice: as the process
//     left it (page cache kept: what survives SIGKILL), then after
//     MemFS.Crash() (everything unsynced gone: what survives power loss).
//
// Every salvaged state must pass one verdict, salvage-or-refuse: a typed
// refusal with findings is accepted only while nothing is durable;
// otherwise the restored epoch is >= the durable epoch, exists in the
// golden model, and its image equals golden.

// Layers of the sweep grid.
const (
	LayerNVM  = "nvm"
	LayerDisk = "disk"
)

// Crash states a cell is salvaged in: nvm cells have only the power-loss
// state, disk cells both.
const (
	StatePowerLoss    = "power-loss"
	StateProcessDeath = "process-death"
)

// SweepParams configures one crash-consistency sweep.
type SweepParams struct {
	// Classes are layer-qualified fault classes: "nvm:torn", "disk:eio".
	// An empty class ("nvm:", "disk:") is the layer's fault-free regime.
	Classes []string
	// Seeds seed each regime's trace or writer and its fault schedule.
	Seeds []int64
	// Cuts is the crash-cut count per (class, seed) regime. nvm regimes add
	// a cut at the full trace length; disk regimes add a no-cut cell and
	// clamp Cuts to the run's mutating-syscall count.
	Cuts int
	// Trace, when its Steps are set, replaces FaultRegimeParams as the
	// shape of every nvm regime's trace; seed, class and cut count still
	// come from the sweep.
	Trace Params
}

// ParseClasses expands a comma-separated sweep class list. Each item is a
// layer-qualified class or a bare layer name standing for all its classes.
func ParseClasses(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		switch item {
		case LayerNVM:
			for _, c := range append(append([]string(nil), fault.Classes...), "all") {
				out = append(out, LayerNVM+":"+c)
			}
		case LayerDisk:
			for _, c := range fault.DiskClasses {
				out = append(out, LayerDisk+":"+c)
			}
		default:
			out = append(out, item)
		}
	}
	return out
}

// Validate rejects sweeps that cannot run.
func (p SweepParams) Validate() error {
	if len(p.Classes) == 0 || len(p.Seeds) == 0 || p.Cuts < 0 {
		return errors.New("diffcheck: a sweep needs >=1 class and seed and a non-negative cut count")
	}
	for _, lc := range p.Classes {
		layer, class, _ := strings.Cut(lc, ":")
		switch {
		case layer == LayerNVM && fault.ValidClass(class):
			if err := p.nvmParams(class, p.Seeds[0]).Validate(); err != nil {
				return err
			}
		case layer == LayerDisk && fault.ValidDiskClass(class):
		default:
			return fmt.Errorf("diffcheck: unknown sweep class %q (want nvm:<class> or disk:<class>)", lc)
		}
	}
	return nil
}

// nvmParams is the faulted trace an nvm regime replays.
func (p SweepParams) nvmParams(class string, seed int64) Params {
	t := p.Trace
	if t.Steps == 0 {
		t = FaultRegimeParams(class, seed)
	}
	t.Seed, t.Fault, t.CrashPoints = seed, class, p.Cuts
	return t
}

// Reproducer returns the nvcheck command that reruns one (class, seed)
// regime of the sweep: nvcheck sweep, or for a custom nvm Trace the one
// faulted trace through nvcheck diff.
func (p SweepParams) Reproducer(layer, class string, seed int64) string {
	if layer == LayerNVM && p.Trace.Steps > 0 {
		return "go run ./cmd/nvcheck diff " + p.nvmParams(class, seed).FlagString()
	}
	return fmt.Sprintf("go run ./cmd/nvcheck sweep -classes %s:%s -seed %d -seeds 1 -cuts %d",
		layer, class, seed, p.Cuts)
}

// Point is the outcome of salvaging one crash state of one sweep cell.
type Point struct {
	Layer string
	Class string
	Seed  int64
	// Cut is where the crash landed: the trace step of the power cut (nvm)
	// or the mutating-syscall ordinal (disk; 0: no cut, the run finished).
	Cut   int
	State string
	// DurableEpoch is the newest epoch acknowledged durable before the cut
	// (disk; 0 for nvm), the salvage floor. RestoredEpoch is what salvage
	// proved (0 on refusal).
	DurableEpoch  uint64
	RestoredEpoch uint64
	WalkedBack    bool // restored below the claimed epoch
	Refused       bool // typed refusal with findings
	Wounded       bool // disk: the plane degraded to read-only before the cut
	Faults        int  // faults injected in the cell
	Retried       int  // disk: short writes the plane's retry policy absorbed
	Lines         int  // lines in the restored image
	// Damage lists the salvage report's finding kinds, in report order.
	Damage []string
	Err    string // writer error or typed refusal ("" when clean)
}

// Tally counts the salvage outcomes of one crash state across a sweep.
type Tally struct {
	States     int
	Restored   int // restored the claimed epoch
	WalkedBack int // salvaged an older sealed epoch
	Refused    int // typed refusal while nothing was durable
}

// SweepResult aggregates a sweep in grid order.
type SweepResult struct {
	Points  []Point
	Cells   int
	Faults  int // faults injected across all cells
	Wounded int // disk cells whose plane degraded before the cut
	// PowerLoss and ProcessDeath tally each crash state on its own.
	PowerLoss, ProcessDeath Tally
	// Schedule concatenates every cell's canonical fault schedule under a
	// "# layer:class seed=S cut=C" header; byte-identical across replays
	// and jobs counts.
	Schedule string
}

// SweepDivergence is one salvaged state's contract violation.
type SweepDivergence struct {
	Cell   Point // the failing cell and state, as far as it got
	Kind   string
	Detail string
	// Report is the failing state's salvage report, when one exists;
	// nvcheck archives it.
	Report *recovery.SalvageReport
	// Reproducer is the one-line nvcheck command rerunning the regime.
	Reproducer string
}

func (d *SweepDivergence) Error() string {
	c := d.Cell
	msg := fmt.Sprintf("diffcheck: SWEEP DIVERGENCE %s:%s seed=%d cut=%d state=%s kind=%s\n  %s",
		c.Layer, c.Class, c.Seed, c.Cut, c.State, d.Kind, d.Detail)
	if d.Reproducer != "" {
		msg += "\n  reproduce: " + d.Reproducer
	}
	return msg
}

// sweepCell is one grid coordinate.
type sweepCell struct {
	layer, class string
	seed         int64
	cut          int
}

// cellOut is one cell's salvaged states and fault schedule, or its first
// contract violation.
type cellOut struct {
	pts   []Point
	sched string
	d     *SweepDivergence
}

// cells enumerates the grid class-major, then seed, then cut. Disk regimes
// lay their cuts over the mutating-syscall count of one fault-free control
// run per seed.
func (p SweepParams) cells() ([]sweepCell, error) {
	ops := make(map[int64]int)
	var out []sweepCell
	for _, lc := range p.Classes {
		layer, class, _ := strings.Cut(lc, ":")
		for _, seed := range p.Seeds {
			var cuts []int
			if layer == LayerNVM {
				cuts = faultCuts(p.nvmParams(class, seed))
			} else {
				n, ok := ops[seed]
				if !ok {
					var err error
					if n, err = controlOps(seed); err != nil {
						return nil, err
					}
					ops[seed] = n
				}
				cuts = append(diskCuts(p.Cuts, n), 0)
			}
			for _, cut := range cuts {
				out = append(out, sweepCell{layer, class, seed, cut})
			}
		}
	}
	return out, nil
}

// faultCuts returns an nvm regime's power cuts: every swept crash point
// plus the full trace length.
func faultCuts(p Params) []int {
	cuts := make([]int, 0, p.CrashPoints+1)
	for i := 1; i <= p.CrashPoints; i++ {
		cuts = append(cuts, i*p.Steps/(p.CrashPoints+1))
	}
	return append(cuts, p.Steps)
}

// diskCuts lays cuts crash cuts over a run of n mutating syscalls: spread
// evenly while cuts < n, every ordinal 1..n once cuts reaches n.
func diskCuts(cuts, n int) []int {
	if cuts >= n {
		cuts = n
	}
	out := make([]int, cuts)
	for j := range out {
		if cuts == n {
			out[j] = j + 1
		} else {
			out[j] = (j + 1) * n / (cuts + 1)
		}
	}
	return out
}

// controlOps runs the writer of seed fault-free and returns how many
// mutating syscalls a complete run performs: the disk cuts' axis.
func controlOps(seed int64) (int, error) {
	ffs := fault.NewFaultFS(fault.NewMemFS(), fault.DiskConfig{})
	if err := soak.WriteStore(ffs, soak.DefaultParams("store", seed), nil); err != nil {
		return 0, fmt.Errorf("diffcheck: fault-free control run failed: %w", err)
	}
	return ffs.Ops(), nil
}

// RunSweep runs the grid with its cells fanned over jobs workers; a
// non-nil bus narrates the nvm cells and serialises the grid so the stream
// stays in cell order. Cells share no state and merge in grid order, so the
// result (including the schedule and which divergence is reported first)
// is byte-identical for every jobs value. The error is the first
// *SweepDivergence, or ctx's error once it is done; the result holds every
// cell merged before it.
func RunSweep(ctx context.Context, p SweepParams, jobs int, bus *obs.Bus) (SweepResult, error) {
	var res SweepResult
	if err := p.Validate(); err != nil {
		return res, err
	}
	cells, err := p.cells()
	if err != nil {
		return res, err
	}
	if bus != nil {
		jobs = 1
	}
	var sched strings.Builder
	var ferr error
	parallel.ForEachOrdered(jobs, len(cells), func(i int) cellOut {
		c := cells[i]
		if c.layer == LayerNVM {
			pt, s, d := nvmCell(p.nvmParams(c.class, c.seed), c.cut, nil, bus)
			return cellOut{[]Point{pt}, s, d}
		}
		pts, s, d := DiskCell(c.class, c.seed, c.cut)
		return cellOut{pts, s, d}
	}, func(i int, out cellOut) bool {
		if ferr = ctx.Err(); ferr != nil {
			return false
		}
		c := cells[i]
		if out.d != nil {
			out.d.Reproducer = p.Reproducer(c.layer, c.class, c.seed)
			ferr = out.d
			return false
		}
		res.add(out)
		fmt.Fprintf(&sched, "# %s:%s seed=%d cut=%d\n%s\n", c.layer, c.class, c.seed, c.cut, out.sched)
		return true
	})
	res.Schedule = sched.String()
	return res, ferr
}

func (r *SweepResult) add(out cellOut) {
	r.Cells++
	r.Faults += out.pts[0].Faults
	if out.pts[0].Wounded {
		r.Wounded++
	}
	for _, pt := range out.pts {
		r.Points = append(r.Points, pt)
		t := &r.PowerLoss
		if pt.State == StateProcessDeath {
			t = &r.ProcessDeath
		}
		t.States++
		switch {
		case pt.Refused:
			t.Refused++
		case pt.WalkedBack:
			t.WalkedBack++
		default:
			t.Restored++
		}
	}
}

// judge is the salvage-or-refuse verdict every salvaged crash state must
// pass: pt.DurableEpoch is the floor, golden the model's image of an
// epoch. It records the outcome on pt and returns the violation, if any.
func judge(pt *Point, out *mem.Table[uint64], rep *recovery.SalvageReport, err error,
	golden func(epoch uint64) (*mem.Table[uint64], bool)) *SweepDivergence {
	div := func(kind, format string, args ...interface{}) *SweepDivergence {
		return &SweepDivergence{Cell: *pt, Kind: kind, Detail: fmt.Sprintf(format, args...), Report: rep}
	}
	if rep != nil {
		for _, dmg := range rep.Damage {
			pt.Damage = append(pt.Damage, dmg.Kind)
		}
	}
	if err != nil {
		switch {
		case !errors.Is(err, recovery.ErrTornEpoch) && !errors.Is(err, recovery.ErrChecksum) &&
			!errors.Is(err, recovery.ErrUnrecoverable):
			return div("untyped-refusal", "salvage failed with untyped error: %v", err)
		case rep == nil || !rep.NonEmpty() || !rep.Refused:
			return div("empty-salvage-report", "refusal without findings: %v", err)
		case pt.DurableEpoch > 0:
			return div("durable-epoch-lost", "salvage refused but epoch %d was durable: %v", pt.DurableEpoch, err)
		}
		pt.Refused = true
		pt.Err = err.Error()
		return nil
	}
	if rep == nil {
		return div("missing-salvage-report", "salvage succeeded without a report")
	}
	if rep.RestoredEpoch < pt.DurableEpoch {
		return div("durable-epoch-lost", "restored epoch %d below durable epoch %d", rep.RestoredEpoch, pt.DurableEpoch)
	}
	want, ok := golden(rep.RestoredEpoch)
	if !ok {
		return div("phantom-epoch", "restored epoch %d was never written", rep.RestoredEpoch)
	}
	if verr := recovery.Verify(out, want); verr != nil {
		return div("silent-corruption", "salvaged image claims epoch %d (walked_back=%v) but diverges from golden: %v\n  %s",
			rep.RestoredEpoch, rep.WalkedBack, verr, diffImages(out, want))
	}
	pt.RestoredEpoch, pt.WalkedBack, pt.Lines = rep.RestoredEpoch, rep.WalkedBack, rep.LinesRestored
	return nil
}

// nvmCell replays the first cut steps of p's faulted trace, cuts power
// under the fault injector, optionally mutates the surviving image further
// (the fuzz harness's hook), and salvages it. The schedule is the
// injector's canonical fault history.
func nvmCell(p Params, cut int, mutate func(*mem.Image), bus *obs.Bus) (Point, string, *SweepDivergence) {
	pt := Point{Layer: LayerNVM, Class: p.Fault, Seed: p.Seed, Cut: cut, State: StatePowerLoss}
	cfg := p.Config()
	cfg.Obs = bus
	nv := core.NewOn(&cfg, withPlane(&cfg))
	clocks := sim.NewClocks(cfg.Cores)
	nv.Bind(clocks)
	g := NewGolden()
	var d *SweepDivergence
	p.Each(cut, func(i int, op trace.Access) bool {
		if kind, err := stepNVOverlay(nv, clocks, g, &cfg, i, op); err != nil {
			d = &SweepDivergence{Cell: pt, Kind: kind, Detail: fmt.Sprintf("step %d: %v", i, err)}
			return false
		}
		return true
	})
	if d != nil {
		return pt, "", d
	}
	img := nv.PowerCut(clocks.Max())
	if mutate != nil {
		mutate(img)
	}
	sched := ""
	if inj := nv.Injector(); inj != nil {
		pt.Faults = inj.Total()
		sched = inj.Schedule()
	}
	out, rep, err := recovery.Salvage(img, bus)
	return pt, sched, judge(&pt, out, rep, err, func(e uint64) (*mem.Table[uint64], bool) { return g.ImageAt(e), true })
}

// DiskCell runs one disk cell: the soak writer of seed under class's fault
// schedule, stopped dead at the cut-th mutating syscall (0: never), then
// salvaged in the process-death state and, after MemFS.Crash(), in the
// power-loss state. The schedule is the cell's canonical fault history;
// replaying the cell yields it byte-for-byte.
func DiskCell(class string, seed int64, cut int) ([]Point, string, *SweepDivergence) {
	pt := Point{Layer: LayerDisk, Class: class, Seed: seed, Cut: cut}
	cfg, err := fault.DiskClassConfig(class, seed)
	if err != nil {
		return nil, "", &SweepDivergence{Cell: pt, Kind: "bad-class", Detail: err.Error()}
	}
	cfg.CrashAt = cut
	mfs := fault.NewMemFS()
	ffs := fault.NewFaultFS(mfs, cfg)
	sp := soak.DefaultParams("store", seed)
	var durable soak.Durable
	werr := soak.WriteStore(ffs, sp, durable.Hit)
	pt.DurableEpoch = durable.Epoch
	pt.Faults = len(ffs.Events())
	pt.Retried = int(ffs.Count(fault.DiskShortWrite))
	sched := ffs.Schedule()
	if werr != nil {
		// The only acceptable writer failures are the plane wounding itself
		// on a permanent fault, or an injected fault surfacing directly
		// (plane construction, the first segment create). Anything else is
		// a policy bug.
		pt.Wounded = errors.Is(werr, mem.ErrPlaneWounded)
		if !pt.Wounded && !fault.IsDiskFault(werr) {
			return nil, sched, &SweepDivergence{Cell: pt, Kind: "writer-error",
				Detail: fmt.Sprintf("writer failed outside the fault policy: %v", werr)}
		}
		pt.Err = werr.Error()
	}
	golden := soak.Golden(sp)
	lookup := func(e uint64) (*mem.Table[uint64], bool) {
		g, ok := golden[e]
		return g, ok
	}
	var pts []Point
	for _, state := range []string{StateProcessDeath, StatePowerLoss} {
		if state == StatePowerLoss {
			mfs.Crash()
		}
		spt := pt
		spt.State = state
		out, rep, serr := recovery.SalvageDir(mfs, sp.Dir)
		if d := judge(&spt, out, rep, serr, lookup); d != nil {
			return pts, sched, d
		}
		pts = append(pts, spt)
	}
	return pts, sched, nil
}

// FaultRegimeParams is the canonical compact trace of the nvm layer: big
// enough to seal multiple epochs per partition and keep bank queues busy,
// small enough that a 4-class x 8-cut x 4-seed grid runs inside the test
// budget.
func FaultRegimeParams(class string, seed int64) Params {
	return Params{
		Seed:        seed,
		Cores:       4,
		CoresPerVD:  2,
		Steps:       600,
		Lines:       48,
		SharePct:    30,
		WritePct:    60,
		EpochSize:   12,
		Pattern:     PatternUniform,
		Walker:      true,
		OMCs:        2,
		CrashPoints: 8,
		Fault:       class,
	}
}
