package diffcheck

import (
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pipelineCost mirrors the trace driver's per-access non-memory work.
const pipelineCost = 2

// Result summarises one divergence-free differential run; the test suite
// asserts on its counters to prove each trace actually exercised the
// machinery (epochs closed, crash points probed, wraps crossed).
type Result struct {
	Params           Params
	MaxEpoch         uint64 // max per-VD epoch reached by the NVOverlay frontend
	RecEpoch         uint64 // final recoverable epoch (after seal)
	BoundaryVerifies int    // recovery verifications at rec-epoch advances
	CrashVerifies    int    // recovery verifications at swept crash points
	WrapFlushes      int    // group-transition flushes (wrap regimes)
	Lines            int    // distinct lines written
	Baselines        []string
}

// Divergence is the first observed disagreement between a scheme and the
// golden model. Error() prints a deterministic reproducer: the seed and
// step index replay the failure bit-identically.
type Divergence struct {
	Params   Params
	Scheme   string
	Kind     string
	Step     int // step index at detection; -1 = end of run
	MinSteps int // shortest failing prefix found by Minimize (0 = full trace)
	Detail   string
}

// Error implements error with the full reproducer.
func (d *Divergence) Error() string {
	step := fmt.Sprintf("step %d", d.Step)
	if d.Step < 0 {
		step = "end of run"
	}
	msg := fmt.Sprintf("diffcheck: DIVERGENCE scheme=%s kind=%s seed=%d at %s\n  %s\n  reproduce: go run ./cmd/nvcheck %s",
		d.Scheme, d.Kind, d.Params.Seed, step, d.Detail, d.Params.FlagString())
	if d.MinSteps > 0 {
		msg += fmt.Sprintf("\n  minimized: first %d steps of the trace suffice (append -steps %d)",
			d.MinSteps, d.MinSteps)
	}
	return msg
}

// Run replays one trace through NVOverlay and the baseline rotation,
// cross-checking every scheme against the golden model. It returns the
// first divergence (with a minimized reproducer when possible) or nil. A
// non-nil bus narrates the whole replay: the NVOverlay run and every
// baseline in rotation order, so the stream is deterministic for a given
// Params.
func Run(p Params, bus *obs.Bus) (Result, *Divergence) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	res, d, err := runSource(p, genSource{p}, bus)
	if err != nil {
		panic(err) // generated sources cannot fail
	}
	return res, d
}

// runSource replays one trace — generated or file-backed — through
// NVOverlay and the baseline rotation, cross-checking every scheme against
// the golden model. The error return carries source failures (trace-file
// damage, short files); divergences stay *Divergence.
func runSource(p Params, src stepSource, bus *obs.Bus) (Result, *Divergence, error) {
	res := Result{Params: p}
	d, err := replayNVOverlay(p, src, &res, p.Steps, true, bus)
	if err != nil {
		return res, nil, err
	}
	if d != nil {
		d.MinSteps = Minimize(p)
		return res, d, nil
	}
	for _, name := range baselineRotation(p) {
		d, err := replayBaseline(p, src, name, &res, bus)
		if err != nil {
			return res, nil, err
		}
		if d != nil {
			return res, d, nil
		}
		res.Baselines = append(res.Baselines, name)
	}
	return res, nil, nil
}

// baselineRotation picks the baseline schemes cross-checked alongside
// NVOverlay: PiCL and SW logging always, plus one rotating third so the
// whole zoo is covered across a seed sweep without tripling runtime.
func baselineRotation(p Params) []string {
	third := []string{"PiCL-L2", "SWShadow", "HWShadow"}
	return []string{"PiCL", "SWLog", third[uint64(p.Seed)%3]}
}

// replayNVOverlay drives the first n trace steps through the full stack,
// verifying the recovered image at every recoverable-epoch advance and at
// each crash probe. With finish set it also drains, seals, and verifies
// the final image, the replica path, and time-travel reads; without it the
// run ends in a crash probe at step n (Minimize uses that mode). The error
// return carries step-source failures (trace-file damage, short files).
func replayNVOverlay(p Params, src stepSource, res *Result, n int, finish bool, bus *obs.Bus) (*Divergence, error) {
	cfg := p.Config()
	cfg.Obs = bus
	nv := core.New(&cfg, core.WithRetention(), core.WithOMCs(p.OMCs))
	clocks := sim.NewClocks(cfg.Cores)
	nv.Bind(clocks)
	g := NewGolden()
	div := func(kind string, step int, format string, args ...interface{}) *Divergence {
		return &Divergence{Params: p, Scheme: "NVOverlay", Kind: kind, Step: step,
			Detail: fmt.Sprintf(format, args...)}
	}
	crash := p.crashSteps()
	lastRec := nv.Group().RecEpoch()
	var dd *Divergence
	err := src.each(n, func(i int, op Step) bool {
		lat := nv.Access(op.Tid, op.Addr, op.Write, op.Data)
		clocks.Advance(op.Tid, lat+pipelineCost)
		if op.Write {
			oid := nv.LastStoreOID()
			if oid == 0 {
				dd = div("store-oid", i, "store to %#x was assigned no epoch tag", op.Addr)
				return false
			}
			if err := g.Store(i, cfg.LineAddr(op.Addr), oid, op.Data); err != nil {
				dd = div("epoch-monotonicity", i, "%v", err)
				return false
			}
		}
		if rec := nv.Group().RecEpoch(); rec != lastRec {
			if rec < lastRec {
				dd = div("rec-epoch-regression", i, "recoverable epoch fell from %d to %d", lastRec, rec)
				return false
			}
			if d := verifyRecovered(p, nv, g, rec, i, "boundary-image"); d != nil {
				dd = d
				return false
			}
			res.BoundaryVerifies++
			lastRec = rec
		}
		if crash[i] {
			if err := nv.Frontend().CheckInvariants(); err != nil {
				dd = div("cst-invariant", i, "%v", err)
				return false
			}
			if d := verifyRecovered(p, nv, g, nv.Group().RecEpoch(), i, "crash-image"); d != nil {
				dd = d
				return false
			}
			res.CrashVerifies++
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if dd != nil {
		return dd, nil
	}
	for vd := 0; vd < cfg.VDs(); vd++ {
		if e := nv.Frontend().CurEpoch(vd); e > res.MaxEpoch {
			res.MaxEpoch = e
		}
	}
	res.WrapFlushes = nv.Frontend().WrapFlushes()
	res.Lines = g.Lines()
	if err := nv.Frontend().CheckInvariants(); err != nil {
		return div("cst-invariant", n-1, "%v", err), nil
	}
	if !finish {
		// Crash at step n: whatever is recoverable now must be consistent.
		return verifyRecovered(p, nv, g, nv.Group().RecEpoch(), n-1, "crash-image"), nil
	}
	nv.Drain(clocks.Max())
	res.RecEpoch = nv.Group().RecEpoch()
	img, _ := recovery.Recover(nv.Group())
	want := g.Final()
	if err := recovery.Verify(img, want); err != nil {
		return div("final-image", -1, "%v\n  %s", err, diffImages(img, want)), nil
	}
	repl := recovery.NewReplica()
	recovery.Replicate(nv.Group(), repl)
	if err := recovery.Verify(repl.Image(), want); err != nil {
		return div("replica-image", -1, "%v\n  %s", err, diffImages(repl.Image(), want)), nil
	}
	// Time-travel spot checks against the golden history (full retention
	// makes every epoch's value exactly recoverable).
	addrs := g.Addrs()
	if len(addrs) > 0 && res.MaxEpoch > 0 {
		rng := sim.NewRNG(p.Seed ^ 0x74726176) // independent probe stream
		for k := 0; k < 32; k++ {
			addr := addrs[rng.Intn(len(addrs))]
			e := 1 + rng.Uint64n(res.MaxEpoch)
			data, fe, ok := recovery.TimeTravel(nv.Group(), addr, e)
			wdata, wfe, wok := g.VersionAt(addr, e)
			if ok != wok || (ok && (data != wdata || fe != wfe)) {
				return div("time-travel", -1,
					"addr %#x at epoch %d: got (data=%d, epoch=%d, ok=%v), want (data=%d, epoch=%d, ok=%v)",
					addr, e, data, fe, ok, wdata, wfe, wok), nil
			}
		}
	}
	return nil, nil
}

// verifyRecovered cross-checks the recovered image against the golden
// image of the recoverable epoch. recovery.Recover is read-only with
// respect to correctness state, so mid-run probes do not perturb the run.
func verifyRecovered(p Params, nv *core.NVOverlay, g *Golden, rec uint64, step int, kind string) *Divergence {
	img, _ := recovery.Recover(nv.Group())
	want := g.ImageAt(rec)
	if err := recovery.Verify(img, want); err != nil {
		return &Divergence{Params: p, Scheme: "NVOverlay", Kind: kind, Step: step,
			Detail: fmt.Sprintf("rec-epoch %d: %v\n  %s", rec, err, diffImages(img, want))}
	}
	return nil
}

// baselineScheme is the slice of the baseline API the harness relies on.
type baselineScheme interface {
	trace.Scheme
	Epoch() uint64
	Hierarchy() *coherence.Hierarchy
	DRAM() *mem.DRAM
}

func newBaseline(name string, cfg *sim.Config) baselineScheme {
	switch name {
	case "PiCL":
		return baseline.NewPiCL(cfg)
	case "PiCL-L2":
		return baseline.NewPiCLL2(cfg)
	case "SWLog":
		return baseline.NewSWLog(cfg)
	case "SWShadow":
		return baseline.NewSWShadow(cfg)
	case "HWShadow":
		return baseline.NewHWShadow(cfg)
	}
	panic("diffcheck: unknown baseline " + name)
}

// replayBaseline drives the trace through one baseline scheme and checks
// its persistence contract: at every epoch boundary the closing epoch's
// dirty lines must have been persisted and the DRAM working copy must
// match the last store of every line with no dirty copy left; after drain
// the DRAM image must equal the golden final image exactly.
func replayBaseline(p Params, src stepSource, name string, res *Result, bus *obs.Bus) (*Divergence, error) {
	cfg := p.Config()
	cfg.Obs = bus
	s := newBaseline(name, &cfg)
	clocks := sim.NewClocks(cfg.Cores)
	s.Bind(clocks)
	div := func(kind string, step int, format string, args ...interface{}) *Divergence {
		return &Divergence{Params: p, Scheme: name, Kind: kind, Step: step,
			Detail: fmt.Sprintf(format, args...)}
	}
	last := make(map[uint64]uint64)
	crash := p.crashSteps()
	prevEpoch := s.Epoch()
	var dd *Divergence
	err := src.each(p.Steps, func(i int, op Step) bool {
		lat := s.Access(op.Tid, op.Addr, op.Write, op.Data)
		clocks.Advance(op.Tid, lat+pipelineCost)
		if op.Write {
			last[cfg.LineAddr(op.Addr)] = op.Data
		}
		if e := s.Epoch(); e != prevEpoch {
			if e < prevEpoch {
				dd = div("epoch-regression", i, "epoch fell from %d to %d", prevEpoch, e)
				return false
			}
			if d := checkBaselineBoundary(p, name, s, &cfg, last, i); d != nil {
				dd = d
				return false
			}
			prevEpoch = e
		}
		if crash[i] {
			if err := s.Hierarchy().CheckInvariants(); err != nil {
				dd = div("hierarchy-invariant", i, "%v", err)
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if dd != nil {
		return dd, nil
	}
	s.Drain(clocks.Max())
	for _, addr := range sortedAddrs(last) {
		if got := s.DRAM().Data(addr); got != last[addr] {
			return div("final-dram", -1, "line %#x = %d after drain, want %d", addr, got, last[addr]), nil
		}
	}
	return nil, nil
}

// checkBaselineBoundary asserts the scheme-specific boundary contract.
// PiCL, SWLog, SWShadow and HWShadow checkpoint every dirty line at the
// boundary (the tag walker / synchronous flush covers all levels), so no
// dirty line may survive. PiCL-L2 tracks epochs at the L2 only: its walker
// cleans L1+L2 but the LLC may legitimately keep dirty lines, which are
// then excluded from the DRAM comparison. When the trace disables the tag
// walker (the ablation regime), the PiCL variants skip their walk entirely
// and any dirty line is legal — only the DRAM contract for clean lines
// remains checkable.
func checkBaselineBoundary(p Params, name string, s baselineScheme, cfg *sim.Config, last map[uint64]uint64, step int) *Divergence {
	h := s.Hierarchy()
	walks := p.Walker || (name != "PiCL" && name != "PiCL-L2")
	dirty := make(map[uint64]bool)
	scanDirty := func(c *cache.Cache, level string) *Divergence {
		var d *Divergence
		c.ForEach(func(ln *cache.Line) {
			if d == nil && ln.Dirty {
				if !walks || (level == "llc" && name == "PiCL-L2") {
					dirty[ln.Tag] = true // legal: not covered by a boundary walk
					return
				}
				d = &Divergence{Params: p, Scheme: name, Kind: "boundary-dirty", Step: step,
					Detail: fmt.Sprintf("line %#x (epoch %d) still dirty in %s after the boundary flush",
						ln.Tag, ln.OID, level)}
			}
		})
		return d
	}
	for tid := 0; tid < cfg.Cores; tid++ {
		if d := scanDirty(h.L1(tid), fmt.Sprintf("l1.%d", tid)); d != nil {
			return d
		}
	}
	for vd := 0; vd < cfg.VDs(); vd++ {
		if d := scanDirty(h.L2(vd), fmt.Sprintf("l2.%d", vd)); d != nil {
			return d
		}
	}
	for i := 0; i < h.Slices(); i++ {
		if d := scanDirty(h.LLCSlice(i), "llc"); d != nil {
			return d
		}
	}
	for _, addr := range sortedAddrs(last) {
		if dirty[addr] {
			continue
		}
		if got := s.DRAM().Data(addr); got != last[addr] {
			return &Divergence{Params: p, Scheme: name, Kind: "boundary-dram", Step: step,
				Detail: fmt.Sprintf("line %#x = %d in DRAM after boundary, want %d", addr, got, last[addr])}
		}
	}
	return nil
}

// Minimize bisects the failing trace to the shortest prefix that still
// diverges when the run is cut there and crash-verified, giving the
// reproducer a tight step count. Returns 0 when only the full run (drain,
// replica or time-travel checks) exposes the failure.
func Minimize(p Params) int {
	if runPrefix(p, p.Steps) == nil {
		return 0
	}
	lo, hi := 1, p.Steps
	for lo < hi {
		mid := (lo + hi) / 2
		if runPrefix(p, mid) != nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi
}

// runPrefix replays the first n generated steps and crash-verifies at the
// cut. Minimize always bisects against the generator: a recorded trace
// decodes to the identical stream, so the minimized reproducer holds for
// file-backed runs too.
func runPrefix(p Params, n int) *Divergence {
	var scratch Result
	d, err := replayNVOverlay(p, genSource{p}, &scratch, n, false, nil)
	if err != nil {
		panic(err) // generated sources cannot fail
	}
	return d
}

// diffImages renders a deterministic, sorted sample of the differences
// between a recovered image and the golden expectation. recovery.Verify
// reports the first mismatch it hits in map order, which varies run to
// run; divergence reports need stable text.
func diffImages(got, want map[uint64]uint64) string {
	addrs := make(map[uint64]bool, len(got)+len(want))
	//nvlint:allow maprange building an address set; sortedAddrs2 orders it before rendering
	for a := range got {
		addrs[a] = true
	}
	//nvlint:allow maprange building an address set; sortedAddrs2 orders it before rendering
	for a := range want {
		addrs[a] = true
	}
	var diffs []string
	for _, a := range sortedAddrs2(addrs) {
		g, gok := got[a]
		w, wok := want[a]
		switch {
		case !gok:
			diffs = append(diffs, fmt.Sprintf("%#x: missing (want %d)", a, w))
		case !wok:
			diffs = append(diffs, fmt.Sprintf("%#x: spurious %d", a, g))
		case g != w:
			diffs = append(diffs, fmt.Sprintf("%#x: got %d want %d", a, g, w))
		}
		if len(diffs) == 8 {
			diffs = append(diffs, "...")
			break
		}
	}
	if len(diffs) == 0 {
		return "images identical"
	}
	return fmt.Sprintf("first diffs (sorted): %v", diffs)
}

func sortedAddrs(m map[uint64]uint64) []uint64 {
	out := make([]uint64, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedAddrs2(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
