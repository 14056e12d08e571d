package diffcheck

import (
	"fmt"
	"slices"

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
	msg := fmt.Sprintf("diffcheck: DIVERGENCE scheme=%s kind=%s seed=%d at %s\n  %s\n  reproduce: go run ./cmd/nvcheck diff %s",
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

// withPlane returns a device with a RAM content plane attached before any
// write: recovery, replicas, time travel and power cuts all read content,
// and a faulted construction can drain writes (see core.NewOn).
func withPlane(cfg *sim.Config) *mem.NVM {
	nvm := mem.NewNVM(cfg)
	nvm.AttachPlane(mem.NewRAMPlane())
	return nvm
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
	nv := core.NewOn(&cfg, withPlane(&cfg))
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
	err := src.each(n, func(i int, op trace.Access) bool {
		if kind, err := stepNVOverlay(nv, clocks, g, &cfg, i, op); err != nil {
			dd = div(kind, i, "%v", err)
			return false
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
			data, fe, ok := nv.Group().TimeTravelRead(addr, e)
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

// stepNVOverlay issues trace step i to nv, advances the issuing thread's
// clock by the access latency plus trace.PipelineCost, and records a store
// in g under the epoch tag nv gave it. A non-nil error is a divergence of
// the named kind.
func stepNVOverlay(nv *core.NVOverlay, clocks *sim.Clocks, g *Golden, cfg *sim.Config, i int, op trace.Access) (kind string, err error) {
	lat := nv.Access(op.Tid, op.Addr, op.Write, op.Data)
	clocks.Advance(op.Tid, lat+trace.PipelineCost)
	if !op.Write {
		return "", nil
	}
	oid := nv.LastStoreOID()
	if oid == 0 {
		return "store-oid", fmt.Errorf("store to %#x was assigned no epoch tag", op.Addr)
	}
	if err := g.Store(i, cfg.LineAddr(op.Addr), oid, op.Data); err != nil {
		return "epoch-monotonicity", err
	}
	return "", nil
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
	last := mem.NewTable[uint64](0)
	crash := p.crashSteps()
	prevEpoch := s.Epoch()
	var dd *Divergence
	err := src.each(p.Steps, func(i int, op trace.Access) bool {
		lat := s.Access(op.Tid, op.Addr, op.Write, op.Data)
		clocks.Advance(op.Tid, lat+trace.PipelineCost)
		if op.Write {
			last.Put(cfg.LineAddr(op.Addr), op.Data)
		}
		if e := s.Epoch(); e != prevEpoch {
			if e < prevEpoch {
				dd = div("epoch-regression", i, "epoch fell from %d to %d", prevEpoch, e)
				return false
			}
			if d := checkBaselineBoundary(p, name, s, last, i); d != nil {
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
	for _, addr := range last.SortedKeys() {
		want, _ := last.Get(addr)
		if got := s.DRAM().Data(addr); got != want {
			return div("final-dram", -1, "line %#x = %d after drain, want %d", addr, got, want), nil
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
func checkBaselineBoundary(p Params, name string, s baselineScheme, last *mem.Table[uint64], step int) *Divergence {
	h := s.Hierarchy()
	walks := p.Walker || (name != "PiCL" && name != "PiCL-L2")
	dirty := make(map[uint64]bool)
	var d *Divergence
	h.Walk(cache.AllVDs, cache.LevelLLC, func(lv cache.Level, c *cache.Cache) {
		c.ForEach(func(ln *cache.Line) {
			if d != nil || !ln.Dirty {
				return
			}
			if !walks || (lv == cache.LevelLLC && name == "PiCL-L2") {
				dirty[ln.Tag] = true // legal: not covered by a boundary walk
				return
			}
			d = &Divergence{Params: p, Scheme: name, Kind: "boundary-dirty", Step: step,
				Detail: fmt.Sprintf("line %#x (epoch %d) still dirty in %s after the boundary flush",
					ln.Tag, ln.OID, c.Name())}
		})
	})
	if d != nil {
		return d
	}
	for _, addr := range last.SortedKeys() {
		if dirty[addr] {
			continue
		}
		want, _ := last.Get(addr)
		if got := s.DRAM().Data(addr); got != want {
			return &Divergence{Params: p, Scheme: name, Kind: "boundary-dram", Step: step,
				Detail: fmt.Sprintf("line %#x = %d in DRAM after boundary, want %d", addr, got, want)}
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
// between a recovered image and the golden expectation, so divergence
// reports have stable text.
func diffImages(got, want *mem.Table[uint64]) string {
	addrs := got.SortedKeys()
	want.ForEach(func(a, _ uint64) {
		if _, ok := got.Get(a); !ok {
			addrs = append(addrs, a)
		}
	})
	slices.Sort(addrs)
	var diffs []string
	for _, a := range addrs {
		g, gok := got.Get(a)
		w, wok := want.Get(a)
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
