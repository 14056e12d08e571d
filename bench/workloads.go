package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// benchWorkload is one benchmark workload: a fixed list of cells, each a
// (scheme, access source) pair run from empty simulated caches. When traces
// is set, setup records those workloads' access streams with the Ideal
// scheme and every cell replays one of them.
type benchWorkload struct {
	name   string
	why    string
	scale  experiments.Scale
	mod    func(*sim.Config)
	traces []string
	cells  []cellSpec
}

// cellSpec names a cell: a scheme and the workload it runs live, or the
// recorded trace it replays.
type cellSpec struct {
	scheme string
	source string
}

func (c cellSpec) name() string { return c.scheme + "/" + c.source }

// testAccesses, when non-zero, overrides every workload's access bound so
// tests run the same cells at a fraction of the size.
var testAccesses uint64

// overlayWriteTraces are the paper workloads with the most NVM writes
// (31-61% stores); overlayReadTraces are the cache-resident, read-mostly
// ones (1.5-15% stores).
var (
	overlayWriteTraces = []string{"hashtable", "intruder", "yada", "ssca2"}
	overlayReadTraces  = []string{"labyrinth", "vacation", "genome", "kmeans", "bayes"}
)

// quickThird is the Quick machine at a third of Quick's run length, with
// the epoch cut to match so a run keeps Quick's epochs per access. At full
// Quick length, recording the traces three times over would make set-up
// longer than the timed phase.
var quickThird = experiments.Scale{Name: "quick/3", MaxAccesses: 400_000, EpochSize: 4_000,
	Machine: experiments.Quick.Machine}

func replayCells(schemes, traces []string) []cellSpec {
	var cells []cellSpec
	for _, sc := range schemes {
		for _, tr := range traces {
			cells = append(cells, cellSpec{sc, tr})
		}
	}
	return cells
}

// workloads returns the benchmark's workloads in report order.
func workloads() []benchWorkload {
	var grid []cellSpec
	for _, wl := range workload.Names() {
		for _, sc := range schemeNames {
			grid = append(grid, cellSpec{sc, wl})
		}
	}
	var zipf []cellSpec
	for _, wl := range experiments.Scale256Workloads {
		for _, sc := range []string{"Ideal", "PiCL-L2", "NVOverlay"} {
			zipf = append(zipf, cellSpec{sc, wl})
		}
	}
	return []benchWorkload{
		{
			name:  "paper-grid",
			why:   "the Fig 11 grid users regenerate most: every scheme and every generator, live",
			scale: experiments.Smoke,
			cells: grid,
		},
		{
			name:   "overlay-write",
			why:    "NVOverlay on the NVM-write-heaviest traces: cst, omc, the NVM model and the plane do the work",
			scale:  quickThird,
			traces: overlayWriteTraces,
			cells:  replayCells([]string{"NVOverlay"}, overlayWriteTraces),
		},
		{
			name:   "overlay-read",
			why:    "NVOverlay on read-mostly, cache-resident traces: the CST load path dominates, omc does little",
			scale:  quickThird,
			traces: overlayReadTraces,
			cells:  replayCells([]string{"NVOverlay"}, overlayReadTraces),
		},
		{
			name:   "baseline-write",
			why:    "the overlay-write traces without cst or omc: a CST or OMC gain must leave it unchanged",
			scale:  quickThird,
			traces: overlayWriteTraces,
			cells:  replayCells([]string{"Ideal", "PiCL-L2"}, overlayWriteTraces),
		},
		{
			name:  "scale64-zipf",
			why:   "64 cores in 32 VDs with 16 OMCs on zipfian hot keys: wide sharer sets, clock tree, min-ver ledger",
			scale: quickThird,
			mod:   scale64Machine,
			cells: zipf,
		},
	}
}

// scale64Machine is experiments.Scale256's machine at 64 cores and 2 cores
// per VD on the Quick caches: LLC, slices, NVM banks and OMCs grow with
// the core count. TestScale64MatchesScale256 holds the two equal.
func scale64Machine(c *sim.Config) {
	const cores = 64
	base := sim.DefaultConfig()
	experiments.Quick.Machine(&base)
	c.Cores = cores
	c.CoresPerVD = 2
	c.LLCSlices = cores / 2
	c.LLCSize = base.LLCSize / 16 * cores
	c.NVMBanks = base.NVMBanks / 16 * cores
	c.OMCs = cores / 4
}

func findWorkload(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}

func (w benchWorkload) replay() bool { return len(w.traces) > 0 }

func (w benchWorkload) accesses() uint64 {
	if testAccesses > 0 {
		return testAccesses
	}
	return w.scale.MaxAccesses
}

// config builds a cell's machine the way experiments.Run does.
func (w benchWorkload) config(seed int64) (sim.Config, error) {
	cfg := sim.DefaultConfig()
	cfg.EpochSize = w.scale.EpochSize
	cfg.Seed = seed
	if w.scale.Machine != nil {
		w.scale.Machine(&cfg)
	}
	if w.mod != nil {
		w.mod(&cfg)
	}
	return cfg, cfg.Validate()
}

func traceFile(name string) string { return name + ".trc" }

// recording is one trace recorded during setup, with the outputs of the
// Ideal run that recorded it.
type recording struct {
	out     outputs
	records uint64
	bytes   int64
}

// record runs a workload live under Ideal and streams its accesses into a
// TRC1 file on fsys.
func (w benchWorkload) record(fsys fault.FS, seed int64, name string) (recording, error) {
	cfg, err := w.config(seed)
	if err != nil {
		return recording{}, err
	}
	s, err := experiments.NewScheme("Ideal", &cfg)
	if err != nil {
		return recording{}, err
	}
	wl, err := workload.Get(name)
	if err != nil {
		return recording{}, err
	}
	tw, err := tracefile.Create(fsys, traceFile(name), tracefile.Shape{
		Cores: cfg.Cores, CoresPerVD: cfg.CoresPerVD, LineSize: cfg.LineSize, Seed: cfg.Seed})
	if err != nil {
		return recording{}, err
	}
	d := trace.NewDriver(&cfg, s, wl, w.accesses())
	d.SetSink(tw)
	sum := d.Run()
	if err := d.SinkErr(); err != nil {
		return recording{}, fmt.Errorf("record %s: %w", name, err)
	}
	if err := tw.Close(); err != nil {
		return recording{}, fmt.Errorf("record %s: %w", name, err)
	}
	return recording{out: outputsOf(sum, s), records: tw.Records(), bytes: tw.Bytes()}, nil
}

// setupRound is one full set-up of a workload: every trace recorded and
// every cell constructed.
type setupRound struct {
	record, build time.Duration
}

func (s setupRound) total() time.Duration { return s.record + s.build }

// setup performs a full set-up and returns the recorded traces.
func (w benchWorkload) setup(seed int64) (setupRound, *fault.MemFS, map[string]recording, error) {
	var round setupRound
	start := time.Now()
	fsys := fault.NewMemFS()
	recs := make(map[string]recording)
	for _, name := range w.traces {
		rec, err := w.record(fsys, seed, name)
		if err != nil {
			return round, nil, nil, err
		}
		recs[name] = rec
	}
	round.record = time.Since(start)
	start = time.Now()
	for _, c := range w.cells {
		if err := w.build(fsys, seed, c); err != nil {
			return round, nil, nil, fmt.Errorf("%s: %w", c.name(), err)
		}
	}
	round.build = time.Since(start)
	return round, fsys, recs, nil
}

// build does a cell's set-up (scheme construction, then Workload.Setup or
// opening the trace) exactly as a timed execution does, and discards it.
func (w benchWorkload) build(fsys fault.FS, seed int64, c cellSpec) error {
	cfg, err := w.config(seed)
	if err != nil {
		return err
	}
	s, err := experiments.NewScheme(c.scheme, &cfg)
	if err != nil {
		return err
	}
	if w.replay() {
		r, err := tracefile.OpenReader(fsys, traceFile(c.source))
		if err != nil {
			return err
		}
		trace.NewDriver(&cfg, s, nil, w.accesses())
		return r.Close()
	}
	wl, err := workload.Get(c.source)
	if err != nil {
		return err
	}
	trace.NewDriver(&cfg, s, wl, w.accesses())
	h := trace.NewHeap(&cfg)
	h.SetRecording(false)
	wl.Setup(h, sim.NewRNG(cfg.Seed))
	return nil
}

// meter reads the process counters the timed phase is charged with.
type meter struct {
	samples  []metrics.Sample
	memStats runtime.MemStats
}

func newMeter() *meter {
	return &meter{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}}
}

// reading is a snapshot of the process counters.
type reading struct {
	alloc          uint64
	gcCPU, usedCPU float64
}

func (m *meter) read() reading {
	runtime.ReadMemStats(&m.memStats)
	metrics.Read(m.samples)
	return reading{
		alloc:   m.memStats.TotalAlloc,
		gcCPU:   m.samples[0].Value.Float64(),
		usedCPU: m.samples[1].Value.Float64() - m.samples[2].Value.Float64(),
	}
}

func (r reading) sub(o reading) reading {
	return reading{alloc: r.alloc - o.alloc, gcCPU: r.gcCPU - o.gcCPU, usedCPU: r.usedCPU - o.usedCPU}
}

// cellResult is one timed execution of a cell.
type cellResult struct {
	spec   cellSpec
	traced bool
	out    outputs
	counts tracedCounts
	timed  time.Duration // driver run plus drain
	use    reading       // counters charged to the timed phase
	err    error
}

// setupHook marks the end of Workload.Setup, which trace.Driver.Run calls
// before the first access.
type setupHook struct {
	trace.Workload
	done func()
}

func (w setupHook) Setup(h *trace.Heap, rng *sim.RNG) {
	w.Workload.Setup(h, rng)
	w.done()
}

// runner executes a workload's cells for one run of the benchmark.
type runner struct {
	w     benchWorkload
	seed  int64
	fsys  fault.FS
	m     *meter
	log   *spanLog
	probe *hostProbe
	tr    *tracer // nil until the first traced pass
}

func newRunner(w benchWorkload, seed int64, fsys fault.FS, log *spanLog) (*runner, error) {
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	return &runner{w: w, seed: seed, fsys: fsys, m: newMeter(), log: log, probe: probe}, nil
}

// sampleProbe runs the host probe, recording it as a span.
func (r *runner) sampleProbe(parent int) {
	span := r.log.open("probe", parent)
	r.probe.sample()
	r.log.close(span)
}

// exec runs one cell from empty caches: set-up, then the timed phase.
func (r *runner) exec(c cellSpec, traced bool, parent int) cellResult {
	runtime.GC() // every cell starts from the same heap state
	if r.probe.due() {
		r.sampleProbe(parent)
	}
	res := cellResult{spec: c, traced: traced}
	label := "cell " + c.name()
	if traced {
		label += " traced"
	}
	cellSpan := r.log.open(label, parent)
	defer r.log.close(cellSpan)
	setupSpan := r.log.open("setup", cellSpan)
	runSpan := -1
	var timedStart time.Time
	var before reading
	begin := func() {
		r.log.close(setupSpan)
		runSpan = r.log.open("run", cellSpan)
		if traced {
			r.tr.runSpan = runSpan
		}
		before = r.m.read()
		timedStart = time.Now()
	}
	var applies, omcCalls int64
	if traced {
		applies, omcCalls = r.tr.acc[layerPlane].calls, r.tr.acc[layerOMC].calls
	}

	cfg, err := r.w.config(r.seed)
	if err != nil {
		res.err = err
		return res
	}
	var s trace.Scheme
	if traced && c.scheme == "NVOverlay" {
		s = newOverlay(&cfg, r.tr)
	} else if s, err = experiments.NewScheme(c.scheme, &cfg); err != nil {
		res.err = err
		return res
	}
	if traced {
		s = traceScheme(s, r.tr)
	}
	var sum trace.Summary
	if r.w.replay() {
		rd, err := tracefile.OpenReader(r.fsys, traceFile(c.source))
		if err != nil {
			res.err = err
			return res
		}
		var src trace.Source = rd
		if traced {
			src = tracedSource{src: rd, t: r.tr}
		}
		d := trace.NewDriver(&cfg, s, nil, r.w.accesses())
		begin()
		sum, err = d.RunReplay(src)
		res.timed = time.Since(timedStart)
		if cerr := rd.Close(); err == nil {
			err = cerr
		}
		res.err = err
	} else {
		wl, err := workload.Get(c.source)
		if err != nil {
			res.err = err
			return res
		}
		var w trace.Workload = setupHook{Workload: wl, done: begin}
		if traced {
			w = tracedWorkload{Workload: w, t: r.tr}
		}
		sum = trace.NewDriver(&cfg, s, w, r.w.accesses()).Run()
		res.timed = time.Since(timedStart)
	}
	res.use = r.m.read().sub(before)
	r.log.close(runSpan)
	res.out = outputsOf(sum, s)
	if traced {
		res.counts = tracedCounts{
			PlaneApplies: r.tr.acc[layerPlane].calls - applies,
			OMCCalls:     r.tr.acc[layerOMC].calls - omcCalls,
		}
	}
	return res
}

// pass runs every cell once and returns the results and the timed total.
func (r *runner) pass(traced bool, parent int) ([]cellResult, time.Duration) {
	if traced && r.tr == nil {
		r.tr = newTracer(r.log)
	}
	res := make([]cellResult, 0, len(r.w.cells))
	var timed time.Duration
	for _, c := range r.w.cells {
		cr := r.exec(c, traced, parent)
		timed += cr.timed
		res = append(res, cr)
	}
	return res, timed
}
