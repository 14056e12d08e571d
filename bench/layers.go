package main

import (
	"math"
	"time"

	"repro/internal/cst"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Layer accumulators of the traced run. Each decorated call is one span;
// spans nest (a plane Apply runs inside an omc call, which runs inside a
// scheme Access or Drain), and the innermost open span owns the time.
const (
	layerWorkload  = iota // trace.Workload.Step
	layerTracefile        // trace.Source.Next (TRC1 decode)
	layerDrain            // trace.Scheme.Drain
	layerOMC              // cst.Backend calls into omc.Group, plus Group.Seal
	layerPlane            // mem.DurablePlane Apply/SealEpoch
	layerScheme           // trace.Scheme.Access, one accumulator per scheme name
)

// schemeNames fixes the per-scheme accumulator order: Ideal, then the
// paper's Fig 11 schemes.
var schemeNames = []string{"Ideal", "SWLog", "SWShadow", "HWShadow", "PiCL", "PiCL-L2", "NVOverlay"}

var numLayers = layerScheme + len(schemeNames)

// schemeLayer returns the accumulator of a scheme's Access spans.
func schemeLayer(name string) int {
	for i, n := range schemeNames {
		if n == name {
			return layerScheme + i
		}
	}
	panic("bench: no accumulator for scheme " + name)
}

// accum sums one layer's spans. Individual per-access spans are not kept:
// millions of span records would distort the run they measure.
type accum struct {
	calls int64
	total time.Duration // sum of span durations
	child time.Duration // sum of the durations of direct child spans
	kids  int64         // direct child spans
	desc  int64         // spans opened inside this layer's spans, at any depth
}

type frame struct {
	layer int
	start time.Duration
	spans int64 // tracer.spans when the frame opened
}

// tracer times the layer boundaries of one traced pass.
type tracer struct {
	base     time.Time
	log      *spanLog // coarse spans; Drain records into it under runSpan
	runSpan  int
	acc      []accum
	stack    []frame
	spans    int64         // spans opened so far
	topDur   time.Duration // durations of spans opened with no parent
	topCalls int64
}

func newTracer(log *spanLog) *tracer {
	return &tracer{base: time.Now(), log: log, runSpan: -1, acc: make([]accum, numLayers)}
}

func (t *tracer) enter(layer int) {
	t.stack = append(t.stack, frame{layer: layer, start: time.Since(t.base), spans: t.spans})
	t.spans++
}

func (t *tracer) exit() {
	end := time.Since(t.base)
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := end - f.start
	a := &t.acc[f.layer]
	a.calls++
	a.total += d
	a.desc += t.spans - f.spans - 1
	if n == 0 {
		t.topDur += d
		t.topCalls++
		return
	}
	p := &t.acc[t.stack[n-1].layer]
	p.child += d
	p.kids++
}

// calibration is the cost of one empty span in ns: span is what it adds
// to the enclosing interval, inside the part its own duration covers.
type calibration struct {
	span, inside float64
}

// calibrate measures an empty span around an interface call, the shape of
// every decorator, taking the fastest of several rounds so a preempted
// round does not inflate the correction.
func calibrate() calibration {
	const n = 100_000
	best := calibration{span: math.Inf(1)}
	for round := 0; round < 7; round++ {
		t := newTracer(&spanLog{})
		var src trace.Source = tracedSource{src: nullSource{}, t: t}
		start := time.Now()
		for i := 0; i < n; i++ {
			src.Next()
		}
		span := float64(time.Since(start).Nanoseconds()) / n
		if span < best.span {
			best = calibration{span: span, inside: float64(t.acc[layerTracefile].total.Nanoseconds()) / n}
		}
	}
	return best
}

// nullSource is the calibration's empty layer.
type nullSource struct{}

func (nullSource) Next() (trace.Access, error) { return trace.Access{}, nil }

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// self returns a layer's calibrated self time in ns: its spans' durations
// minus their children's, minus the clock cost the spans and their
// children add.
func (t *tracer) self(layer int, c calibration) float64 {
	a := t.acc[layer]
	return ns(a.total) - float64(a.calls)*c.inside - ns(a.child) - float64(a.kids)*(c.span-c.inside)
}

// inclusive returns a layer's calibrated time in ns, children included.
func (t *tracer) inclusive(layer int, c calibration) float64 {
	a := t.acc[layer]
	return ns(a.total) - float64(a.calls)*c.inside - float64(a.desc)*c.span
}

// driverSelf is the part of wall no span covers, in ns: sim.Clocks, the
// golden final map and NVM ticks in the driver loop.
func (t *tracer) driverSelf(wall time.Duration, c calibration) float64 {
	return ns(wall) - ns(t.topDur) - float64(t.topCalls)*(c.span-c.inside)
}

// spanRecord is one coarse span (workload, set-up, cell, run, drain,
// probe sample) kept in full and written out when the run ends.
type spanRecord struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the parent record, -1 for none
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog records coarse spans relative to the start of the process.
type spanLog struct {
	base    time.Time
	records []spanRecord
}

func (l *spanLog) open(name string, parent int) int {
	l.records = append(l.records, spanRecord{Name: name, Parent: parent,
		Start: time.Since(l.base).Seconds()})
	return len(l.records) - 1
}

func (l *spanLog) close(i int) { l.records[i].End = time.Since(l.base).Seconds() }

// tracedWorkload times trace.Workload.Step.
type tracedWorkload struct {
	trace.Workload
	t *tracer
}

func (w tracedWorkload) Step(tid int, h *trace.Heap, rng *sim.RNG) bool {
	w.t.enter(layerWorkload)
	ok := w.Workload.Step(tid, h, rng)
	w.t.exit()
	return ok
}

// tracedSource times trace.Source.Next.
type tracedSource struct {
	src trace.Source
	t   *tracer
}

func (s tracedSource) Next() (trace.Access, error) {
	s.t.enter(layerTracefile)
	a, err := s.src.Next()
	s.t.exit()
	return a, err
}

// tracedScheme times trace.Scheme.Access and Drain.
type tracedScheme struct {
	trace.Scheme
	t     *tracer
	layer int
}

func traceScheme(s trace.Scheme, t *tracer) tracedScheme {
	return tracedScheme{Scheme: s, t: t, layer: schemeLayer(s.Name())}
}

func (s tracedScheme) Access(tid int, addr uint64, write bool, data uint64) uint64 {
	s.t.enter(s.layer)
	lat := s.Scheme.Access(tid, addr, write, data)
	s.t.exit()
	return lat
}

func (s tracedScheme) Drain(now uint64) {
	rec := s.t.log.open("drain", s.t.runSpan)
	s.t.enter(layerDrain)
	s.Scheme.Drain(now)
	s.t.exit()
	s.t.log.close(rec)
}

// tracedBackend times the frontend's calls into the OMC group.
type tracedBackend struct {
	b cst.Backend
	t *tracer
}

func (b tracedBackend) ReceiveVersion(v omc.Version, now uint64) uint64 {
	b.t.enter(layerOMC)
	st := b.b.ReceiveVersion(v, now)
	b.t.exit()
	return st
}

func (b tracedBackend) ReportMinVer(vd int, ver uint64, now uint64) {
	b.t.enter(layerOMC)
	b.b.ReportMinVer(vd, ver, now)
	b.t.exit()
}

func (b tracedBackend) LowerMinVer(vd int, ver uint64, now uint64) {
	b.t.enter(layerOMC)
	b.b.LowerMinVer(vd, ver, now)
	b.t.exit()
}

func (b tracedBackend) DumpContext(vd int, epoch, now uint64) uint64 {
	b.t.enter(layerOMC)
	st := b.b.DumpContext(vd, epoch, now)
	b.t.exit()
	return st
}

// tracedPlane times the NVM content plane's write path.
type tracedPlane struct {
	mem.DurablePlane
	t *tracer
}

func (p tracedPlane) Apply(addr uint64, words []uint64) {
	p.t.enter(layerPlane)
	p.DurablePlane.Apply(addr, words)
	p.t.exit()
}

func (p tracedPlane) SealEpoch(epoch uint64) {
	p.t.enter(layerPlane)
	p.DurablePlane.SealEpoch(epoch)
	p.t.exit()
}

// overlay is NVOverlay assembled from its public parts, the way core.New
// assembles it for the default configuration (no OMC buffer, no fault
// injection, no retention), so the traced run can put decorators between
// the CST frontend and the OMC group and under the NVM content plane.
// TestOverlayMatchesCore holds it equal to core.New.
type overlay struct {
	cfg    *sim.Config
	nvm    *mem.NVM
	group  *omc.Group
	fe     *cst.Frontend
	clocks *sim.Clocks
	t      *tracer
}

func newOverlay(cfg *sim.Config, t *tracer) *overlay {
	nvm := mem.NewNVM(cfg)
	nvm.AttachPlane(tracedPlane{DurablePlane: mem.NewRAMPlane(), t: t})
	omcs := 4
	if cfg.OMCs > 0 {
		omcs = cfg.OMCs
	}
	group := omc.NewGroup(cfg, nvm, omcs)
	fe := cst.New(cfg, mem.NewDRAM(cfg), tracedBackend{b: group, t: t})
	return &overlay{cfg: cfg, nvm: nvm, group: group, fe: fe, t: t}
}

func (n *overlay) Name() string { return "NVOverlay" }

func (n *overlay) Bind(clocks *sim.Clocks) { n.clocks = clocks }

func (n *overlay) Access(tid int, addr uint64, write bool, data uint64) uint64 {
	res := n.fe.Access(tid, addr, write, data, n.clocks.Now(tid))
	if res.VDStall > 0 {
		vd := n.cfg.VDOf(tid)
		n.clocks.StallGroup(vd*n.cfg.CoresPerVD, (vd+1)*n.cfg.CoresPerVD, res.VDStall)
	}
	return res.Lat
}

func (n *overlay) Drain(now uint64) {
	n.fe.Drain(now)
	n.t.enter(layerOMC)
	n.group.Seal(now)
	n.t.exit()
}

func (n *overlay) Stats() *stats.Set {
	s := stats.NewSet("nvoverlay")
	s.Merge(n.fe.Stats())
	s.Merge(n.group.Stats())
	s.Merge(n.nvm.Stats())
	return s
}

func (n *overlay) NVM() *mem.NVM { return n.nvm }

// layerTimes is the traced passes reduced to per-layer calibrated times,
// all in ns.
type layerTimes struct {
	wall     float64 // traced timed phase, all cells
	untraced float64 // the same cells untraced
	cal      calibration
	spans    int64
	self     map[string]float64 // layer name -> self time
	scheme   map[string]float64 // scheme name -> Access time, children included
	access   float64            // every scheme's Access time, children included
	drain    float64            // Drain time, children included
}

// reduce turns the accumulators into named layer times.
func reduce(t *tracer, wall, untraced time.Duration, c calibration) layerTimes {
	lt := layerTimes{wall: ns(wall), untraced: ns(untraced), cal: c, spans: t.spans,
		self: map[string]float64{}, scheme: map[string]float64{}}
	lt.self["driver"] = t.driverSelf(wall, c)
	lt.self["workload"] = t.self(layerWorkload, c)
	lt.self["tracefile"] = t.self(layerTracefile, c)
	lt.self["drain"] = t.self(layerDrain, c)
	lt.self["omc"] = t.self(layerOMC, c)
	lt.self["plane"] = t.self(layerPlane, c)
	for i, name := range schemeNames {
		l := layerScheme + i
		if name == "NVOverlay" {
			lt.self["cst"] += t.self(l, c)
		} else {
			lt.self["baseline"] += t.self(l, c)
		}
		lt.scheme[name] = t.inclusive(l, c)
		lt.access += lt.scheme[name]
	}
	lt.drain = t.inclusive(layerDrain, c)
	return lt
}

// selfSum is the calibrated self times plus the clock cost of every span;
// it equals the traced wall unless a calibrated self time went negative.
func (lt layerTimes) selfSum() float64 {
	sum := float64(lt.spans) * lt.cal.span
	for _, d := range lt.self {
		if d > 0 {
			sum += d
		}
	}
	return sum
}
