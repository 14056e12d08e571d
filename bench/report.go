package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// report reduces a run to its metrics.
type report struct {
	w      benchWorkload
	opts   options
	rounds []setupRound
	cells  []cellResult
	recs   map[string]recording
	layers layerTimes
}

// selected returns the cell executions of one kind, traced or not.
func (rp *report) selected(traced bool) []cellResult {
	var out []cellResult
	for _, c := range rp.cells {
		if c.traced == traced {
			out = append(out, c)
		}
	}
	return out
}

// medianRound is the setup round of median total time.
func (rp *report) medianRound() setupRound {
	rs := append([]setupRound(nil), rp.rounds...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].total() < rs[j].total() })
	return rs[len(rs)/2]
}

// endToEnd returns the untraced run's metrics, with timed ones scaled to
// the reference host, and the same metrics as measured in wall time.
func (rp *report) endToEnd(probe *hostProbe) (scaled, raw map[string]metric, err error) {
	var accesses, alloc uint64
	var timed time.Duration
	var cellSecs []float64
	for _, c := range rp.selected(false) {
		accesses += c.out.Accesses
		alloc += c.use.alloc
		timed += c.timed
		cellSecs = append(cellSecs, c.timed.Seconds())
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, nil, err
	}
	k := probe.scale()
	rate := div(float64(accesses), timed.Seconds())
	cell := median(cellSecs)
	setup := rp.medianRound().total().Seconds()
	scaled = map[string]metric{
		"accesses_per_s":     {rate / k, "1/s"},
		"cell_s_p50":         {cell * k, "s"},
		"setup_s":            {setup * k, "s"},
		"alloc_b_per_access": {div(float64(alloc), float64(accesses)), "B"},
		"peak_rss_mb":        {rss, "MB"},
	}
	raw = map[string]metric{
		"accesses_per_s":     {rate, "1/s"},
		"cell_s_p50":         {cell, "s"},
		"setup_s":            {setup, "s"},
		"host.probe_ms":      {float64(probe.median().Nanoseconds()) / 1e6, "ms"},
		"host.probe_samples": {float64(len(probe.times)), "count"},
		"host.scale":         {k, "ratio"},
	}
	return scaled, raw, nil
}

// div is a/b, or 0 when b is 0, so a run whose cells all failed still
// reports (and the JSON encoder never meets a NaN).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfShares lists the layers whose calibrated self times, with the clock
// cost of the spans, add up to the traced wall time.
var selfShares = []string{"workload", "tracefile", "driver", "baseline", "cst", "omc", "plane", "drain"}

// perLayer returns the traced run's metrics. Times that every workload
// has are per access; layers a workload can bypass are shares of the
// traced wall time, so a bypassed layer reads 0%.
func (rp *report) perLayer() map[string]metric {
	lt := rp.layers
	var sum outputs
	var counts tracedCounts
	var nvmBytes int64
	for _, c := range rp.selected(true) {
		o := c.out
		sum.Cycles += o.Cycles
		sum.Accesses += o.Accesses
		sum.Stores += o.Stores
		nvmBytes += o.nvmBytes()
		sum.NVMWrites += o.NVMWrites
		sum.StallCycles += o.StallCycles
		sum.L1Hits += o.L1Hits
		sum.LLCHits += o.LLCHits
		sum.LLCMisses += o.LLCMisses
		sum.Invalidations += o.Invalidations
		sum.C2C += o.C2C
		sum.Versions += o.Versions
		sum.EpochAdvances += o.EpochAdvances
		sum.WalkEvictions += o.WalkEvictions
		sum.Merged += o.Merged
		sum.Pages += o.Pages
		counts.PlaneApplies += c.counts.PlaneApplies
		counts.OMCCalls += c.counts.OMCCalls
	}
	acc := float64(sum.Accesses)
	perAcc := func(ns float64) float64 { return div(ns, acc) }
	share := func(ns float64) float64 { return div(100*ns, lt.wall) }
	perK := func(n int64) float64 { return div(1000*float64(n), acc) }
	ratio := func(a, b int64) float64 { return div(float64(a), float64(b)) }
	var gc, used float64
	for _, c := range rp.selected(false) {
		gc += c.use.gcCPU
		used += c.use.usedCPU
	}
	var traceBytes int64
	var traceRecords uint64
	for _, rec := range rp.recs {
		traceBytes += rec.bytes
		traceRecords += rec.records
	}
	round := rp.medianRound()
	cells := float64(len(rp.selected(true)))

	m := map[string]metric{
		"driver.ns_per_access": {perAcc(lt.self["driver"]), "ns"},
		"source.ns_per_access": {perAcc(lt.self["workload"] + lt.self["tracefile"]), "ns"},
		"scheme.ns_per_access": {perAcc(lt.access), "ns"},
		"drain.ms_per_cell":    {div(lt.drain/1e6, cells), "ms"},
		"setup.build_s":        {round.build.Seconds(), "s"},
		"setup.record_pct":     {div(100*round.record.Seconds(), round.total().Seconds()), "%"},
		"trace.span_ns":        {lt.cal.span, "ns"},
		"trace.span_pct":       {share(float64(lt.spans) * lt.cal.span), "%"},
		"trace.overhead_pct":   {100 * (div(lt.wall, lt.untraced) - 1), "%"},
		"gc.cpu_frac":          {div(gc, used), "frac"},

		"sim.cycles_per_access":       {perAcc(float64(sum.Cycles)), "cycles"},
		"driver.stores_per_kacc":      {perK(int64(sum.Stores)), "1/kacc"},
		"cache.l1_hit_ratio":          {ratio(sum.L1Hits, int64(sum.Accesses)), "ratio"},
		"cache.llc_miss_ratio":        {ratio(sum.LLCMisses, sum.LLCHits+sum.LLCMisses), "ratio"},
		"coherence.inval_per_kacc":    {perK(sum.Invalidations), "1/kacc"},
		"cst.c2c_per_kacc":            {perK(sum.C2C), "1/kacc"},
		"cst.versions_per_kacc":       {perK(sum.Versions), "1/kacc"},
		"cst.epoch_advances":          {float64(sum.EpochAdvances), "count"},
		"cst.walk_share":              {ratio(sum.WalkEvictions, sum.Versions), "ratio"},
		"omc.calls_per_kacc":          {perK(counts.OMCCalls), "1/kacc"},
		"omc.merged_per_kacc":         {perK(sum.Merged), "1/kacc"},
		"omc.pages_allocated":         {float64(sum.Pages), "count"},
		"nvm.writes_per_kacc":         {perK(sum.NVMWrites), "1/kacc"},
		"nvm.bytes_per_access":        {perAcc(float64(nvmBytes)), "B"},
		"nvm.stall_cycles_per_access": {perAcc(float64(sum.StallCycles)), "cycles"},
		"plane.applies_per_kacc":      {perK(counts.PlaneApplies), "1/kacc"},
		"tracefile.bytes_per_access":  {ratio(traceBytes, int64(traceRecords)), "B"},
	}
	for _, l := range selfShares {
		m[l+".self_pct"] = metric{share(lt.self[l]), "%"}
	}
	for _, s := range schemeNames {
		m["scheme."+s+".pct"] = metric{share(lt.scheme[s]), "%"}
	}
	return m
}

// print writes the human-readable report.
func (rp *report) print(w io.Writer, expected bool, res result) {
	mode := "untraced"
	if rp.opts.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s: seed %d, %d s, %s ==\n", rp.w.name, rp.opts.seed, rp.opts.seconds, mode)
	fmt.Fprintf(w, "why     %s\n", rp.w.why)
	var setups []float64
	for _, r := range rp.rounds {
		setups = append(setups, r.total().Seconds())
	}
	sort.Float64s(setups)
	med := rp.medianRound()
	fmt.Fprintf(w, "setup   %d rounds: median %.3f s (recording %.3f s), min %.3f s, max %.3f s\n",
		len(setups), med.total().Seconds(), med.record.Seconds(), setups[0], setups[len(setups)-1])
	untraced := rp.selected(false)
	var accesses uint64
	var timed time.Duration
	for _, c := range untraced {
		accesses += c.out.Accesses
		timed += c.timed
	}
	fmt.Fprintf(w, "timed   %d cell executions, %d accesses in %.3f s untraced\n",
		len(untraced), accesses, timed.Seconds())
	ok := res.Attempted - res.Failed
	switch {
	case rp.opts.update:
		fmt.Fprintf(w, "check   %d/%d cell executions consistent; rewriting %s\n", ok, res.Attempted, expectName(rp.opts.seed))
	case expected:
		fmt.Fprintf(w, "check   %d/%d cell executions match %s\n", ok, res.Attempted, expectName(rp.opts.seed))
	default:
		fmt.Fprintf(w, "check   %d/%d cell executions consistent; seed %d has no expectations, so outputs are checked only for consistency\n",
			ok, res.Attempted, rp.opts.seed)
	}
	if rp.opts.trace {
		lt := rp.layers
		acc := 0.0
		for _, c := range rp.selected(true) {
			acc += float64(c.out.Accesses)
		}
		fmt.Fprintf(w, "layers  traced wall %.3f s, untraced %.3f s, %d spans at %.1f ns\n",
			lt.wall/1e9, lt.untraced/1e9, lt.spans, lt.cal.span)
		for _, l := range selfShares {
			fmt.Fprintf(w, "  %-10s self %9.1f ns/access %6.2f%%\n", l, lt.self[l]/acc, 100*lt.self[l]/lt.wall)
		}
		fmt.Fprintf(w, "  self times plus span cost: %.2f%% of traced wall\n", 100*lt.selfSum()/lt.wall)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%-30s %16.6g %s\n", k, m.Value, m.Unit)
	}
}
