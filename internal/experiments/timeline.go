package experiments

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TimelineCell is one workload's observed NVOverlay run: the per-epoch
// rollup timeline, the occupancy histograms, and (when captured) the raw
// JSONL event stream labelled with the cell name.
type TimelineCell struct {
	Scheme   string          `json:"scheme"`
	Workload string          `json:"workload"`
	Emitted  uint64          `json:"events_emitted"`
	Rolls    []obs.EpochRoll `json:"timeline"`
	// BankDepth aggregates every NVM enqueue's bank backlog (cycles);
	// WalkSpan every tag walk's start-to-report span.
	BankDepth stats.Histogram `json:"-"`
	WalkSpan  stats.Histogram `json:"-"`
	// Events is the cell's canonical JSONL stream (nil unless captured).
	Events []byte `json:"-"`
}

// CellName labels a timeline cell's events in a multi-cell stream.
func (c *TimelineCell) CellName() string { return c.Scheme + "/" + c.Workload }

// Observer is the observability layer of one run: a bus feeding the
// per-epoch aggregator and, when capturing, a JSONL sink. A nil *Observer
// is an unobserved run.
type Observer struct {
	bus    *obs.Bus
	agg    *obs.Aggregator
	events *obs.JSONLSink // nil unless capturing
}

// NewObserver builds an observer; capture keeps the JSONL event stream,
// each line labelled with cell ("" for a single-run stream).
func NewObserver(cell string, capture bool) *Observer {
	o := &Observer{bus: obs.NewBus(), agg: obs.NewAggregator()}
	o.bus.Attach(o.agg)
	if capture {
		o.events = obs.NewJSONLSink(cell)
		o.bus.Attach(o.events)
	}
	return o
}

// Bus returns the bus a run emits into (sim.Config.Obs). It is nil for a
// nil observer, which keeps an unobserved run on the nil-bus fast path.
func (o *Observer) Bus() *obs.Bus {
	if o == nil {
		return nil
	}
	return o.bus
}

// Cell returns what the observer saw as the (scheme, workload) cell.
func (o *Observer) Cell(scheme, workload string) TimelineCell {
	c := TimelineCell{Scheme: scheme, Workload: workload,
		Emitted: o.bus.Emitted(), Rolls: o.agg.Timeline(),
		BankDepth: o.agg.BankDepth, WalkSpan: o.agg.WalkSpan}
	if o.events != nil {
		c.Events = o.events.Bytes()
	}
	return c
}

// Timeline runs NVOverlay over the given workloads at scale with the
// observability layer attached and returns one cell per workload, in
// workload order. Each parallel cell owns its own observer, so workers
// never share state; concatenating the cells' Events in return order
// therefore yields a byte-identical multi-cell stream at every scale.Jobs.
// capture selects whether the raw JSONL streams are kept (the
// aggregations always run).
func Timeline(sc Scale, wls []string, capture bool) ([]TimelineCell, error) {
	observers := make([]*Observer, len(wls))
	cells := make([]cellSpec, len(wls))
	for i, wl := range wls {
		ob := NewObserver("NVOverlay/"+wl, capture)
		observers[i] = ob
		cells[i] = cellSpec{scheme: "NVOverlay", wl: wl,
			mod: func(c *sim.Config) { c.Obs = ob.bus }}
	}
	if _, err := runCells(sc, cells); err != nil {
		return nil, err
	}
	out := make([]TimelineCell, len(wls))
	for i, wl := range wls {
		out[i] = observers[i].Cell("NVOverlay", wl)
	}
	return out, nil
}

// ConcatEvents joins the cells' captured JSONL streams in cell order. The
// result is the canonical multi-cell stream: per-cell sequence numbers are
// gapless from 0, and obs.ValidateJSONL accepts it as a whole.
func ConcatEvents(cells []TimelineCell) []byte {
	var buf []byte
	for i := range cells {
		buf = append(buf, cells[i].Events...)
	}
	return buf
}

// PrintTimeline renders the per-epoch rollups as fixed-width text, one
// block per cell, for nvbench's human-readable -timeline output.
func PrintTimeline(w io.Writer, cells []TimelineCell) {
	for i := range cells {
		c := &cells[i]
		fmt.Fprintf(w, "== timeline %s (%d events) ==\n", c.CellName(), c.Emitted)
		fmt.Fprintf(w, "%8s %9s %11s %7s %11s %11s %10s %6s %8s %7s\n",
			"epoch", "advances", "dirty_lines", "walks", "walk_cycles",
			"nvm_bytes", "nvm_writes", "seals", "commits", "faults")
		for _, r := range c.Rolls {
			fmt.Fprintf(w, "%8d %9d %11d %7d %11d %11d %10d %6d %8d %7d\n",
				r.Epoch, r.Advances, r.DirtyLines, r.Walks, r.WalkCycles,
				r.NVMBytes, r.NVMWrites, r.Seals, r.Commits, r.Faults)
		}
		fmt.Fprintf(w, "  bank depth: %s\n", c.BankDepth.String())
		fmt.Fprintf(w, "  walk span:  %s\n", c.WalkSpan.String())
	}
}
