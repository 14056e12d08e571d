package experiments

import (
	"bytes"
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

// Timeline runs NVOverlay over the given workloads at scale with the
// observability layer attached and returns one cell per workload, in
// workload order. Each parallel cell owns its own bus, JSONL buffer and
// aggregator (written through a slot-indexed slice, so workers never share
// state); concatenating the cells' Events in return order therefore yields
// a byte-identical multi-cell stream at every scale.Jobs. capture selects
// whether the raw JSONL streams are kept (the aggregations always run).
func Timeline(sc Scale, wls []string, capture bool) ([]TimelineCell, error) {
	out := make([]TimelineCell, len(wls))
	buses := make([]*obs.Bus, len(wls))
	bufs := make([]*bytes.Buffer, len(wls))
	aggs := make([]*obs.Aggregator, len(wls))
	cells := make([]cellSpec, len(wls))
	for i, wl := range wls {
		out[i] = TimelineCell{Scheme: "NVOverlay", Workload: wl}
		buses[i] = obs.NewBus()
		aggs[i] = obs.NewAggregator()
		buses[i].Attach(aggs[i])
		if capture {
			bufs[i] = &bytes.Buffer{}
			buses[i].Attach(obs.NewJSONLSink(bufs[i], out[i].CellName()))
		}
		bus := buses[i]
		cells[i] = cellSpec{scheme: "NVOverlay", wl: wl,
			mod: func(c *sim.Config) { c.Obs = bus }}
	}
	if _, err := runCells(sc, cells); err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Emitted = buses[i].Emitted()
		out[i].Rolls = aggs[i].Timeline()
		out[i].BankDepth = aggs[i].BankDepth
		out[i].WalkSpan = aggs[i].WalkSpan
		if capture {
			out[i].Events = bufs[i].Bytes()
		}
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
