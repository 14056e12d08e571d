package obs

import (
	"sort"

	"repro/internal/stats"
)

// Sink consumes every event a bus emits, in emission order. Sinks must not
// assume any particular call rate: hot-path kinds (NVM enqueues, version
// evicts) dominate the stream.
type Sink interface {
	Record(Event)
}

// Discard is a sink that drops everything; it exists so overhead tests can
// measure the pure emission cost with a sink attached.
type Discard struct{}

// Record implements Sink.
func (Discard) Record(Event) {}

// JSONLSink keeps the stream in the canonical JSONL encoding, appending one
// line per event to its own byte slice. Like the bus feeding it, it is owned
// by one run and is not safe for concurrent use.
type JSONLSink struct {
	cell string
	buf  []byte
}

// NewJSONLSink builds an empty sink that labels every line with the given
// cell name ("" omits the label).
func NewJSONLSink(cell string) *JSONLSink {
	return &JSONLSink{cell: cell}
}

// Record implements Sink.
func (s *JSONLSink) Record(e Event) {
	s.buf = AppendJSONL(s.buf, s.cell, e)
}

// Bytes returns the lines recorded so far (nil before the first event).
func (s *JSONLSink) Bytes() []byte { return s.buf }

// EpochRoll is one epoch's rollup in the per-epoch timeline.
type EpochRoll struct {
	Epoch uint64 `json:"epoch"`
	// Advances counts VD epoch advances that opened this epoch.
	Advances int64 `json:"epoch_advances"`
	// DirtyLines counts versions of this epoch evicted toward the OMC.
	DirtyLines int64 `json:"dirty_lines"`
	// Walks counts tag walks closing this epoch; WalkCycles is the summed
	// start-to-min-ver-report span of those walks.
	Walks      int64 `json:"tag_walks"`
	WalkCycles int64 `json:"walk_cycles"`
	// NVMBytes/NVMWrites aggregate device writes booked while this epoch
	// was the newest one observed (the device layer carries no epoch).
	NVMBytes  int64 `json:"nvm_bytes"`
	NVMWrites int64 `json:"nvm_writes"`
	// MaxBankDepth is the deepest bank backlog (cycles) seen in the epoch.
	MaxBankDepth int64 `json:"max_bank_depth"`
	// Seals/Commits count OMC seal and commit records stamped with it.
	Seals   int64 `json:"omc_seals"`
	Commits int64 `json:"omc_commits"`
	// Faults counts injected faults attributed to the epoch.
	Faults int64 `json:"faults"`
}

// walkMark remembers an in-flight tag walk per actor.
type walkMark struct {
	cycle uint64
	epoch uint64
	open  bool
}

// Aggregator folds the event stream into per-epoch rollups plus a
// log2-bucketed histogram of bank-queue depths. It is deterministic: the
// rollup depends only on the event order, and Timeline sorts by epoch.
// Like the bus feeding it, an aggregator is owned by one run and is not
// safe for concurrent use; reporting code reads the exported histograms
// directly once the run is over.
type Aggregator struct {
	rolls map[uint64]*EpochRoll
	walks map[int]walkMark
	// last is the newest epoch observed so far; epoch-less device events
	// are attributed to it (they were issued while it was current).
	last uint64
	// BankDepth observes every NVM enqueue's bank backlog in cycles.
	BankDepth stats.Histogram
	// WalkSpan observes every completed walk's start-to-report span.
	WalkSpan stats.Histogram
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		rolls: make(map[uint64]*EpochRoll),
		walks: make(map[int]walkMark),
	}
}

// roll returns (creating on demand) the rollup for one epoch.
func (a *Aggregator) roll(epoch uint64) *EpochRoll {
	r := a.rolls[epoch]
	if r == nil {
		r = &EpochRoll{Epoch: epoch}
		a.rolls[epoch] = r
	}
	return r
}

// Record implements Sink.
func (a *Aggregator) Record(e Event) {
	if e.Epoch > a.last {
		a.last = e.Epoch
	}
	switch e.Kind {
	case KindEpochAdvance:
		a.roll(e.Epoch).Advances++
	case KindVersionEvict:
		a.roll(e.Epoch).DirtyLines++
	case KindWalkStart:
		a.walks[e.Actor] = walkMark{cycle: e.Cycle, epoch: e.Epoch, open: true}
	case KindWalkEnd:
		m := a.walks[e.Actor]
		if !m.open {
			return // report with no observed start (stream was cut)
		}
		span := int64(e.Cycle - m.cycle)
		r := a.roll(m.epoch)
		r.Walks++
		r.WalkCycles += span
		a.WalkSpan.Observe(span)
		a.walks[e.Actor] = walkMark{}
	case KindNVMEnqueue:
		r := a.roll(a.last)
		r.NVMBytes += int64(e.Arg)
		r.NVMWrites++
		if d := int64(e.Aux); d > r.MaxBankDepth {
			r.MaxBankDepth = d
		}
		a.BankDepth.Observe(int64(e.Aux))
	case KindOMCSeal:
		a.roll(e.Epoch).Seals++
	case KindOMCCommit:
		a.roll(e.Epoch).Commits++
	case KindFault:
		a.roll(a.last).Faults++
	}
}

// Timeline returns the per-epoch rollups sorted by epoch.
func (a *Aggregator) Timeline() []EpochRoll {
	epochs := make([]uint64, 0, len(a.rolls))
	for e := range a.rolls {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	out := make([]EpochRoll, len(epochs))
	for i, e := range epochs {
		out[i] = *a.rolls[e]
	}
	return out
}
