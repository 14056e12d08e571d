package obs

import (
	"io"
	"sort"
	"sync"

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

// JSONLSink streams events to w in the canonical JSONL encoding. Writes
// are line-buffered through an internal scratch slice; the first write
// error latches and suppresses further output. Safe for concurrent use:
// Record and Err take the sink mutex (the underlying writer then needs no
// locking of its own for lines to stay whole).
type JSONLSink struct {
	w    io.Writer // immutable after NewJSONLSink
	cell string    // immutable after NewJSONLSink

	mu sync.Mutex
	// nvlint:guardedby mu
	buf []byte
	// nvlint:guardedby mu
	err error
}

// NewJSONLSink builds a sink writing to w, labelling every line with the
// given cell name ("" omits the label).
func NewJSONLSink(w io.Writer, cell string) *JSONLSink {
	return &JSONLSink{w: w, cell: cell}
}

// Record implements Sink.
func (s *JSONLSink) Record(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.buf = AppendJSONL(s.buf[:0], s.cell, e)
	_, s.err = s.w.Write(s.buf)
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

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
// Record and Timeline take the aggregator mutex, so one aggregator
// can sink a concurrently shared bus; the exported histograms are read
// directly by reporting code and must only be touched after recording has
// quiesced.
type Aggregator struct {
	mu sync.Mutex
	// nvlint:guardedby mu
	rolls map[uint64]*EpochRoll
	// nvlint:guardedby mu
	walks map[int]walkMark
	// last is the newest epoch observed so far; epoch-less device events
	// are attributed to it (they were issued while it was current).
	// nvlint:guardedby mu
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
//
// nvlint:locked mu
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
	a.mu.Lock()
	defer a.mu.Unlock()
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
	a.mu.Lock()
	defer a.mu.Unlock()
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
