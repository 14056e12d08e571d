package obs

import "sync"

// Bus collects events from one simulation run and streams every event to
// the attached sinks in emission order, stamping each with its sequence
// number.
//
// A Bus is safe for concurrent use: every method takes the bus mutex, and
// the mutable state is nvlint:guardedby-annotated so the lock discipline is
// machine-checked. The sweep engine still gives every parallel cell its own
// bus and merges the results in canonical cell order — the lock buys
// correctness for concurrent emitters (the planned serving path), not
// ordering. All methods are safe on a nil receiver and do nothing, which is
// the zero-cost guard unobserved runs rely on.
type Bus struct {
	mu sync.Mutex
	// nvlint:guardedby mu
	seq uint64
	// nvlint:guardedby mu
	sinks []Sink
}

// NewBus returns a bus with no sinks attached.
func NewBus() *Bus {
	return &Bus{}
}

// Attach adds a sink; every subsequent event is forwarded to it.
func (b *Bus) Attach(s Sink) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sinks = append(b.sinks, s)
}

// Emit records one event. The sequence number is assigned here, so the
// stream's order is exactly emission order.
func (b *Bus) Emit(kind Kind, cycle uint64, actor int, epoch, addr, arg, aux uint64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.emit(Event{Cycle: cycle, Kind: kind, Actor: actor, Epoch: epoch,
		Addr: addr, Arg: arg, Aux: aux})
}

// EmitNote records one event carrying a free-form note (salvage decisions).
func (b *Bus) EmitNote(kind Kind, cycle uint64, actor int, epoch, addr, arg, aux uint64, note string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.emit(Event{Cycle: cycle, Kind: kind, Actor: actor, Epoch: epoch,
		Addr: addr, Arg: arg, Aux: aux, Note: note})
}

// emit stamps one event and fans it out to the sinks.
//
// nvlint:locked mu
func (b *Bus) emit(e Event) {
	e.Seq = b.seq
	b.seq++
	for _, s := range b.sinks {
		s.Record(e)
	}
}

// Emitted returns how many events have been emitted in total.
func (b *Bus) Emitted() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}
