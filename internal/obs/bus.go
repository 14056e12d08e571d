package obs

// Bus collects events from one simulation run and streams every event to
// the attached sinks in emission order, stamping each with its sequence
// number.
//
// A Bus is owned by one run and is not safe for concurrent use. The sweep
// engine gives every parallel cell its own bus and merges the results in
// canonical cell order, so no bus is ever reached from two goroutines. All
// methods are safe on a nil receiver and do nothing, which is the zero-cost
// guard unobserved runs rely on.
type Bus struct {
	seq   uint64
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
	b.sinks = append(b.sinks, s)
}

// Emit records one event. The sequence number is assigned here, so the
// stream's order is exactly emission order.
func (b *Bus) Emit(kind Kind, cycle uint64, actor int, epoch, addr, arg, aux uint64) {
	if b == nil {
		return
	}
	b.emit(Event{Cycle: cycle, Kind: kind, Actor: actor, Epoch: epoch,
		Addr: addr, Arg: arg, Aux: aux})
}

// EmitNote records one event carrying a free-form note (salvage decisions).
func (b *Bus) EmitNote(kind Kind, cycle uint64, actor int, epoch, addr, arg, aux uint64, note string) {
	if b == nil {
		return
	}
	b.emit(Event{Cycle: cycle, Kind: kind, Actor: actor, Epoch: epoch,
		Addr: addr, Arg: arg, Aux: aux, Note: note})
}

// emit stamps one event and fans it out to the sinks.
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
	return b.seq
}
