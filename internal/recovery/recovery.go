// Package recovery implements the snapshot usage models of paper §V-E on
// top of the MNM backend: crash recovery (rebuild the consistent image of
// rec-epoch and resume), remote replication (ship per-epoch deltas to a
// backup machine that replays them as redo logs), and the version history
// of one address for debugging. Time-travel reads themselves are
// omc.Group.TimeTravelRead.
package recovery

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/omc"
)

// Report summarises one crash-recovery run.
type Report struct {
	RecEpoch      uint64
	LinesRestored int
	// LatencyCycles is the simulated recovery time: NVM reads for every
	// mapped line (proportional to the working set, §III-C).
	LatencyCycles uint64
}

// Recover rebuilds the consistent memory image from the Master Tables
// ("the recovery procedure loads the consistent image from the NVM by
// scanning Mmaster and reading all versions into their corresponding
// addresses", §V-E) and returns it with a report.
func Recover(g *omc.Group) (*mem.Table[uint64], Report) {
	img, lat := g.RecoverImage()
	return img, Report{
		RecEpoch:      g.RecEpoch(),
		LinesRestored: img.Len(),
		LatencyCycles: lat,
	}
}

// Verify compares a recovered image against a golden address->payload
// table and returns a descriptive error for the first divergence.
func Verify(img, golden *mem.Table[uint64]) error {
	if img.Len() != golden.Len() {
		return fmt.Errorf("recovery: image has %d lines, golden has %d", img.Len(), golden.Len())
	}
	// Walk the golden image in address order so the first divergence
	// reported is the same on every run.
	for _, addr := range golden.SortedKeys() {
		want, _ := golden.Get(addr)
		got, ok := img.Get(addr)
		if !ok {
			return fmt.Errorf("recovery: line %#x missing from image", addr)
		}
		if got != want {
			return fmt.Errorf("recovery: line %#x = %d, want %d", addr, got, want)
		}
	}
	return nil
}

// Replica is a remote backup machine (paper §V-E "Remote Replication"):
// it receives per-epoch snapshot deltas over the (abstracted) network and
// replays them, in epoch order, as redo logs into its own image.
type Replica struct {
	pending *mem.Table[*mem.Table[uint64]] // epoch -> delta
	applied uint64
	image   *mem.Table[uint64]

	// BytesReceived counts delta payload shipped to this replica.
	BytesReceived int64
}

// NewReplica creates an empty backup machine.
func NewReplica() *Replica {
	return &Replica{
		pending: mem.NewTable[*mem.Table[uint64]](0),
		image:   mem.NewTable[uint64](0),
	}
}

// Receive accepts epoch e's delta. Deltas may arrive out of order; replay
// applies them in epoch order.
func (r *Replica) Receive(e uint64, delta *mem.Table[uint64]) {
	cp := mem.NewTable[uint64](delta.Len())
	delta.ForEach(cp.Put)
	r.BytesReceived += 64 * int64(cp.Len()) // one line per entry on the wire
	r.pending.Put(e, cp)
}

// ReplayTo applies all pending deltas with epoch <= target, in order, and
// returns how many epochs were applied. Epochs at or below the already
// applied point are ignored (idempotent redo).
func (r *Replica) ReplayTo(target uint64) int {
	n := 0
	for _, e := range r.pending.SortedKeys() {
		if e <= r.applied || e > target {
			continue
		}
		delta, _ := r.pending.Get(e)
		delta.ForEach(r.image.Put)
		r.pending.Delete(e)
		r.applied = e
		n++
	}
	return n
}

// AppliedEpoch returns the newest epoch reflected in the replica's image.
func (r *Replica) AppliedEpoch() uint64 { return r.applied }

// Image returns the replica's current materialised state.
func (r *Replica) Image() *mem.Table[uint64] { return r.image }

// Replicate ships every accessible epoch of the primary's MNM backend to
// the replica and replays up to the recoverable epoch. It returns the
// number of epochs shipped.
func Replicate(g *omc.Group, r *Replica) int {
	epochs := g.Epochs()
	for _, e := range epochs {
		r.Receive(e, g.EpochDelta(e))
	}
	r.ReplayTo(g.RecEpoch())
	return len(epochs)
}

// History returns the full version history of addr across accessible
// epochs, oldest first — the watch-point inspection flow of the
// distributed-debugging usage model.
type Version struct {
	Epoch uint64
	Data  uint64
}

// History enumerates addr's versions: epoch e wrote addr exactly when the
// fall-through read at e stops at e itself.
func History(g *omc.Group, addr uint64) []Version {
	var out []Version
	for _, e := range g.Epochs() {
		if d, found, ok := g.TimeTravelRead(addr, e); ok && found == e {
			out = append(out, Version{Epoch: e, Data: d})
		}
	}
	return out
}
