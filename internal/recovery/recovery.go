// Package recovery implements the snapshot usage models of paper §V-E on
// top of the MNM backend: crash recovery (rebuild the consistent image of
// rec-epoch and resume), remote replication (ship per-epoch deltas to a
// backup machine that replays them as redo logs), and time-travel reads
// for debugging.
package recovery

import (
	"fmt"
	"sort"

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
func Recover(g *omc.Group) (map[uint64]uint64, Report) {
	img, lat := g.RecoverImage()
	return img, Report{
		RecEpoch:      g.RecEpoch(),
		LinesRestored: len(img),
		LatencyCycles: lat,
	}
}

// Verify compares a recovered image against a golden address->payload
// table and returns a descriptive error for the first divergence.
func Verify(img map[uint64]uint64, golden *mem.Table[uint64]) error {
	if len(img) != golden.Len() {
		return fmt.Errorf("recovery: image has %d lines, golden has %d", len(img), golden.Len())
	}
	// Walk the golden image in address order so the first divergence
	// reported is the same on every run.
	for _, addr := range golden.SortedKeys() {
		want, _ := golden.Get(addr)
		got, ok := img[addr]
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
	pending map[uint64]map[uint64]uint64 // epoch -> delta
	applied uint64
	image   map[uint64]uint64

	// BytesReceived counts delta payload shipped to this replica.
	BytesReceived int64
}

// NewReplica creates an empty backup machine.
func NewReplica() *Replica {
	return &Replica{
		pending: make(map[uint64]map[uint64]uint64),
		image:   make(map[uint64]uint64),
	}
}

// Receive accepts epoch e's delta. Deltas may arrive out of order; replay
// applies them in epoch order.
func (r *Replica) Receive(e uint64, delta map[uint64]uint64) {
	cp := make(map[uint64]uint64, len(delta))
	//nvlint:allow maprange map copy plus size accounting, order-independent
	for a, d := range delta {
		cp[a] = d
		r.BytesReceived += 64 // one line per entry on the wire
	}
	r.pending[e] = cp
}

// ReplayTo applies all pending deltas with epoch <= target, in order, and
// returns how many epochs were applied. Epochs at or below the already
// applied point are ignored (idempotent redo).
func (r *Replica) ReplayTo(target uint64) int {
	var epochs []uint64
	for e := range r.pending {
		if e > r.applied && e <= target {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, e := range epochs {
		//nvlint:allow maprange redo-log apply into a map: last write per address within one epoch delta is unique
		for a, d := range r.pending[e] {
			r.image[a] = d
		}
		delete(r.pending, e)
		r.applied = e
	}
	return len(epochs)
}

// AppliedEpoch returns the newest epoch reflected in the replica's image.
func (r *Replica) AppliedEpoch() uint64 { return r.applied }

// Image returns the replica's current materialised state.
func (r *Replica) Image() map[uint64]uint64 { return r.image }

// Replicate ships every accessible epoch of the primary's MNM backend to
// the replica and replays up to the recoverable epoch. It returns the
// number of epochs shipped.
func Replicate(g *omc.Group, r *Replica) int {
	epochs := g.Epochs()
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, e := range epochs {
		r.Receive(e, g.EpochDelta(e))
	}
	r.ReplayTo(g.RecEpoch())
	return len(epochs)
}

// TimeTravel reads addr as of the given epoch with fall-through semantics
// (§V-E), returning the value, the epoch that produced it, and whether any
// version at or before the requested epoch is still materialised.
func TimeTravel(g *omc.Group, addr, epoch uint64) (uint64, uint64, bool) {
	return g.TimeTravelRead(addr, epoch)
}

// History returns the full version history of addr across accessible
// epochs, oldest first — the watch-point inspection flow of the
// distributed-debugging usage model.
type Version struct {
	Epoch uint64
	Data  uint64
}

// History enumerates addr's versions.
func History(g *omc.Group, addr uint64) []Version {
	epochs := g.Epochs()
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	var out []Version
	for _, e := range epochs {
		if delta := g.EpochDelta(e); delta != nil {
			if d, ok := delta[addr]; ok {
				out = append(out, Version{Epoch: e, Data: d})
			}
		}
	}
	return out
}
