// Package obs is the simulator's deterministic structured-event layer: a
// typed, epoch-stamped event stream threaded through the whole snapshot
// stack (CST frontend, OMC backend, NVM device, fault injector, recovery).
// Components emit through a *Bus reached via sim.Config.Obs; a nil bus
// makes every emission a no-op (the same record-only-when-observing guard
// trace.Heap uses), so unobserved runs pay one nil check per site.
//
// Determinism contract: events are emitted from the simulation's single
// logical thread in simulation order, stamped with a per-bus sequence
// number. A run's event stream is a pure function of its seeded
// configuration — byte-identical across -j worker counts (each sweep cell
// owns its own bus; streams are serialized in canonical cell order) and
// across seed replays. Nothing here reads wall clocks or iterates maps
// unsorted; nvlint enforces that.
package obs

import "strconv"

// Kind is the event type.
type Kind uint8

// Event kinds, one per instrumented decision in the snapshot stack.
const (
	// KindEpochAdvance is a VD-local epoch termination (store-count
	// boundary or coherence-driven jump). Actor = VD, Epoch = new epoch,
	// Arg = old epoch, Aux = 1 at a store-count boundary.
	KindEpochAdvance Kind = iota
	// KindWalkStart is a tag-walk snapshot. Actor = VD, Epoch = the
	// closing epoch, Arg = queued write-backs.
	KindWalkStart
	// KindWalkEnd is the walk's min-ver report. Actor = VD, Epoch = the
	// epoch whose walk completed, Arg = the reported min-ver.
	KindWalkEnd
	// KindVersionEvict is a dirty version leaving its VD for the OMC (or,
	// in the baselines, an L2 write-back leaving for the LLC/log). Epoch =
	// the version's OID, Addr = line address, Arg = the cache.Reason,
	// Actor = VD where known (-1 otherwise).
	KindVersionEvict
	// KindOMCSeal is a sealed-epoch record append. Actor = OMC id, Epoch =
	// sealed epoch, Arg = table entries, Aux = seal log sequence.
	KindOMCSeal
	// KindOMCCommit is a commit record append. Actor = OMC id, Epoch =
	// committed rec-epoch, Arg = master-table entries, Aux = commit log
	// sequence.
	KindOMCCommit
	// KindRecEpoch is a recoverable-epoch advance. Actor = OMC id, Epoch =
	// the new rec-epoch.
	KindRecEpoch
	// KindNVMEnqueue is a device write booked on a bank. Actor = bank,
	// Addr = NVM address, Arg = bytes, Aux = bank backlog in cycles after
	// booking. Carries no epoch (the device is below the epoch layer); the
	// aggregator attributes it to the newest epoch seen so far.
	KindNVMEnqueue
	// KindNVMDrain is a bank queue entry reaching the durable array. Actor
	// = bank, Addr = first word address, Arg = words committed.
	KindNVMDrain
	// KindFault is an injected fault. Actor = bank (-1 when global), Addr/
	// Arg as in fault.Event, Aux = the fault class ordinal. Fault events
	// carry no cycle (the injector has no clock); Cycle is 0.
	KindFault
	// KindSalvage is a recovery salvage decision. Actor = partition (-1
	// for group-level decisions), Epoch = epoch concerned, Note = the
	// decision ("restored", "walked-back", "refused", or a damage kind).
	KindSalvage
	// KindIOFault is a disk-level I/O error observed by the file-backed
	// plane (injected or real). Actor = -1, Epoch = newest sealed epoch,
	// Arg = 1 when the fault is transient, Aux = the plane's mutating-op
	// ordinal where known, Note = the syscall ("write", "sync", ...).
	// Carries no cycle (the plane is below the simulated clock).
	KindIOFault
	// KindIORetry is one bounded-retry attempt against a transient disk
	// fault. Actor = -1, Epoch = newest sealed epoch, Arg = attempt index
	// (1-based), Aux = deterministic backoff ticks charged for the attempt.
	KindIORetry
	// KindPlaneWound is the plane's one-way degradation to read-only
	// wounded mode after a permanent write-path failure. Actor = -1,
	// Epoch = newest sealed epoch (still salvageable), Note = the cause.
	KindPlaneWound
	numKinds
)

// kindNames is the canonical wire spelling of each kind, in ordinal order.
var kindNames = [numKinds]string{
	"epoch_advance",
	"walk_start",
	"walk_end",
	"version_evict",
	"omc_seal",
	"omc_commit",
	"rec_epoch",
	"nvm_enqueue",
	"nvm_drain",
	"fault",
	"salvage",
	"io_fault",
	"io_retry",
	"plane_wound",
}

// String returns the canonical wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind" + strconv.Itoa(int(k))
}

// KindByName resolves a wire name back to its Kind.
func KindByName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one structured observation. The zero Aux/Addr/Note fields of a
// kind that does not use them stay zero/empty, so serialized streams carry
// no incidental entropy.
type Event struct {
	Seq   uint64 // emission order on this bus, starting at 0
	Cycle uint64 // simulated cycle (0 for cycle-less layers)
	Kind  Kind
	Actor int    // VD / OMC id / bank / partition; -1 = unattributed
	Epoch uint64 // epoch stamp (0 for epoch-less layers)
	Addr  uint64
	Arg   uint64
	Aux   uint64
	Note  string // free-form tag; only salvage decisions set it
}

// AppendJSONL appends the event's canonical JSONL encoding (one line,
// fixed field order, trailing newline) to buf and returns the extended
// slice. cell, when non-empty, labels the sweep cell the event belongs to.
// The encoding is hand-rolled so byte-identity never depends on
// encoding/json internals.
func AppendJSONL(buf []byte, cell string, e Event) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, `,"cycle":`...)
	buf = strconv.AppendUint(buf, e.Cycle, 10)
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, e.Kind.String()...)
	buf = append(buf, `","actor":`...)
	buf = strconv.AppendInt(buf, int64(e.Actor), 10)
	buf = append(buf, `,"epoch":`...)
	buf = strconv.AppendUint(buf, e.Epoch, 10)
	buf = append(buf, `,"addr":`...)
	buf = strconv.AppendUint(buf, e.Addr, 10)
	buf = append(buf, `,"arg":`...)
	buf = strconv.AppendUint(buf, e.Arg, 10)
	buf = append(buf, `,"aux":`...)
	buf = strconv.AppendUint(buf, e.Aux, 10)
	if e.Note != "" {
		buf = append(buf, `,"note":`...)
		buf = strconv.AppendQuote(buf, e.Note)
	}
	if cell != "" {
		buf = append(buf, `,"cell":`...)
		buf = strconv.AppendQuote(buf, cell)
	}
	buf = append(buf, '}', '\n')
	return buf
}
