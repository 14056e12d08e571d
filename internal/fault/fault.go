// Package fault is the deterministic NVM fault-injection layer. It models
// the failure classes the hybrid-memory emulation and NVRAM-persistence
// literature calls out for real devices: torn line writes (a power cut
// persists only an 8-byte-granularity prefix of the word burst in flight),
// per-word bit flips in the persisted array, whole-bank write-queue loss
// when the ADR flush fails at power cut, and transient write NAKs that the
// device front-end retries with bounded exponential backoff.
//
// Every fault is drawn from one seeded internal/sim PRNG and recorded both
// as a stats counter and as an ordered Event list, so a run's fault
// schedule is a pure function of (trace seed, fault seed) and replays
// byte-for-byte — the property the differential harness relies on to turn
// "the image survived corruption X" into a regression test.
package fault

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Class enumerates the injectable fault classes.
type Class uint8

const (
	// Torn tears the bank's in-flight write at power cut: only a prefix
	// of its 8-byte words reaches the array.
	Torn Class = iota
	// BitFlip flips one bit of a persisted word at power cut.
	BitFlip
	// BankLoss drops a whole bank's volatile write queue at power cut
	// (the battery/ADR domain failed for that bank).
	BankLoss
	// NAK is a transient device write reject at issue time; the front-end
	// retries with bounded exponential backoff and drops the write when
	// the retry budget is exhausted.
	NAK
	// NAKDrop marks a write abandoned after the retry budget.
	NAKDrop
)

// String returns the schedule/counter name of the class.
func (c Class) String() string {
	switch c {
	case Torn:
		return "torn"
	case BitFlip:
		return "flip"
	case BankLoss:
		return "loss"
	case NAK:
		return "nak"
	case NAKDrop:
		return "nakdrop"
	default:
		return fmt.Sprintf("class%d", int(c))
	}
}

// MaxNAKRetries bounds the front-end's retry loop per write.
const MaxNAKRetries = 4

// Config selects fault probabilities. The zero value injects nothing.
type Config struct {
	Seed int64
	// NAKPer10k is the per-attempt probability (basis points) that a
	// persist is NAKed by the device.
	NAKPer10k int
	// TornPer100 is the per-bank probability (percent) that the bank's
	// last in-flight write tears at power cut.
	TornPer100 int
	// LossPer100 is the per-bank probability (percent) that the bank's
	// whole volatile write queue is lost at power cut.
	LossPer100 int
	// Flips is the number of bit flips applied to the surviving image at
	// power cut.
	Flips int
}

// Enabled reports whether any fault class can fire.
func (c Config) Enabled() bool {
	return c.NAKPer10k > 0 || c.TornPer100 > 0 || c.LossPer100 > 0 || c.Flips > 0
}

// Classes lists the named fault regimes understood by ClassConfig, in the
// order the sweep grids iterate them.
var Classes = []string{"torn", "flip", "loss", "nak"}

// ValidClass reports whether ClassConfig accepts name ("" = off).
func ValidClass(name string) bool {
	_, err := ClassConfig(name, 0)
	return err == nil
}

// ClassConfig returns the preset configuration of a named fault regime.
// The presets are deliberately aggressive: the harness wants faults to
// fire on nearly every power cut, not once per thousand runs.
func ClassConfig(name string, seed int64) (Config, error) {
	c := Config{Seed: seed}
	switch name {
	case "":
		// Injection off.
	case "torn":
		c.TornPer100 = 100
	case "flip":
		c.Flips = 3
	case "loss":
		c.LossPer100 = 40
	case "nak":
		c.NAKPer10k = 300
	case "all":
		c.TornPer100 = 50
		c.Flips = 1
		c.LossPer100 = 20
		c.NAKPer10k = 150
	default:
		return Config{}, fmt.Errorf("fault: unknown fault class %q (torn, flip, loss, nak, all)", name)
	}
	return c, nil
}

// Event is one injected fault, in injection order.
type Event struct {
	Class Class
	Bank  int
	Addr  uint64
	// Arg is class-specific: words kept (Torn), bit index (BitFlip),
	// queued writes dropped (BankLoss), attempt number (NAK).
	Arg uint64
}

// String renders the event in the canonical schedule form.
func (e Event) String() string {
	return fmt.Sprintf("%s bank=%d addr=%#x arg=%d", e.Class, e.Bank, e.Addr, e.Arg)
}

// Injector draws faults from a seeded PRNG and records every one.
type Injector struct {
	cfg    Config
	rng    *sim.RNG
	events []Event
	stat   map[Class]int64
	bus    *obs.Bus // nil when the run is unobserved
}

// New builds an injector for the given configuration.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:  cfg,
		rng:  sim.NewRNG(cfg.Seed),
		stat: make(map[Class]int64),
	}
}

// Enabled reports whether the injector can fire at all.
func (in *Injector) Enabled() bool { return in != nil && in.cfg.Enabled() }

// AttachBus forwards every injected fault to the observability bus. The
// injector has no clock, so fault events carry cycle 0.
func (in *Injector) AttachBus(b *obs.Bus) {
	if in != nil {
		in.bus = b
	}
}

func (in *Injector) record(c Class, bank int, addr, arg uint64) {
	in.events = append(in.events, Event{Class: c, Bank: bank, Addr: addr, Arg: arg})
	in.stat[c]++
	in.bus.Emit(obs.KindFault, 0, bank, 0, addr, arg, uint64(c))
}

// NAK draws whether the given persist attempt is rejected by the device.
func (in *Injector) NAK(addr uint64, attempt int) bool {
	if in.cfg.NAKPer10k <= 0 {
		return false
	}
	if in.rng.Intn(10_000) >= in.cfg.NAKPer10k {
		return false
	}
	in.record(NAK, -1, addr, uint64(attempt))
	return true
}

// NoteNAKDrop records a write abandoned after MaxNAKRetries.
func (in *Injector) NoteNAKDrop(addr uint64) { in.record(NAKDrop, -1, addr, 0) }

// BankLost draws whether a bank's whole volatile queue (queued writes
// deep) is lost at power cut.
func (in *Injector) BankLost(bank, queued int) bool {
	if in.cfg.LossPer100 <= 0 || queued == 0 {
		return false
	}
	if in.rng.Intn(100) >= in.cfg.LossPer100 {
		return false
	}
	in.record(BankLoss, bank, 0, uint64(queued))
	return true
}

// Tear draws whether the bank's in-flight write of `words` 8-byte words
// tears at power cut, returning the persisted prefix length.
func (in *Injector) Tear(bank int, addr uint64, words int) (keep int, torn bool) {
	if in.cfg.TornPer100 <= 0 || words == 0 {
		return words, false
	}
	if in.rng.Intn(100) >= in.cfg.TornPer100 {
		return words, false
	}
	keep = in.rng.Intn(words) // 0..words-1: at least one word is lost
	in.record(Torn, bank, addr, uint64(keep))
	return keep, true
}

// FlipCount returns how many bit flips the power cut applies.
func (in *Injector) FlipCount() int { return in.cfg.Flips }

// Flip draws a flip target: an index into the (sorted) persisted word set
// and a bit position. The caller records the resolved address via NoteFlip.
func (in *Injector) Flip(nCandidates int) (idx int, bit uint) {
	return in.rng.Intn(nCandidates), uint(in.rng.Intn(64))
}

// NoteFlip records a bit flip applied to the persisted word at addr.
func (in *Injector) NoteFlip(addr uint64, bit uint) {
	in.record(BitFlip, -1, addr, uint64(bit))
}

// Events returns the faults injected so far, in order.
func (in *Injector) Events() []Event { return in.events }

// Count returns how many events of the class fired.
func (in *Injector) Count(c Class) int64 { return in.stat[c] }

// Total returns the total number of injected faults.
func (in *Injector) Total() int { return len(in.events) }

// Schedule renders the full fault schedule in a canonical, byte-stable
// form. Two runs of the same seeded trace must produce identical
// schedules; the replay tests diff this string directly.
func (in *Injector) Schedule() string { return schedule(in.events) }

// schedule renders a fault history one event per line, in injection order.
// The NVM and disk schedules share this form.
func schedule[E fmt.Stringer](events []E) string {
	var b strings.Builder
	for i, e := range events {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.String())
	}
	return b.String()
}
