package diffcheck

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
)

// clampParams maps arbitrary fuzz inputs onto a valid Params value. Every
// clamped field stays inside Validate()'s envelope, so the fuzzer explores
// machine shapes and access mixes, not input validation.
func clampParams(seed int64, cores, vdcores, share, write, epoch, pattern, flags uint8, steps uint16) Params {
	c := 1 << (int(cores) % 4) // 1, 2, 4 or 8 cores
	per := 1 << (int(vdcores) % 4)
	if per > c {
		per = c
	}
	p := Params{
		Seed:        seed,
		Cores:       c,
		CoresPerVD:  per,
		Steps:       200 + int(steps)%1200,
		Lines:       16 + int(share)%112,
		SharePct:    int(share) % 101,
		WritePct:    25 + int(write)%76, // stores must occur for epochs to close
		EpochSize:   1 + int(epoch)%24,
		Pattern:     []string{PatternUniform, PatternHotspot, PatternStride}[int(pattern)%3],
		Walker:      flags&1 == 0, // walker on for most inputs
		Buffered:    flags&2 != 0,
		OMCs:        1 + int(flags>>4)%4,
		CrashPoints: 3,
	}
	if flags&4 != 0 {
		p.Wrap = true
		// Narrow widths only when sharing keeps VD epoch skew below half
		// the wire space (the protocol's own §IV-D operating condition).
		p.WrapWidth = 8
		if p.SharePct >= 50 {
			p.WrapWidth = 5
		}
	}
	return p
}

// FuzzDifferentialTrace feeds fuzzer-chosen trace parameters through the
// full differential harness: any divergence between the snapshot stack and
// the golden model fails the fuzz run with a deterministic reproducer. Each
// input also replays with an observability aggregator attached — the bus is
// observation-only, so the Result figures must match the unobserved run
// exactly on every machine shape the fuzzer invents.
func FuzzDifferentialTrace(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), uint8(50), uint8(25), uint8(13), uint8(0), uint8(0), uint16(800))
	f.Add(int64(2), uint8(3), uint8(1), uint8(60), uint8(25), uint8(9), uint8(1), uint8(4), uint16(1000))
	f.Add(int64(3), uint8(2), uint8(0), uint8(70), uint8(50), uint8(9), uint8(2), uint8(6), uint16(900))
	f.Add(int64(4), uint8(3), uint8(1), uint8(40), uint8(75), uint8(17), uint8(0), uint8(2), uint16(700))
	f.Add(int64(5), uint8(1), uint8(0), uint8(90), uint8(30), uint8(5), uint8(1), uint8(17), uint16(600))
	f.Fuzz(func(t *testing.T, seed int64, cores, vdcores, share, write, epoch, pattern, flags uint8, steps uint16) {
		p := clampParams(seed, cores, vdcores, share, write, epoch, pattern, flags, steps)
		if err := p.Validate(); err != nil {
			t.Fatalf("clamp produced invalid params: %v (%+v)", err, p)
		}
		res, d := Run(p, nil)
		if d != nil {
			t.Fatal(d.Error())
		}
		bus := obs.NewBus(0)
		agg := obs.NewAggregator()
		bus.Attach(agg)
		obsRes, d := Run(p, bus)
		if d != nil {
			t.Fatalf("observed replay diverged: %s", d.Error())
		}
		if !reflect.DeepEqual(res, obsRes) {
			t.Fatalf("attaching the observability bus changed the figures:\nunobserved %+v\nobserved   %+v", res, obsRes)
		}
		if bus.Emitted() == 0 || len(agg.Timeline()) == 0 {
			t.Fatalf("observed replay emitted no events (emitted=%d)", bus.Emitted())
		}
	})
}

// FuzzFaultedRecovery mutates a persisted NVM image — fault-injected power
// cut, then fuzzer-directed bit flips and word deletions on top — and
// asserts the salvage-or-refuse contract: recovery either restores an image
// byte-equal to a golden-verified epoch or returns a typed error with a
// non-empty report. It must never hand back a silently wrong image.
func FuzzFaultedRecovery(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(200), uint64(0), uint64(0), uint8(0))
	f.Add(int64(2), uint8(1), uint16(350), uint64(3), uint64(1<<43), uint8(9))
	f.Add(int64(3), uint8(2), uint16(500), uint64(7), uint64(1<<41), uint8(63))
	f.Add(int64(4), uint8(3), uint16(420), uint64(2), uint64(1<<40), uint8(17))
	f.Add(int64(5), uint8(4), uint16(600), uint64(5), uint64(1<<44), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, class uint8, cut uint16, mutCount, mutAddr uint64, mutBit uint8) {
		classes := append([]string{""}, fault.Classes...)
		p := FaultRegimeParams(classes[int(class)%len(classes)], seed)
		c := 1 + int(cut)%p.Steps
		// The mutator walks the image's persisted words from a fuzzer-chosen
		// offset, alternating bit flips and deletions — torn-looking damage
		// the injector itself did not schedule.
		mutate := func(img *mem.Image) {
			addrs := img.SortedAddrs()
			if len(addrs) == 0 {
				return
			}
			for i := uint64(0); i < mutCount%16; i++ {
				a := addrs[int(mutAddr+i*1021)%len(addrs)]
				if i%2 == 0 {
					img.FlipBit(a, uint(mutBit)+uint(i))
				} else {
					img.Delete(a)
				}
			}
		}
		if _, _, d := nvmCell(p, c, mutate, nil); d != nil {
			t.Fatalf("%v\n  trace: go run ./cmd/nvcheck %s", d, p.FlagString())
		}
	})
}
