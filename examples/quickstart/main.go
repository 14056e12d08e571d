// Quickstart: assemble the full NVOverlay stack (CST frontend + MNM
// backend on the Table II machine), run a small multithreaded workload
// through it, and read a persistent snapshot back.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// 1. Configure the machine. DefaultConfig is the paper's Table II;
	//    the epoch size is the snapshot granularity in store uops.
	cfg := sim.DefaultConfig()
	cfg.EpochSize = 2_000
	if err := cfg.Validate(); err != nil {
		panic(err)
	}

	// 2. Assemble NVOverlay: version-tagged hierarchy, tag walkers, and
	//    four OMC partitions, all behind the common Scheme interface.
	nvo := core.New(&cfg)
	nvo.NVM().AttachPlane(mem.NewRAMPlane()) // recovery reads the persisted content

	// 3. Pick a workload — here the paper's hash-table bulk-insert — and
	//    drive it with the 16-thread interleaving driver. The golden sink
	//    keeps the last value stored to each line, to verify against.
	wl, err := workload.Get("hashtable")
	if err != nil {
		panic(err)
	}
	driver := trace.NewDriver(&cfg, nvo, wl, 100_000)
	golden := trace.NewGolden(&cfg)
	driver.SetSink(golden)
	sum := driver.Run()

	fmt.Printf("ran %d accesses (%d stores) in %d cycles\n",
		sum.Accesses, sum.Stores, sum.Cycles)
	fmt.Printf("snapshot traffic: %d KB data, %d KB mapping metadata\n",
		sum.DataBytes>>10, sum.MetaBytes>>10)
	fmt.Printf("recoverable epoch: %d\n", nvo.Group().RecEpoch())

	// 4. Read the persistent snapshot back, as a crash-recovery pass
	//    would, and verify it matches the final memory contents.
	img, rep := recovery.Recover(nvo.Group())
	fmt.Printf("recovered %d lines in %d simulated cycles\n",
		rep.LinesRestored, rep.LatencyCycles)
	if err := recovery.Verify(img, golden.Final()); err != nil {
		panic(err)
	}
	fmt.Println("snapshot verified: recovered image == final memory state")

	// 5. The persistent Master Table is the snapshot index; its footprint
	//    relative to the write working set is the paper's Fig 13 metric.
	ws := nvo.Group().WorkingSetBytes()
	fmt.Printf("master table: %d KB for a %d KB working set (%.1f%%)\n",
		nvo.Group().MasterBytes()>>10, ws>>10,
		100*float64(nvo.Group().MasterBytes())/float64(ws))
}
