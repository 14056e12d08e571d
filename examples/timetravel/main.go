// Timetravel demonstrates the record-and-replay debugging usage model
// (paper §I usage model 1, §V-E "Debugging/Time-Travel Reads"): the
// program runs with coarse epochs, then a suspicious region is bracketed
// with tiny "watch-point" epochs (the paper's Fig 17b burst scenario), and
// afterwards the developer inspects an address's fine-grained history.
//
//	go run ./examples/timetravel
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
	cfg := sim.DefaultConfig()
	cfg.EpochSize = 4_000
	// Watch points: around the middle of the run the developer switches to
	// very fine epochs, capturing a dense burst of snapshots.
	cfg.Bursts = []sim.Burst{
		{From: 4_000, To: 6_000, Size: 50},
	}
	// Retention keeps every merged epoch table addressable, so any epoch
	// in the burst can be read back later.
	cfg.RetainEpochs = true
	if err := cfg.Validate(); err != nil {
		panic(err)
	}

	nvo := core.New(&cfg)
	nvo.NVM().AttachPlane(mem.NewRAMPlane()) // time-travel reads need the persisted content
	wl, err := workload.Get("rbtree")
	if err != nil {
		panic(err)
	}
	driver := trace.NewDriver(&cfg, nvo, wl, 120_000)
	golden := trace.NewGolden(&cfg)
	driver.SetSink(golden)
	sum := driver.Run()

	epochs := nvo.Group().Epochs()
	fmt.Printf("run complete: %d stores, %d snapshot epochs captured\n",
		sum.Stores, len(epochs))

	// Find the address with the densest history — a heavily-updated tree
	// node — and walk its versions.
	var addr uint64
	best := 0
	probed := 0
	for _, a := range golden.Final().SortedKeys() {
		if n := len(recovery.History(nvo.Group(), a)); n > best {
			best, addr = n, a
		}
		if probed++; probed >= 512 {
			break
		}
	}
	hist := recovery.History(nvo.Group(), addr)
	fmt.Printf("\naddress %#x changed in %d captured epochs:\n", addr, len(hist))
	for i, v := range hist {
		if i >= 10 {
			fmt.Printf("  ... %d more versions\n", len(hist)-i)
			break
		}
		fmt.Printf("  epoch %5d: value %d\n", v.Epoch, v.Data)
	}

	// Fall-through reads: an epoch where the address was NOT written
	// resolves to the newest version at or before it (§V-E).
	if len(hist) >= 2 {
		probe := hist[1].Epoch + 1
		d, e, ok := nvo.Group().TimeTravelRead(addr, probe)
		fmt.Printf("\nread @epoch %d falls through to epoch %d (value %d, ok=%v)\n",
			probe, e, d, ok)
	}

	// The burst region produced many more epochs per store than the
	// surrounding steady state — that is the watch-point effect.
	fmt.Printf("\nepoch count %d for %d stores (steady-state epochs would be ~%d)\n",
		len(epochs), sum.Stores, int(sum.Stores)/cfg.EpochSize)
}
