// Replication demonstrates the fine-grained backup/replication usage
// model (paper §I usage model 3, §V-E "Remote Replication"): the primary
// machine captures frequent snapshots with NVOverlay; per-epoch deltas are
// shipped to a remote replica, which replays them as redo logs. The
// replica converges to the primary's recoverable state, and incremental
// shipping moves far fewer bytes than full-image copies would.
//
//	go run ./examples/replication
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
	cfg.EpochSize = 2_000
	cfg.RetainEpochs = true // the primary ships every merged epoch's delta
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nvo := core.New(&cfg)
	nvo.NVM().AttachPlane(mem.NewRAMPlane()) // replication reads the persisted content
	wl, err := workload.Get("vacation")
	if err != nil {
		panic(err)
	}
	driver := trace.NewDriver(&cfg, nvo, wl, 150_000)
	golden := trace.NewGolden(&cfg)
	driver.SetSink(golden)
	sum := driver.Run()
	fmt.Printf("primary ran %d stores across %d snapshot epochs\n",
		sum.Stores, len(nvo.Group().Epochs()))

	// Ship every epoch delta to the replica and replay to the primary's
	// recoverable epoch.
	replica := recovery.NewReplica()
	shipped := recovery.Replicate(nvo.Group(), replica)
	fmt.Printf("shipped %d deltas, %d KB total on the wire\n",
		shipped, replica.BytesReceived>>10)
	fmt.Printf("replica converged to epoch %d\n", replica.AppliedEpoch())

	if err := recovery.Verify(replica.Image(), golden.Final()); err != nil {
		panic(fmt.Errorf("replica diverged: %w", err))
	}
	fmt.Println("replica image verified against the primary")

	// Incremental epochs beat full-image shipping: compare the delta bytes
	// to what shipping the whole working set every epoch would have cost.
	fullPerEpoch := int64(golden.Final().Len()) * 64
	epochs := int64(shipped)
	fmt.Printf("\nincremental: %d KB vs naive full-image: %d KB (%.1fx saved)\n",
		replica.BytesReceived>>10, fullPerEpoch*epochs>>10,
		float64(fullPerEpoch*epochs)/float64(replica.BytesReceived))
}
