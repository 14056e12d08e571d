// Command nvrecover walks through NVOverlay's snapshot usage models
// (paper §V-E) end to end: it runs a workload over the full stack, then
// demonstrates crash recovery with verification against the golden memory
// image, time-travel reads over an address's version history, and remote
// replication to a backup machine.
//
// Usage:
//
//	nvrecover -workload btree -accesses 300000
//
// With -store it instead cold-opens a file-backed durable store directory
// (written by a -store run of nvsim/nvcheck, possibly killed mid-write)
// in this fresh process, salvages it, and prints the report:
//
//	nvrecover -store /path/to/store
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// options is the parsed command line.
type options struct {
	wlName   string
	accesses uint64
	epoch    int
	seed     int64
	archive  string
	store    string
}

// parseFlags decodes the command line without touching the process-global
// flag set, so tests can drive it directly.
func parseFlags(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("nvrecover", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := options{}
	fs.StringVar(&o.wlName, "workload", "btree", "workload: "+strings.Join(workload.Names(), ", "))
	fs.Uint64Var(&o.accesses, "accesses", 300_000, "access budget")
	fs.IntVar(&o.epoch, "epoch", 4_000, "epoch size (stores)")
	fs.Int64Var(&o.seed, "seed", 42, "workload PRNG seed")
	fs.StringVar(&o.archive, "archive", "", "export the snapshot archive to this file")
	fs.StringVar(&o.store, "store", "", "cold-salvage this file-backed store directory instead of running a workload")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	return o, nil
}

// runStore is the cold-salvage path: open a file-backed store directory
// written by another (possibly killed) process, replay manifest →
// checkpoint → delta logs, run salvage-or-refuse over the image, and
// print the machine-readable report. The exit error carries the typed
// refusal when nothing could be proven.
func runStore(o options, w io.Writer) error {
	fmt.Fprintf(w, "cold-opening store %s...\n", o.store)
	out, rep, err := store.SalvageDir(fault.OS, o.store)
	if rep != nil {
		if js, jerr := rep.JSON(); jerr == nil {
			fmt.Fprintf(w, "%s\n", js)
		} else {
			fmt.Fprintf(w, "salvage report unprintable: %v\n", jerr)
		}
	}
	if err != nil {
		return fmt.Errorf("salvage refused: %w", err)
	}
	verdict := "restored"
	if rep.WalkedBack {
		verdict = "walked back and restored"
	}
	fmt.Fprintf(w, "%s epoch %d: %d lines (store manifest claimed epoch %d, %d file findings)\n",
		verdict, rep.RestoredEpoch, out.Len(), rep.StoreSealedEpoch, len(rep.Damage))
	return nil
}

// run executes the full usage-model walkthrough, writing the narrative to w.
func run(o options, w io.Writer) error {
	if o.store != "" {
		return runStore(o, w)
	}
	cfg := sim.DefaultConfig()
	cfg.EpochSize = o.epoch
	cfg.Seed = o.seed
	// Retention keeps merged per-epoch tables so time travel works over
	// the whole history (the debugging usage model).
	cfg.RetainEpochs = true
	if err := cfg.Validate(); err != nil {
		return err
	}
	wl, err := workload.Get(o.wlName)
	if err != nil {
		return err
	}

	nvo := core.New(&cfg)
	nvo.NVM().AttachPlane(mem.NewRAMPlane()) // recovery and time travel read content
	driver := trace.NewDriver(&cfg, nvo, wl, o.accesses)
	golden := trace.NewGolden(&cfg) // the image recovery verifies against
	driver.SetSink(golden)
	fmt.Fprintf(w, "running %s over NVOverlay (%d accesses, epoch %d stores)...\n",
		o.wlName, o.accesses, o.epoch)
	sum := driver.Run()
	final := golden.Final()
	fmt.Fprintf(w, "  done in %d cycles; %d lines written; rec-epoch %d\n\n",
		sum.Cycles, final.Len(), nvo.Group().RecEpoch())

	// --- Crash recovery -----------------------------------------------
	fmt.Fprintln(w, "crash recovery:")
	img, rep := recovery.Recover(nvo.Group())
	fmt.Fprintf(w, "  restored %d lines of epoch %d in %d cycles (%.2f us at 3 GHz)\n",
		rep.LinesRestored, rep.RecEpoch, rep.LatencyCycles,
		float64(rep.LatencyCycles)/3e3)
	if err := recovery.Verify(img, final); err != nil {
		return fmt.Errorf("image verification FAILED: %w", err)
	}
	fmt.Fprintln(w, "  image verified against the golden final memory state")

	// --- Time travel ---------------------------------------------------
	fmt.Fprintln(w, "\ntime-travel debugging:")
	addr := hottestAddr(final, nvo)
	hist := recovery.History(nvo.Group(), addr)
	fmt.Fprintf(w, "  address %#x has %d snapshot versions:\n", addr, len(hist))
	for i, v := range hist {
		if i >= 6 {
			fmt.Fprintf(w, "    ... %d more\n", len(hist)-i)
			break
		}
		fmt.Fprintf(w, "    epoch %4d -> value %d\n", v.Epoch, v.Data)
	}
	if len(hist) >= 2 {
		mid := hist[len(hist)/2].Epoch
		d, e, ok := nvo.Group().TimeTravelRead(addr, mid)
		fmt.Fprintf(w, "  read @epoch %d (fall-through): value %d from epoch %d (ok=%v)\n",
			mid, d, e, ok)
	}

	// --- Remote replication ---------------------------------------------
	fmt.Fprintln(w, "\nremote replication:")
	replica := recovery.NewReplica()
	shipped := recovery.Replicate(nvo.Group(), replica)
	fmt.Fprintf(w, "  shipped %d epoch deltas (%d KB on the wire); replica at epoch %d\n",
		shipped, replica.BytesReceived>>10, replica.AppliedEpoch())
	if err := recovery.Verify(replica.Image(), final); err != nil {
		return fmt.Errorf("replica verification FAILED: %w", err)
	}
	fmt.Fprintln(w, "  replica image verified against the primary")

	// --- Snapshot archive -----------------------------------------------
	if o.archive != "" {
		fmt.Fprintln(w, "\nsnapshot archive:")
		f, err := os.Create(o.archive)
		if err != nil {
			return err
		}
		if err := nvo.Group().Export(f); err != nil {
			_ = f.Close() // the export error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		info, err := os.Stat(o.archive)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %s (%d KB): master image + %d epoch deltas\n",
			o.archive, info.Size()>>10, len(nvo.Group().Epochs()))
		// Round-trip sanity: re-open and compare a time-travel read.
		rf, err := os.Open(o.archive)
		if err != nil {
			return err
		}
		sf, err := omc.Import(rf)
		_ = rf.Close() // read-side close; the Import error decides the outcome
		if err != nil {
			return err
		}
		if len(hist) > 0 {
			probe := hist[len(hist)-1].Epoch
			got, _ := sf.ReadAt(addr, probe)
			want, _, _ := nvo.Group().TimeTravelRead(addr, probe)
			if got != want {
				return fmt.Errorf("archive read mismatch: %d vs %d", got, want)
			}
			fmt.Fprintf(w, "  archive round-trip verified (addr %#x @epoch %d = %d)\n",
				addr, probe, got)
		}
	}
	return nil
}

// hottestAddr picks the address with the most snapshot versions, which
// makes for an interesting time-travel demonstration. The candidate sample
// is taken from the sorted address list, so the same run always
// demonstrates the same address.
func hottestAddr(final *mem.Table[uint64], nvo *core.NVOverlay) uint64 {
	addrs := final.SortedKeys()
	if len(addrs) > 256 {
		addrs = addrs[:256]
	}
	type cand struct {
		addr uint64
		n    int
	}
	var cands []cand
	for _, addr := range addrs {
		cands = append(cands, cand{addr, len(recovery.History(nvo.Group(), addr))})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].n != cands[b].n {
			return cands[a].n > cands[b].n
		}
		return cands[a].addr < cands[b].addr
	})
	return cands[0].addr
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvrecover:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nvrecover:", err)
		os.Exit(1)
	}
}
