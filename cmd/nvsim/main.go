// Command nvsim runs one (workload, scheme) pair through the simulator and
// prints the run summary and counter dump. It is the single-experiment
// companion to cmd/nvbench.
//
// Usage:
//
//	nvsim -scheme NVOverlay -workload btree -scale quick
//	nvsim -scheme PiCL -workload art -accesses 500000 -epoch 5000 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// options is the parsed command line.
type options struct {
	scheme   string
	wl       string
	scale    string
	accesses uint64
	epoch    int
	walker   bool
	buffer   bool
	seed     int64
	stats    bool
	events   string
	timeline bool
	store    string
}

// parseFlags decodes the command line without touching the process-global
// flag set, so tests can drive it directly.
func parseFlags(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("nvsim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := options{}
	fs.StringVar(&o.scheme, "scheme", "NVOverlay", "scheme: Ideal, SWLog, SWShadow, HWShadow, PiCL, PiCL-L2, NVOverlay")
	fs.StringVar(&o.wl, "workload", "btree", "workload: "+strings.Join(workload.Names(), ", "))
	fs.StringVar(&o.scale, "scale", "quick", "run scale: smoke, quick, full")
	fs.Uint64Var(&o.accesses, "accesses", 0, "override the scale's access budget")
	fs.IntVar(&o.epoch, "epoch", 0, "override the scale's epoch size (stores)")
	fs.BoolVar(&o.walker, "walker", true, "enable the tag walker")
	fs.BoolVar(&o.buffer, "buffer", false, "enable the OMC buffer (NVOverlay)")
	fs.Int64Var(&o.seed, "seed", 42, "workload PRNG seed")
	fs.BoolVar(&o.stats, "stats", false, "dump all counters")
	fs.StringVar(&o.events, "events", "", "write the run's JSONL event stream to this file")
	fs.BoolVar(&o.timeline, "timeline", false, "print the per-epoch rollup timeline")
	fs.StringVar(&o.store, "store", "", "back the NVM content plane with a file store in this fresh directory (salvage later with nvrecover -store)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	return o, nil
}

// run executes one experiment and writes the summary to w.
func run(o options, w io.Writer) error {
	sc, err := experiments.ScaleByName(o.scale)
	if err != nil {
		return err
	}
	if o.accesses > 0 {
		sc.MaxAccesses = o.accesses
	}
	// The observer only exists when a consumer asked for it, so
	// unobserved runs keep the nil-bus fast path.
	var ob *experiments.Observer
	if o.events != "" || o.timeline {
		ob = experiments.NewObserver("", o.events != "")
	}
	mod := func(c *sim.Config) {
		if o.epoch > 0 {
			c.EpochSize = o.epoch
		}
		c.TagWalker = o.walker
		if o.buffer {
			c.OMCBufferBytes = c.LLCSize
		}
		c.Seed = o.seed
		c.Obs = ob.Bus()
	}
	var res experiments.RunResult
	if o.store == "" {
		res, err = experiments.Run(o.scheme, o.wl, sc, mod)
	} else {
		res, err = store.Run(o.scheme, o.wl, sc, mod, o.store)
	}
	if err != nil {
		return err
	}
	if o.store != "" {
		fmt.Fprintf(w, "store     %s (salvage with: nvrecover -store %s)\n", o.store, o.store)
	}

	s := res.Sum
	fmt.Fprintf(w, "scheme    %s\n", s.Scheme)
	fmt.Fprintf(w, "workload  %s\n", s.Workload)
	fmt.Fprintf(w, "cycles    %d\n", s.Cycles)
	fmt.Fprintf(w, "accesses  %d (%d stores, %d ops)\n", s.Accesses, s.Stores, s.Ops)
	fmt.Fprintf(w, "footprint %.2f MB\n", float64(s.Footprint)/(1<<20))
	fmt.Fprintf(w, "nvm bytes %d (data %d, log %d, meta %d, context %d)\n",
		s.NVMBytes, s.DataBytes, s.LogBytes, s.MetaBytes, s.CtxBytes)
	if s.Stores > 0 {
		fmt.Fprintf(w, "write amp %.2f NVM bytes per stored byte (store = 8 B)\n",
			float64(s.NVMBytes)/float64(s.Stores*8))
	}
	nvm := res.Scheme.NVM()
	fmt.Fprintf(w, "nvm wear  max %d writes/page over %d pages\n", nvm.MaxWear(), nvm.PagesTouched())
	fmt.Fprintf(w, "bandwidth %s\n", nvm.Series().Sparkline())
	if o.stats {
		fmt.Fprintln(w, "\ncounters:")
		fmt.Fprint(w, res.Scheme.Stats().Dump("  "))
	}
	if ob == nil {
		return nil
	}
	cell := ob.Cell(o.scheme, o.wl)
	if o.timeline {
		experiments.PrintTimeline(w, []experiments.TimelineCell{cell})
	}
	if o.events != "" {
		if err := os.WriteFile(o.events, cell.Events, 0o644); err != nil {
			return fmt.Errorf("writing event stream: %w", err)
		}
		fmt.Fprintf(w, "events    %d written to %s\n", cell.Emitted, o.events)
	}
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvsim:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nvsim:", err)
		os.Exit(1)
	}
}
