// Command nvbench regenerates the paper's evaluation: every figure of
// section VII plus the extra ablations DESIGN.md calls out, printed as the
// same rows/series the paper reports.
//
// Usage:
//
//	nvbench -exp all -scale quick
//	nvbench -exp fig12 -workloads btree,art,kmeans
//	nvbench -exp fig17b
//	nvbench -exp all -j 8 -json results.json
//	nvbench -exp timeline -workloads btree -events events.jsonl
//	nvbench -exp fig11 -cpuprofile cpu.out -memprofile mem.out
//
// Every figure fans its independent simulation cells across -j workers and
// merges the results in canonical cell order, so the output is
// byte-identical for every -j value (see internal/parallel).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// report is the machine-readable envelope written by -json. Committed
// baselines (BENCH_baseline.json) are instances of this shape.
type report struct {
	Tool         string      `json:"tool"`
	Scale        string      `json:"scale"`
	Jobs         int         `json:"jobs"`
	Seed         int64       `json:"seed"`
	FaultClass   string      `json:"fault_class,omitempty"`
	Host         hostInfo    `json:"host"`
	Experiments  []expRecord `json:"experiments"`
	TotalSeconds float64     `json:"total_seconds"`
}

// hostInfo records where the numbers were taken: wall-clock figures only
// compare meaningfully against the same core count.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// expRecord is one experiment's metrics: its figure output plus the
// wall-clock cost of regenerating it. AccessesPerSec is a pointer so a run
// too fast for the clock to resolve (secs == 0) omits the field instead of
// emitting Inf/NaN, which encoding/json refuses to marshal — that failure
// mode used to kill the whole -json report.
type expRecord struct {
	Name           string   `json:"name"`
	Seconds        float64  `json:"seconds"`
	Accesses       uint64   `json:"accesses"`
	AccessesPerSec *float64 `json:"accesses_per_sec,omitempty"`
	Result         any      `json:"result"`
}

// rate returns accesses/sec as a JSON-safe optional: nil unless the value
// is finite (secs > 0 and the division did not overflow).
func rate(accesses uint64, secs float64) *float64 {
	if secs <= 0 {
		return nil
	}
	v := float64(accesses) / secs
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// options is the parsed command line.
type options struct {
	exp        string
	scale      string
	wlCSV      string
	coresCSV   string
	seed       int64
	faults     string
	timing     bool
	jobs       int
	jsonOut    string
	events     string
	timeline   bool
	cpuProfile string
	memProfile string
	traceOut   string
}

// parseFlags decodes the command line without touching the process-global
// flag set, so tests can drive it directly.
func parseFlags(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("nvbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := options{}
	fs.StringVar(&o.exp, "exp", "all", "experiment: config, fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig17b, ablate-superblock, ablate-scaling, ablate-walker, timeline, fileplane, scale256, tracefile, all")
	fs.StringVar(&o.scale, "scale", "quick", "run scale: smoke, quick, full")
	fs.StringVar(&o.wlCSV, "workloads", "", "comma-separated workload subset (default: the paper's twelve; scale256 defaults to oltp,social)")
	fs.StringVar(&o.coresCSV, "cores", "", "comma-separated core counts for scale256 (default: 64,128,256)")
	fs.Int64Var(&o.seed, "seed", 0, "workload PRNG seed (0: the config default); every run is a pure function of it")
	fs.StringVar(&o.faults, "faults", "", "NVM fault-injection class for NVOverlay runs (torn, flip, loss, nak, all); the fault schedule derives from -seed and replays byte-identically")
	fs.BoolVar(&o.timing, "time", true, "print wall-clock duration per experiment")
	fs.IntVar(&o.jobs, "j", 0, "sweep workers; output is byte-identical for every value (0: GOMAXPROCS, 1: serial)")
	fs.StringVar(&o.jsonOut, "json", "", "write machine-readable results (figures + wall-clock + accesses/sec) to this file")
	fs.StringVar(&o.events, "events", "", "write the timeline experiment's JSONL event stream to this file (implies the timeline experiment)")
	fs.BoolVar(&o.timeline, "timeline", false, "run the timeline experiment (per-epoch rollups) in addition to -exp")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file (taken at exit)")
	fs.StringVar(&o.traceOut, "trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvbench:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nvbench:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	sc, err := scaleByName(o.scale)
	if err != nil {
		return err
	}
	sc.Seed = o.seed
	sc.FaultClass = o.faults
	sc.Jobs = o.jobs
	var wls []string
	if o.wlCSV != "" {
		wls = strings.Split(o.wlCSV, ",")
		for _, w := range wls {
			if _, err := workload.Get(w); err != nil {
				return err
			}
		}
	}
	var coreCounts []int
	if o.coresCSV != "" {
		for _, s := range strings.Split(o.coresCSV, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -cores value %q", s)
			}
			coreCounts = append(coreCounts, n)
		}
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nvbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "nvbench: memprofile:", err)
			}
		}()
	}

	rep := report{
		Tool:       "nvbench",
		Scale:      sc.Name,
		Jobs:       parallel.Jobs(sc.Jobs),
		Seed:       o.seed,
		FaultClass: o.faults,
		Host: hostInfo{
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
		},
	}
	start := time.Now()

	runExp := func(name string, f func() (any, error)) error {
		t0 := time.Now()
		a0 := experiments.AccessesRun()
		result, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		secs := time.Since(t0).Seconds()
		if o.timing {
			fmt.Fprintf(out, "[%s took %.1fs]\n", name, secs)
		}
		fmt.Fprintln(out)
		rec := expRecord{Name: name, Seconds: secs,
			Accesses: experiments.AccessesRun() - a0, Result: result}
		rec.AccessesPerSec = rate(rec.Accesses, secs)
		rep.Experiments = append(rep.Experiments, rec)
		return nil
	}

	specs := []struct {
		name string
		fn   func() (any, error)
	}{
		{"config", func() (any, error) {
			cfg := sim.DefaultConfig()
			cfg.EpochSize = sc.EpochSize
			if sc.Seed != 0 {
				cfg.Seed = sc.Seed
			}
			if sc.Machine != nil {
				sc.Machine(&cfg)
			}
			experiments.PrintConfig(out, &cfg)
			fmt.Fprintf(out, "  Scale       %s: %d accesses, caches scaled to keep the paper's\n",
				sc.Name, sc.MaxAccesses)
			fmt.Fprintln(out, "              epoch-write-set vs L2/LLC capacity relationships")
			return nil, nil
		}},
		{"fig11", func() (any, error) {
			m, err := experiments.Fig11(sc, wls)
			if err != nil {
				return nil, err
			}
			experiments.PrintMatrix(out, m)
			return m, nil
		}},
		{"fig12", func() (any, error) {
			m, err := experiments.Fig12(sc, wls)
			if err != nil {
				return nil, err
			}
			experiments.PrintMatrix(out, m)
			return m, nil
		}},
		{"fig13", func() (any, error) {
			rows, err := experiments.Fig13(sc, wls)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig13(out, rows)
			return rows, nil
		}},
		{"fig14", func() (any, error) {
			pts, err := experiments.Fig14(sc)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig14(out, pts)
			return pts, nil
		}},
		{"fig15", func() (any, error) {
			rows, err := experiments.Fig15(sc)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig15(out, rows)
			return rows, nil
		}},
		{"fig16", func() (any, error) {
			r, err := experiments.Fig16(sc)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig16(out, r)
			return r, nil
		}},
		{"fig17", func() (any, error) {
			series, err := experiments.Fig17(sc, false)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig17(out, series)
			return fig17JSON(series), nil
		}},
		{"fig17b", func() (any, error) {
			series, err := experiments.Fig17(sc, true)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig17(out, series)
			return fig17JSON(series), nil
		}},
		{"ablate-superblock", func() (any, error) {
			r, err := experiments.AblateSuperBlock(sc)
			if err != nil {
				return nil, err
			}
			experiments.PrintSuperBlock(out, r)
			return r, nil
		}},
		{"ablate-scaling", func() (any, error) {
			pts, err := experiments.AblateScaling(sc)
			if err != nil {
				return nil, err
			}
			experiments.PrintScaling(out, pts)
			return pts, nil
		}},
		{"ablate-walker", func() (any, error) {
			r, err := experiments.AblateWalker(sc)
			if err != nil {
				return nil, err
			}
			experiments.PrintWalker(out, r)
			return r, nil
		}},
		{"timeline", func() (any, error) {
			tw := wls
			if tw == nil {
				tw = workload.Names()
			}
			cells, err := experiments.Timeline(sc, tw, o.events != "")
			if err != nil {
				return nil, err
			}
			experiments.PrintTimeline(out, cells)
			if o.events != "" {
				stream := experiments.ConcatEvents(cells)
				if err := os.WriteFile(o.events, stream, 0o644); err != nil {
					return nil, fmt.Errorf("writing event stream: %w", err)
				}
				fmt.Fprintf(out, "wrote event stream to %s\n", o.events)
			}
			return cells, nil
		}},
		{"scale256", func() (any, error) {
			pts, err := experiments.Scale256(sc, coreCounts, wls)
			if err != nil {
				return nil, err
			}
			experiments.PrintScale256(out, pts)
			return pts, nil
		}},
		{"fileplane", func() (any, error) {
			dir, err := os.MkdirTemp("", "nvbench-fileplane-*")
			if err != nil {
				return nil, err
			}
			defer func() {
				if rerr := os.RemoveAll(dir); rerr != nil {
					fmt.Fprintln(os.Stderr, "nvbench: fileplane cleanup:", rerr)
				}
			}()
			seed := o.seed
			if seed == 0 {
				seed = 42
			}
			epochs, perEpoch := 24, 1024
			if sc.Name == "smoke" {
				epochs, perEpoch = 8, 256
			}
			st, err := experiments.FilePlaneProfile(fault.OS,
				filepath.Join(dir, "store"), epochs, perEpoch, mem.DefaultCheckpointEvery, seed)
			if err != nil {
				return nil, err
			}
			experiments.PrintFilePlane(out, st)
			return st, nil
		}},
		{"tracefile", func() (any, error) {
			dir, err := os.MkdirTemp("", "nvbench-tracefile-*")
			if err != nil {
				return nil, err
			}
			defer func() {
				if rerr := os.RemoveAll(dir); rerr != nil {
					fmt.Fprintln(os.Stderr, "nvbench: tracefile cleanup:", rerr)
				}
			}()
			seed := o.seed
			if seed == 0 {
				seed = 42
			}
			records := uint64(4_000_000)
			switch sc.Name {
			case "smoke":
				records = 250_000
			case "full":
				records = 16_000_000
			}
			t0 := time.Now()
			clock := func() float64 { return time.Since(t0).Seconds() }
			st, err := experiments.TraceFileProfile(
				fault.OS, filepath.Join(dir, "profile.trc"), records, seed, clock)
			if err != nil {
				return nil, err
			}
			experiments.PrintTraceFile(out, st)
			return st, nil
		}},
	}

	// The timeline, fileplane, scale256 and tracefile experiments only run
	// when asked for — by name (or, for timeline, by -timeline / implicitly
	// by -events) — so "all" keeps regenerating exactly the paper's figures.
	wantTimeline := o.timeline || o.events != ""
	all := o.exp == "all"
	matched := false
	for _, spec := range specs {
		sel := spec.name == o.exp
		switch spec.name {
		case "timeline":
			sel = sel || wantTimeline
		case "fileplane", "scale256", "tracefile":
			// explicit selection only
		default:
			sel = sel || all
		}
		if !sel {
			continue
		}
		matched = true
		if err := runExp(spec.name, spec.fn); err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", o.exp)
	}

	if o.jsonOut != "" {
		rep.TotalSeconds = time.Since(start).Seconds()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", o.jsonOut)
	}
	return nil
}

// fig17Curve is the JSON shape of one Fig 17 bandwidth series (the
// TimeSeries type itself keeps its buckets unexported).
type fig17Curve struct {
	Scheme       string    `json:"scheme"`
	Bursty       bool      `json:"bursty"`
	BandwidthGBs []float64 `json:"bandwidth_gbs"`
}

func fig17JSON(series []experiments.Fig17Series) []fig17Curve {
	out := make([]fig17Curve, 0, len(series))
	for _, s := range series {
		c := fig17Curve{Scheme: s.Scheme, Bursty: s.Bursty}
		for i := 0; i < s.Series.Len(); i++ {
			c.BandwidthGBs = append(c.BandwidthGBs, s.Series.BandwidthGBs(i, s.Hz))
		}
		out = append(out, c)
	}
	return out
}

func scaleByName(name string) (experiments.Scale, error) {
	switch name {
	case "smoke":
		return experiments.Smoke, nil
	case "quick":
		return experiments.Quick, nil
	case "full":
		return experiments.Full, nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q (smoke, quick, full)", name)
	}
}
