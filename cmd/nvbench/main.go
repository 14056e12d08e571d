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
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/hostprof"
	"repro/internal/parallel"
	"repro/internal/store"
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
	exp      string
	scale    string
	wlCSV    string
	coresCSV string
	seed     int64
	faults   string
	timing   bool
	jobs     int
	jsonOut  string
	events   string
	prof     hostprof.Flags
}

// parseFlags decodes the command line without touching the process-global
// flag set, so tests can drive it directly.
func parseFlags(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("nvbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := options{}
	var names []string
	for _, f := range experiments.Figures {
		names = append(names, f.Name)
	}
	fs.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(names, ", ")+", timeline, fileplane, scale256, all")
	fs.StringVar(&o.scale, "scale", "quick", "run scale: smoke, quick, full")
	fs.StringVar(&o.wlCSV, "workloads", "", "comma-separated workload subset (default: the paper's twelve; scale256 defaults to oltp,social)")
	fs.StringVar(&o.coresCSV, "cores", "", "comma-separated core counts for scale256 (default: 64,128,256)")
	fs.Int64Var(&o.seed, "seed", 0, "workload PRNG seed (0: the config default); every run is a pure function of it")
	fs.StringVar(&o.faults, "faults", "", "NVM fault-injection class for NVOverlay runs (torn, flip, loss, nak, all); the fault schedule derives from -seed and replays byte-identically")
	fs.BoolVar(&o.timing, "time", true, "print wall-clock duration per experiment")
	fs.IntVar(&o.jobs, "j", 0, "sweep workers; output is byte-identical for every value (0: GOMAXPROCS, 1: serial)")
	fs.StringVar(&o.jsonOut, "json", "", "write machine-readable results (figures + wall-clock + accesses/sec) to this file")
	fs.StringVar(&o.events, "events", "", "write the timeline experiment's JSONL event stream to this file (with -exp timeline)")
	o.prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.events != "" && o.exp != "timeline" {
		return options{}, fmt.Errorf("-events needs -exp timeline, got -exp %s", o.exp)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvbench:", err)
		os.Exit(2)
	}
	if err := o.prof.Run(func() error { return run(o, os.Stdout) }); err != nil {
		fmt.Fprintln(os.Stderr, "nvbench:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	sc, err := experiments.ScaleByName(o.scale)
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

	// timeline, scale256 and fileplane run only by name.
	extras := []experiments.Figure{
		{Name: "timeline", Run: func(sc experiments.Scale, wls []string, out io.Writer) (any, error) {
			if wls == nil {
				wls = workload.Names()
			}
			cells, err := experiments.Timeline(sc, wls, o.events != "")
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
		{Name: "scale256", Run: func(sc experiments.Scale, wls []string, out io.Writer) (any, error) {
			pts, err := experiments.Scale256(sc, coreCounts, wls)
			if err != nil {
				return nil, err
			}
			experiments.PrintScale256(out, pts)
			return pts, nil
		}},
		{Name: "fileplane", Run: func(sc experiments.Scale, _ []string, out io.Writer) (any, error) {
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
			st, err := store.FilePlaneProfile(fault.OS,
				filepath.Join(dir, "store"), epochs, perEpoch, store.DefaultCheckpointEvery, seed)
			if err != nil {
				return nil, err
			}
			store.PrintFilePlane(out, st)
			return st, nil
		}},
	}
	exps := experiments.Figures
	if o.exp != "all" {
		exps = slices.DeleteFunc(append(slices.Clone(exps), extras...),
			func(f experiments.Figure) bool { return f.Name != o.exp })
		if len(exps) == 0 {
			return fmt.Errorf("unknown experiment %q", o.exp)
		}
	}
	for _, f := range exps {
		t0 := time.Now()
		a0 := experiments.AccessesRun()
		result, err := f.Run(sc, wls, out)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		secs := time.Since(t0).Seconds()
		if o.timing {
			fmt.Fprintf(out, "[%s took %.1fs]\n", f.Name, secs)
		}
		fmt.Fprintln(out)
		rec := expRecord{Name: f.Name, Seconds: secs,
			Accesses: experiments.AccessesRun() - a0, Result: result}
		rec.AccessesPerSec = rate(rec.Accesses, secs)
		rep.Experiments = append(rep.Experiments, rec)
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
