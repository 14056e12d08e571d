// Command nvcheck runs the differential verification harness outside the
// test suite. Each subcommand takes only the flags it reads:
//
//	nvcheck soak -traces 5000 -seed 1          # 5000 traces over the regime rotation
//	nvcheck diff -seed 17 -cores 4 -steps 1400 # one explicit trace (every trace reproducer)
//	nvcheck diff -seed 3 -fault torn -crash 8  # one faulted trace
//	nvcheck diff -seed 17 -events ev.jsonl     # one trace + its JSONL event stream
//	nvcheck sweep -seeds 4                     # crash sweep: every nvm and disk class x seeds x cuts
//	nvcheck sweep -classes nvm:torn,disk:eio   # crash sweep over chosen classes
//	nvcheck record -seed 17 trace.trc          # record one trace, check its file replay
//	nvcheck replay trace.trc                   # replay a recorded trace
//	nvcheck validate ev.jsonl                  # schema-check a captured event stream
//
// Exit status is 1 when anything diverges from the golden model and 2 on
// a usage error; soak and sweep flush their partial tallies before exiting
// when interrupted. A diverging sweep cell prints the one-line command
// that reruns its (class, seed) regime and archives its salvage report
// under -reports for CI artifact upload.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"time"

	"repro/internal/diffcheck"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/hostprof"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/recovery"
)

// command is one nvcheck subcommand.
type command struct {
	name    string
	arg     string // the one positional argument it takes, "" for none
	summary string
	// flags registers the subcommand's flags on fs and returns the check
	// that completes o once fs has parsed.
	flags func(fs *flag.FlagSet, o *options) func() error
	// run executes the subcommand, reporting to w. A divergence is printed
	// in full (with its reproducer) and returned as an error so main exits
	// non-zero.
	run func(ctx context.Context, o options, w io.Writer) error
}

var commands = []*command{
	{name: "soak", summary: "run the differential harness over the regime rotation",
		flags: func(fs *flag.FlagSet, o *options) func() error {
			fs.IntVar(&o.traces, "traces", 600, "traces to run across the regime rotation")
			fs.IntVar(&o.every, "every", 100, "print progress every N traces")
			fs.Int64Var(&o.seed, "seed", 1, "base seed")
			jobsFlag(fs, o)
			o.prof.Register(fs)
			return func() error {
				if o.traces < 1 {
					return fmt.Errorf("nvcheck: -traces must be positive, got %d", o.traces)
				}
				return nil
			}
		},
		run: runSoak},
	{name: "diff", summary: "run one explicit trace (every trace reproducer uses this)",
		flags: func(fs *flag.FlagSet, o *options) func() error {
			check := addTraceFlags(fs, &o.p, true)
			fs.StringVar(&o.events, "events", "", "write the trace's JSONL event stream to this file")
			fs.BoolVar(&o.timeline, "timeline", false, "print the trace's per-epoch rollup timeline")
			jobsFlag(fs, o)
			o.prof.Register(fs)
			return check
		},
		run: runDiff},
	{name: "sweep", summary: "run the crash-consistency sweep over (class, seed, cut)",
		flags: func(fs *flag.FlagSet, o *options) func() error {
			classes := fs.String("classes", "nvm,disk", "fault classes: nvm:<class> or disk:<class>, or a bare layer for all of its classes")
			seed := fs.Int64("seed", 1, "first seed of every class")
			seeds := fs.Int("seeds", 4, "seeds per class, counting up from -seed")
			fs.IntVar(&o.sp.Cuts, "cuts", 8, "crash cuts per (class, seed) regime")
			fs.StringVar(&o.reports, "reports", "crash-reports", "directory for the salvage reports of diverging cells")
			jobsFlag(fs, o)
			o.prof.Register(fs)
			return func() error {
				if *seeds <= 0 {
					return fmt.Errorf("nvcheck: -seeds must be positive, got %d", *seeds)
				}
				o.sp.Classes = diffcheck.ParseClasses(*classes)
				for i := 0; i < *seeds; i++ {
					o.sp.Seeds = append(o.sp.Seeds, *seed+int64(i))
				}
				return o.sp.Validate()
			}
		},
		run: runSweep},
	{name: "record", arg: "<file.trc>", summary: "record one trace, then check its file replay against the in-memory run",
		flags: func(fs *flag.FlagSet, o *options) func() error {
			check := addTraceFlags(fs, &o.p, false)
			o.prof.Register(fs)
			return check
		},
		run: runRecord},
	{name: "replay", arg: "<file.trc>", summary: "replay a recorded trace; the file supplies every parameter",
		flags: func(fs *flag.FlagSet, o *options) func() error {
			o.prof.Register(fs)
			return nil
		},
		run: runReplay},
	{name: "validate", arg: "<events.jsonl>", summary: "schema-check a captured JSONL event stream",
		flags: func(*flag.FlagSet, *options) func() error { return nil },
		run:   runValidate},
}

// options is the parsed command line.
type options struct {
	cmd  *command
	file string // the positional argument of record, replay and validate
	seed int64  // soak's base seed
	jobs int    // workers; verdicts and output are identical for every value
	prof hostprof.Flags

	traces, every int // soak

	p        diffcheck.Params // diff and record: the trace
	events   string           // diff: write the trace's JSONL event stream here
	timeline bool             // diff: print the trace's per-epoch rollup timeline

	sp      diffcheck.SweepParams // sweep: the grid
	reports string                // sweep: where diverging cells' salvage reports go
}

// jobsFlag registers -j.
func jobsFlag(fs *flag.FlagSet, o *options) {
	fs.IntVar(&o.jobs, "j", 0, "workers; verdicts and output are identical for every value (0: GOMAXPROCS, 1: serial)")
}

// addTraceFlags registers the trace parameter flags on fs, -fault only when
// faults is set, and returns the check that completes and validates p.
func addTraceFlags(fs *flag.FlagSet, p *diffcheck.Params, faults bool) func() error {
	base := diffcheck.RegimeParams(0, 0)
	fs.Int64Var(&p.Seed, "seed", 1, "trace seed")
	fs.IntVar(&p.Cores, "cores", base.Cores, "cores")
	fs.IntVar(&p.CoresPerVD, "vdcores", base.CoresPerVD, "cores per versioned domain")
	fs.IntVar(&p.Steps, "steps", base.Steps, "trace length in accesses")
	fs.IntVar(&p.Lines, "lines", base.Lines, "working-set lines per region")
	fs.IntVar(&p.SharePct, "share", base.SharePct, "percent of accesses to the shared region")
	fs.IntVar(&p.WritePct, "write", base.WritePct, "percent of accesses that are stores")
	fs.IntVar(&p.EpochSize, "epoch", base.EpochSize, "stores per epoch")
	fs.StringVar(&p.Pattern, "pattern", base.Pattern, "access pattern: uniform, hotspot or stride")
	fs.IntVar(&p.OMCs, "omcs", base.OMCs, "OMC address partitions")
	fs.IntVar(&p.CrashPoints, "crash", base.CrashPoints, "swept mid-run crash probes")
	nowalker := fs.Bool("nowalker", false, "disable the tag walker")
	fs.BoolVar(&p.Buffered, "buffer", false, "enable the battery-backed OMC buffer")
	fs.UintVar(&p.WrapWidth, "wrapwidth", 0, "epoch wire width in bits of the wrap-around protocol, 4-16 (0: off)")
	if faults {
		fs.StringVar(&p.Fault, "fault", "", "NVM fault class (torn, flip, loss, nak, all); -crash sets the cuts")
	}
	return func() error {
		p.Walker = !*nowalker
		return p.Validate()
	}
}

// usage lists the subcommands.
func usage() string {
	s := "usage: nvcheck <subcommand> [flags]"
	for _, c := range commands {
		s += fmt.Sprintf("\n  %-24s %s", strings.TrimSpace(c.name+" "+c.arg), c.summary)
	}
	return s
}

// parseFlags decodes the command line without touching the process-global
// flag set, so tests can drive it directly.
func parseFlags(args []string, errOut io.Writer) (options, error) {
	if len(args) == 0 {
		return options{}, fmt.Errorf("nvcheck: missing subcommand\n%s", usage())
	}
	o := options{}
	for _, c := range commands {
		if c.name == args[0] {
			o.cmd = c
		}
	}
	if o.cmd == nil {
		return options{}, fmt.Errorf("nvcheck: unknown subcommand %q\n%s", args[0], usage())
	}
	fs := flag.NewFlagSet("nvcheck "+o.cmd.name, flag.ContinueOnError)
	fs.SetOutput(errOut)
	check := o.cmd.flags(fs, &o)
	if err := fs.Parse(args[1:]); err != nil {
		return options{}, err
	}
	switch {
	case o.cmd.arg == "" && fs.NArg() > 0:
		return options{}, fmt.Errorf("nvcheck %s: unexpected arguments %v", o.cmd.name, fs.Args())
	case o.cmd.arg != "" && fs.NArg() != 1:
		return options{}, fmt.Errorf("nvcheck %s: want one %s argument after the flags, got %v", o.cmd.name, o.cmd.arg, fs.Args())
	case o.cmd.arg != "":
		o.file = fs.Arg(0)
	}
	if check != nil {
		if err := check(); err != nil {
			return options{}, err
		}
	}
	return o, nil
}

// runSoak fans the regime rotation over -j workers. Verdicts are consumed
// in trace order, so tallies, progress lines and — on failure — which
// trace is blamed first all match the serial run exactly. An interrupted
// soak flushes its partial tally first.
func runSoak(ctx context.Context, o options, w io.Writer) error {
	start := time.Now()
	var boundary, crash int
	type cell struct {
		res diffcheck.Result
		d   *diffcheck.Divergence
	}
	var ferr error
	parallel.ForEachOrdered(o.jobs, o.traces, func(i int) cell {
		res, d := diffcheck.Run(diffcheck.RegimeParams(i, o.seed), nil)
		return cell{res, d}
	}, func(i int, c cell) bool {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(w, "interrupted: %d/%d traces ok (%d boundary + %d crash verifies, %v)\n",
				i, o.traces, boundary, crash, time.Since(start).Round(time.Millisecond))
			ferr = fmt.Errorf("interrupted after %d traces: %w", i, err)
			return false
		}
		if c.d != nil {
			fmt.Fprintln(w, c.d.Error())
			fmt.Fprintf(w, "interrupted: %d/%d traces ok (%d boundary + %d crash verifies, %v)\n",
				i, o.traces, boundary, crash, time.Since(start).Round(time.Millisecond))
			ferr = fmt.Errorf("divergence at trace %d of %d", i+1, o.traces)
			return false
		}
		boundary += c.res.BoundaryVerifies
		crash += c.res.CrashVerifies
		if o.every > 0 && (i+1)%o.every == 0 {
			fmt.Fprintf(w, "%d/%d traces ok (%d boundary + %d crash verifies, %v)\n",
				i+1, o.traces, boundary, crash, time.Since(start).Round(time.Millisecond))
		}
		return true
	})
	if ferr != nil {
		return ferr
	}
	fmt.Fprintf(w, "0 divergences in %d traces (%d boundary + %d crash verifies, %v)\n",
		o.traces, boundary, crash, time.Since(start).Round(time.Millisecond))
	return nil
}

// runDiff runs one explicit trace, faulted when -fault names a class.
func runDiff(ctx context.Context, o options, w io.Writer) error {
	start := time.Now()
	// The observer only exists when -events or -timeline asked for it;
	// a nil bus keeps the replay on the unobserved fast path.
	var ob *experiments.Observer
	if o.events != "" || o.timeline {
		ob = experiments.NewObserver("", o.events != "")
	}
	if o.p.Fault != "" {
		sp := diffcheck.SweepParams{Classes: []string{diffcheck.LayerNVM + ":" + o.p.Fault},
			Seeds: []int64{o.p.Seed}, Cuts: o.p.CrashPoints, Trace: o.p}
		res, err := diffcheck.RunSweep(ctx, sp, o.jobs, ob.Bus())
		var d *diffcheck.SweepDivergence
		if errors.As(err, &d) {
			fmt.Fprintln(w, d.Error())
			return fmt.Errorf("1 divergence")
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "faulted trace ok: %d cells (%d restored, %d walked back, %d refused), %d faults injected\n",
			res.Cells, res.PowerLoss.Restored, res.PowerLoss.WalkedBack, res.PowerLoss.Refused, res.Faults)
	} else {
		res, d := diffcheck.Run(o.p, ob.Bus())
		if d != nil {
			fmt.Fprintln(w, d.Error())
			return fmt.Errorf("1 divergence")
		}
		fmt.Fprintf(w, "%s\n", traceOkLine(res))
	}
	if ob != nil {
		cell := ob.Cell("NVOverlay", "diffcheck")
		if o.timeline {
			experiments.PrintTimeline(w, []experiments.TimelineCell{cell})
		}
		if o.events != "" {
			if err := os.WriteFile(o.events, cell.Events, 0o644); err != nil {
				return fmt.Errorf("writing event stream: %w", err)
			}
			fmt.Fprintf(w, "events: %d written to %s\n", cell.Emitted, o.events)
		}
	}
	fmt.Fprintf(w, "0 divergences in 1 trace (%v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runSweep executes the crash-consistency sweep. The tally is flushed even
// when a cell diverges or the run is interrupted, and both paths return an
// error so main exits non-zero; a diverging cell also prints its
// reproducer and archives its salvage report under -reports.
func runSweep(ctx context.Context, o options, w io.Writer) error {
	start := time.Now()
	res, err := diffcheck.RunSweep(ctx, o.sp, o.jobs, nil)
	var d *diffcheck.SweepDivergence
	if errors.As(err, &d) {
		fmt.Fprintln(w, d.Error())
		archiveReport(o.reports, res.Cells, d.Report)
	}
	fmt.Fprintf(w, "crash sweep: %d cells, %d faults injected, %d wounded planes (%v)\n",
		res.Cells, res.Faults, res.Wounded, time.Since(start).Round(time.Millisecond))
	for _, s := range []struct {
		state string
		t     diffcheck.Tally
	}{{diffcheck.StatePowerLoss, res.PowerLoss}, {diffcheck.StateProcessDeath, res.ProcessDeath}} {
		if s.t.States > 0 {
			fmt.Fprintf(w, "  %s: %d states, %d restored, %d walked back, %d refused\n",
				s.state, s.t.States, s.t.Restored, s.t.WalkedBack, s.t.Refused)
		}
	}
	switch {
	case d != nil:
		return fmt.Errorf("sweep cell %s:%s seed=%d cut=%d diverged", d.Cell.Layer, d.Cell.Class, d.Cell.Seed, d.Cell.Cut)
	case err != nil && ctx.Err() != nil:
		return fmt.Errorf("interrupted after %d cells: %w", res.Cells, err)
	case err != nil:
		return err
	}
	fmt.Fprintf(w, "0 silent corruptions in %d salvaged states\n", res.PowerLoss.States+res.ProcessDeath.States)
	return nil
}

// archiveReport writes a diverging cell's salvage report under the reports
// directory so CI can upload it as an artifact.
func archiveReport(dir string, cell int, rep *recovery.SalvageReport) {
	if rep == nil {
		return
	}
	js, err := rep.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvcheck: report json:", err)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "nvcheck: reports dir:", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("salvage-cell-%05d.json", cell))
	if err := os.WriteFile(path, js, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "nvcheck: writing report:", err)
	}
}

// traceOkLine renders the standard per-trace verdict line.
func traceOkLine(res diffcheck.Result) string {
	return fmt.Sprintf("trace ok: epochs=%d rec-epoch=%d boundary-verifies=%d crash-verifies=%d wrap-flushes=%d lines=%d baselines=%v",
		res.MaxEpoch, res.RecEpoch, res.BoundaryVerifies, res.CrashVerifies,
		res.WrapFlushes, res.Lines, res.Baselines)
}

// runRecord records the trace as a TRC1 file, runs the trace both in
// memory and from the recording, and requires the two runs to agree
// exactly — the CLI form of the record → replay → diffcheck cross-check.
func runRecord(_ context.Context, o options, w io.Writer) error {
	start := time.Now()
	info, err := diffcheck.RecordTrace(fault.OS, o.file, o.p)
	if err != nil {
		return fmt.Errorf("nvcheck: recording %s: %w", o.file, err)
	}
	fmt.Fprintf(w, "recorded %d accesses in %d chunks (%d bytes) to %s\n",
		info.Records, info.Chunks, info.Bytes, o.file)
	res, d := diffcheck.Run(o.p, nil)
	if d != nil {
		fmt.Fprintln(w, d.Error())
		return fmt.Errorf("1 divergence")
	}
	fres, fd, err := diffcheck.RunFile(fault.OS, o.file, nil)
	if err != nil {
		return fmt.Errorf("nvcheck: replaying %s: %w", o.file, err)
	}
	if fd != nil {
		fmt.Fprintln(w, fd.Error())
		return fmt.Errorf("1 divergence (file replay)")
	}
	if !reflect.DeepEqual(res, fres) {
		return fmt.Errorf("nvcheck: file replay of %s does not match the in-memory run:\n  memory %+v\n  file   %+v", o.file, res, fres)
	}
	fmt.Fprintf(w, "%s\n", traceOkLine(res))
	fmt.Fprintf(w, "file replay matches the in-memory run; 0 divergences in 2 runs (%v)\n",
		time.Since(start).Round(time.Millisecond))
	return nil
}

// runReplay replays a recorded trace file through the full differential
// harness; every parameter comes from the file's checksummed header.
func runReplay(_ context.Context, o options, w io.Writer) error {
	start := time.Now()
	p, err := diffcheck.ReadParams(fault.OS, o.file)
	if err != nil {
		return fmt.Errorf("nvcheck: reading %s: %w", o.file, err)
	}
	fmt.Fprintf(w, "replaying %s: %s\n", o.file, p.FlagString())
	res, d, err := diffcheck.RunFile(fault.OS, o.file, nil)
	if err != nil {
		return fmt.Errorf("nvcheck: replaying %s: %w", o.file, err)
	}
	if d != nil {
		fmt.Fprintln(w, d.Error())
		return fmt.Errorf("1 divergence")
	}
	fmt.Fprintf(w, "%s\n", traceOkLine(res))
	fmt.Fprintf(w, "0 divergences in 1 replayed trace (%v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runValidate schema-checks a captured JSONL event stream: known kinds,
// fixed field order, per-cell sequence numbers gapless from zero. A stream
// that fails validation returns a non-nil error so main exits non-zero.
func runValidate(_ context.Context, o options, w io.Writer) error {
	f, err := os.Open(o.file)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read side: validation already decided
	n, err := obs.ValidateJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", o.file, err)
	}
	fmt.Fprintf(w, "%s: %d events ok\n", o.file, n)
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := o.prof.Run(func() error { return o.cmd.run(ctx, o, os.Stdout) }); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
