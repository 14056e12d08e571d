// Command nvcheck runs the differential verification harness outside the
// test suite: long sweeps over the regime rotation, the crash-consistency
// sweep over its (layer, class, seed, cut) grid, or a single fully
// specified trace (the mode every trace divergence reproducer uses). Exit
// status is non-zero when anything diverges from the golden model, and
// sweeps flush their partial tallies before exiting when interrupted.
//
//	nvcheck -traces 5000 -seed 1               # soak: 5000 traces over the rotation
//	nvcheck -seed 17 -cores 4 -steps 1400      # single trace, explicit parameters
//	nvcheck -sweep -seeds 4                    # crash sweep: every nvm and disk class x seeds x cuts
//	nvcheck -sweep -classes nvm:torn,disk:eio  # crash sweep over chosen classes
//	nvcheck -seed 3 -fault torn -crash 8       # single faulted trace (reproducer mode)
//	nvcheck -seed 17 -events ev.jsonl          # single trace + its JSONL event stream
//	nvcheck -validate-events ev.jsonl          # schema-check a captured stream
//
// A diverging sweep cell prints the one-line -sweep command that reruns
// its (class, seed) regime and archives its salvage report under -reports
// for CI artifact upload.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"syscall"
	"time"

	"repro/internal/diffcheck"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/recovery"
)

// options is the parsed command line.
type options struct {
	traces   int
	seed     int64
	every    int
	jobs     int              // sweep workers; output is identical for every value
	single   bool             // an explicit per-trace flag switches to single-trace mode
	p        diffcheck.Params // single-trace parameters
	events   string           // capture the single trace's JSONL event stream here
	timeline bool             // print the single trace's per-epoch rollup timeline
	vevents  string           // standalone mode: schema-check this JSONL file and exit
	record   string           // record the single trace to this TRC1 file, then cross-check the file replay
	replay   string           // standalone mode: replay a recorded TRC1 trace file

	sweep   bool                  // crash-consistency sweep mode
	sp      diffcheck.SweepParams // the sweep's grid
	reports string                // where diverging cells' salvage reports are archived

	cpuProfile string // write a CPU profile here
	memProfile string // write a heap profile here at exit
	traceOut   string // write a runtime execution trace here
}

// traceFlags are the per-trace parameter flags; setting any of them runs
// one explicit trace instead of the regime sweep.
var traceFlags = map[string]bool{
	"cores": true, "vdcores": true, "steps": true, "lines": true,
	"share": true, "write": true, "epoch": true, "pattern": true,
	"omcs": true, "crash": true, "nowalker": true, "buffer": true,
	"wrap": true, "wrapwidth": true, "fault": true,
}

// parseFlags decodes the command line without touching the process-global
// flag set, so tests can drive it directly.
func parseFlags(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("nvcheck", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := options{}
	fs.IntVar(&o.traces, "traces", 600, "traces to sweep across the regime rotation")
	fs.Int64Var(&o.seed, "seed", 1, "base seed (sweeps) or trace seed (single mode)")
	fs.IntVar(&o.every, "every", 100, "print progress every N traces")
	fs.IntVar(&o.jobs, "j", 0, "sweep workers; verdicts and output are identical for every value (0: GOMAXPROCS, 1: serial)")
	fs.BoolVar(&o.sweep, "sweep", false, "crash-consistency sweep: fault classes x seeds x crash cuts, every salvaged state diffed against the golden model")
	classes := fs.String("classes", "nvm,disk", "sweep fault classes: nvm:<class> or disk:<class>, or a bare layer for all of its classes")
	seeds := fs.Int("seeds", 4, "seeds per sweep class, counting up from -seed")
	fs.IntVar(&o.sp.Cuts, "cuts", 8, "crash cuts per (class, seed) sweep regime")
	fs.StringVar(&o.reports, "reports", "crash-reports", "directory for the salvage reports of diverging sweep cells")
	fs.StringVar(&o.events, "events", "", "write the single trace's JSONL event stream to this file (implies single-trace mode)")
	fs.BoolVar(&o.timeline, "timeline", false, "print the single trace's per-epoch rollup timeline (implies single-trace mode)")
	fs.StringVar(&o.vevents, "validate-events", "", "schema-check a captured JSONL event stream and exit")
	fs.StringVar(&o.record, "record", "", "record the single trace to this TRC1 file, then verify the file replay matches the in-memory run (implies single-trace mode)")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded TRC1 trace file through the differential harness (standalone mode)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file (taken at exit)")
	fs.StringVar(&o.traceOut, "trace", "", "write a runtime execution trace to this file")

	base := diffcheck.RegimeParams(0, 0)
	fs.IntVar(&o.p.Cores, "cores", base.Cores, "cores (single-trace mode)")
	fs.IntVar(&o.p.CoresPerVD, "vdcores", base.CoresPerVD, "cores per versioned domain")
	fs.IntVar(&o.p.Steps, "steps", base.Steps, "trace length in accesses")
	fs.IntVar(&o.p.Lines, "lines", base.Lines, "working-set lines per region")
	fs.IntVar(&o.p.SharePct, "share", base.SharePct, "percent of accesses to the shared region")
	fs.IntVar(&o.p.WritePct, "write", base.WritePct, "percent of accesses that are stores")
	fs.IntVar(&o.p.EpochSize, "epoch", base.EpochSize, "stores per epoch")
	fs.StringVar(&o.p.Pattern, "pattern", base.Pattern, "access pattern: uniform, hotspot or stride")
	fs.IntVar(&o.p.OMCs, "omcs", base.OMCs, "OMC address partitions")
	fs.IntVar(&o.p.CrashPoints, "crash", base.CrashPoints, "swept mid-run crash probes")
	nowalker := fs.Bool("nowalker", false, "disable the tag walker")
	fs.BoolVar(&o.p.Buffered, "buffer", false, "enable the battery-backed OMC buffer")
	fs.BoolVar(&o.p.Wrap, "wrap", false, "enable the epoch wrap-around protocol")
	wrapWidth := fs.Uint("wrapwidth", 5, "epoch wire width in bits (with -wrap)")
	fs.StringVar(&o.p.Fault, "fault", "", "fault class for a single faulted trace (torn, flip, loss, nak, all)")

	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("nvcheck: unexpected arguments %v", fs.Args())
	}
	fs.Visit(func(f *flag.Flag) {
		if traceFlags[f.Name] {
			o.single = true
		}
	})
	if o.events != "" || o.timeline {
		o.single = true
	}
	if o.record != "" {
		o.single = true
		if o.events != "" || o.timeline {
			return options{}, fmt.Errorf("nvcheck: -record runs the trace twice (memory + file) and cannot also capture events; drop -events/-timeline")
		}
	}
	if o.replay != "" && (o.sweep || o.single || o.vevents != "") {
		return options{}, fmt.Errorf("nvcheck: -replay is a standalone mode (the trace file supplies all parameters)")
	}
	if o.sweep && (o.single || o.vevents != "") {
		return options{}, fmt.Errorf("nvcheck: -sweep is a standalone mode")
	}
	if o.vevents != "" && o.single {
		return options{}, fmt.Errorf("nvcheck: -validate-events is a standalone mode")
	}
	o.p.Seed = o.seed
	o.p.Walker = !*nowalker
	o.p.WrapWidth = uint(*wrapWidth)
	if o.single {
		if err := o.p.Validate(); err != nil {
			return options{}, err
		}
	}
	if o.record != "" && o.p.Fault != "" {
		return options{}, fmt.Errorf("nvcheck: -record cannot capture a fault regime (the fault schedule is not part of the access stream)")
	}
	if o.sweep {
		if *seeds <= 0 {
			return options{}, fmt.Errorf("nvcheck: -seeds must be positive, got %d", *seeds)
		}
		o.sp.Classes = diffcheck.ParseClasses(*classes)
		for i := 0; i < *seeds; i++ {
			o.sp.Seeds = append(o.sp.Seeds, o.seed+int64(i))
		}
		if err := o.sp.Validate(); err != nil {
			return options{}, err
		}
	}
	return o, nil
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

// runRecord records the single trace as a TRC1 file, runs the trace both
// in memory and from the recording, and requires the two runs to agree
// exactly — the CLI form of the record → replay → diffcheck cross-check.
func runRecord(o options, w io.Writer, start time.Time) error {
	info, err := diffcheck.RecordTrace(fault.OS, o.record, o.p)
	if err != nil {
		return fmt.Errorf("nvcheck: recording %s: %w", o.record, err)
	}
	fmt.Fprintf(w, "recorded %d accesses in %d chunks (%d bytes) to %s\n",
		info.Records, info.Chunks, info.Bytes, o.record)
	res, d := diffcheck.Run(o.p, nil)
	if d != nil {
		fmt.Fprintln(w, d.Error())
		return fmt.Errorf("1 divergence")
	}
	fres, fd, err := diffcheck.RunFile(fault.OS, o.record, nil)
	if err != nil {
		return fmt.Errorf("nvcheck: replaying %s: %w", o.record, err)
	}
	if fd != nil {
		fmt.Fprintln(w, fd.Error())
		return fmt.Errorf("1 divergence (file replay)")
	}
	if !reflect.DeepEqual(res, fres) {
		return fmt.Errorf("nvcheck: file replay of %s does not match the in-memory run:\n  memory %+v\n  file   %+v", o.record, res, fres)
	}
	fmt.Fprintf(w, "%s\n", traceOkLine(res))
	fmt.Fprintf(w, "file replay matches the in-memory run; 0 divergences in 2 runs (%v)\n",
		time.Since(start).Round(time.Millisecond))
	return nil
}

// runReplay replays a recorded trace file through the full differential
// harness; every parameter comes from the file's checksummed header.
func runReplay(o options, w io.Writer, start time.Time) error {
	p, err := diffcheck.ReadParams(fault.OS, o.replay)
	if err != nil {
		return fmt.Errorf("nvcheck: reading %s: %w", o.replay, err)
	}
	fmt.Fprintf(w, "replaying %s: %s\n", o.replay, p.FlagString())
	res, d, err := diffcheck.RunFile(fault.OS, o.replay, nil)
	if err != nil {
		return fmt.Errorf("nvcheck: replaying %s: %w", o.replay, err)
	}
	if d != nil {
		fmt.Fprintln(w, d.Error())
		return fmt.Errorf("1 divergence")
	}
	fmt.Fprintf(w, "%s\n", traceOkLine(res))
	fmt.Fprintf(w, "0 divergences in 1 replayed trace (%v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// run executes the requested sweep or single trace, reporting to w. A
// divergence is printed in full (with its reproducer) and returned as an
// error so main can exit non-zero; an interrupted soak flushes its partial
// tally first.
func run(ctx context.Context, o options, w io.Writer) error {
	start := time.Now()
	if o.vevents != "" {
		return validateEvents(o.vevents, w)
	}
	if o.replay != "" {
		return runReplay(o, w, start)
	}
	if o.sweep {
		return runSweep(ctx, o, w)
	}
	if o.single {
		// The bus only exists when -events or -timeline asked for it; nil
		// keeps the replay on the unobserved fast path.
		var bus *obs.Bus
		var agg *obs.Aggregator
		var evbuf bytes.Buffer
		if o.events != "" || o.timeline {
			bus = obs.NewBus(0)
			if o.timeline {
				agg = obs.NewAggregator()
				bus.Attach(agg)
			}
			if o.events != "" {
				bus.Attach(obs.NewJSONLSink(&evbuf, ""))
			}
		}
		report := func() error {
			if o.timeline {
				cell := experiments.TimelineCell{Scheme: "NVOverlay", Workload: "diffcheck",
					Emitted: bus.Emitted(), Rolls: agg.Timeline(),
					BankDepth: agg.BankDepth, WalkSpan: agg.WalkSpan}
				experiments.PrintTimeline(w, []experiments.TimelineCell{cell})
			}
			if o.events == "" {
				return nil
			}
			if err := os.WriteFile(o.events, evbuf.Bytes(), 0o644); err != nil {
				return fmt.Errorf("writing event stream: %w", err)
			}
			fmt.Fprintf(w, "events: %d written to %s\n", bus.Emitted(), o.events)
			return nil
		}
		if o.p.Fault != "" {
			sp := diffcheck.SweepParams{Classes: []string{diffcheck.LayerNVM + ":" + o.p.Fault},
				Seeds: []int64{o.p.Seed}, Cuts: o.p.CrashPoints, Trace: o.p}
			res, err := diffcheck.RunSweep(ctx, sp, o.jobs, bus)
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
			if err := report(); err != nil {
				return err
			}
			fmt.Fprintf(w, "0 divergences in 1 trace (%v)\n", time.Since(start).Round(time.Millisecond))
			return nil
		}
		if o.record != "" {
			return runRecord(o, w, start)
		}
		res, d := diffcheck.Run(o.p, bus)
		if d != nil {
			fmt.Fprintln(w, d.Error())
			return fmt.Errorf("1 divergence")
		}
		fmt.Fprintf(w, "%s\n", traceOkLine(res))
		if err := report(); err != nil {
			return err
		}
		fmt.Fprintf(w, "0 divergences in 1 trace (%v)\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
	// Regime soak: traces fan over -j workers. Verdicts are consumed in
	// trace order, so tallies, progress lines and — on failure — which
	// trace is blamed first all match the serial sweep exactly.
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

// validateEvents schema-checks a captured JSONL event stream: known kinds,
// fixed field order, per-cell sequence numbers gapless from zero. A stream
// that fails validation returns a non-nil error so main exits non-zero.
func validateEvents(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read side: validation already decided
	n, err := obs.ValidateJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: %d events ok\n", path, n)
	return nil
}

// withProfiles runs f under the requested profilers, making sure they are
// stopped and written before the exit status is decided.
func withProfiles(o options, f func() error) error {
	if o.cpuProfile != "" {
		pf, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := pf.Close(); err != nil { // a lost close is a truncated profile
				fmt.Fprintln(os.Stderr, "nvcheck: cpuprofile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		tf, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		defer func() {
			rtrace.Stop()
			if err := tf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "nvcheck: trace:", err)
			}
		}()
		if err := rtrace.Start(tf); err != nil {
			return err
		}
	}
	if o.memProfile != "" {
		defer func() {
			mf, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nvcheck: memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "nvcheck: memprofile:", err)
			}
			if err := mf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "nvcheck: memprofile:", err)
			}
		}()
	}
	return f()
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := withProfiles(o, func() error { return run(ctx, o, os.Stdout) }); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
