package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/diffcheck"
	"repro/internal/obs"
)

// TestSweepMode drives soak end to end: progress every -every traces,
// then the final tally.
func TestSweepMode(t *testing.T) {
	o, err := parseFlags([]string{"soak", "-traces", "6", "-every", "3", "-seed", "11"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := o.cmd.run(context.Background(), o, &out); err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"3/6 traces ok", "6/6 traces ok", "0 divergences in 6 traces"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSingleTraceMode drives diff over one fully specified trace.
func TestSingleTraceMode(t *testing.T) {
	args := strings.Fields("diff -seed 7 -cores 4 -vdcores 2 -steps 900 -lines 64 -share 60 -write 50 -epoch 10 -pattern uniform -omcs 2 -crash 3 -wrapwidth 5")
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.p.Seed != 7 || o.p.WrapWidth != 5 || !o.p.Walker {
		t.Fatalf("params misparsed: %+v", o.p)
	}
	var out strings.Builder
	if err := o.cmd.run(context.Background(), o, &out); err != nil {
		t.Fatalf("single trace failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"trace ok:", "wrap-flushes=", "0 divergences in 1 trace"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSingleFaultedTrace(t *testing.T) {
	args := strings.Fields("diff -seed 3 -cores 4 -vdcores 2 -steps 600 -lines 48 -share 30 -write 60 -epoch 12 -pattern uniform -omcs 2 -crash 8 -fault torn")
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.p.Fault != "torn" {
		t.Fatalf("fault flag misparsed: %+v", o.p)
	}
	var out strings.Builder
	if err := o.cmd.run(context.Background(), o, &out); err != nil {
		t.Fatalf("faulted trace failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"faulted trace ok:", "faults injected", "0 divergences in 1 trace"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestFaultSoakMode drives sweep over nvm classes end to end: every cell
// must pass and the tally must report zero silent corruptions.
func TestFaultSoakMode(t *testing.T) {
	o, err := parseFlags([]string{"sweep", "-classes", "nvm:torn,nvm:loss", "-seeds", "2", "-seed", "5"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := o.cmd.run(context.Background(), o, &out); err != nil {
		t.Fatalf("nvm sweep failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"crash sweep: 36 cells", "power-loss: 36 states", "0 silent corruptions in 36 salvaged states"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestDiskFaultSoakMode drives sweep over disk classes end to end: every
// cell must pass in both crash states.
func TestDiskFaultSoakMode(t *testing.T) {
	o, err := parseFlags([]string{"sweep", "-classes", "disk:crash,disk:fsyncgate", "-seeds", "2", "-cuts", "3", "-seed", "5", "-j", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := o.cmd.run(context.Background(), o, &out); err != nil {
		t.Fatalf("disk sweep failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"crash sweep: 16 cells", "power-loss: 16 states", "process-death: 16 states",
		"0 silent corruptions in 32 salvaged states"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestDiskFaultSoakInterrupt: a cancelled disk sweep flushes its partial
// tally and exits non-zero.
func TestDiskFaultSoakInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o, err := parseFlags([]string{"sweep", "-classes", "disk:crash", "-seeds", "1", "-cuts", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := o.cmd.run(ctx, o, &out); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted disk sweep must error, got %v", err)
	}
	if !strings.Contains(out.String(), "crash sweep: 0 cells") {
		t.Fatalf("partial tally not flushed:\n%s", out.String())
	}
}

// TestInterruptFlushesPartialResults: a cancelled sweep must flush its tally
// so far and exit non-zero rather than vanishing mid-run.
func TestInterruptFlushesPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // interrupt before the first cell

	o, err := parseFlags([]string{"sweep", "-classes", "nvm:torn", "-seeds", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := o.cmd.run(ctx, o, &out); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted nvm sweep must error, got %v", err)
	}
	if !strings.Contains(out.String(), "crash sweep: 0 cells") {
		t.Fatalf("partial tally not flushed:\n%s", out.String())
	}

	o, err = parseFlags([]string{"soak", "-traces", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := o.cmd.run(ctx, o, &out); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted sweep must error, got %v", err)
	}
	if !strings.Contains(out.String(), "interrupted: 0/4 traces ok") {
		t.Fatalf("partial tally not flushed:\n%s", out.String())
	}
}

// parseReproducer parses the nvcheck command of the reproduce line in msg.
func parseReproducer(t *testing.T, msg string) options {
	t.Helper()
	_, cmd, ok := strings.Cut(msg, "go run ./cmd/nvcheck ")
	if !ok {
		t.Fatalf("no nvcheck reproducer in %q", msg)
	}
	cmd, _, _ = strings.Cut(cmd, "\n")
	o, err := parseFlags(strings.Fields(cmd), io.Discard)
	if err != nil {
		t.Fatalf("%q: %v", cmd, err)
	}
	return o
}

// TestSweepReproducerRoundTrip: each reproducer diffcheck prints parses
// back to exactly the sweep regime or trace it names.
func TestSweepReproducerRoundTrip(t *testing.T) {
	// A disk sweep cell reruns its (class, seed) regime through sweep.
	p := diffcheck.SweepParams{Classes: diffcheck.ParseClasses("disk"), Seeds: []int64{1, 2, 3}, Cuts: 5}
	o := parseReproducer(t, p.Reproducer(diffcheck.LayerDisk, "eio", 2))
	want := diffcheck.SweepParams{Classes: []string{"disk:eio"}, Seeds: []int64{2}, Cuts: 5}
	if o.cmd.name != "sweep" || !reflect.DeepEqual(o.sp, want) {
		t.Fatalf("disk cell parsed to %s %+v, want sweep %+v", o.cmd.name, o.sp, want)
	}

	// A custom-trace nvm cell reruns as one faulted trace through diff.
	tp := diffcheck.SweepParams{Classes: []string{"nvm:torn"}, Seeds: []int64{3}, Cuts: 2, Trace: diffcheck.RegimeParams(0, 3)}
	o = parseReproducer(t, tp.Reproducer(diffcheck.LayerNVM, "torn", 3))
	wantP := tp.Trace
	wantP.Seed, wantP.Fault, wantP.CrashPoints = 3, "torn", 2
	if o.cmd.name != "diff" || !reflect.DeepEqual(o.p, wantP) {
		t.Fatalf("nvm cell parsed to %s %+v, want diff %+v", o.cmd.name, o.p, wantP)
	}

	// A trace divergence reruns through diff, for a wrapped and a plain
	// regime.
	for _, dp := range []diffcheck.Params{diffcheck.RegimeParams(1, 123), diffcheck.RegimeParams(2, 123)} {
		d := &diffcheck.Divergence{Params: dp, Scheme: "NVOverlay", Kind: "crash-image", Step: 812, MinSteps: 97, Detail: "x"}
		o = parseReproducer(t, d.Error())
		if o.cmd.name != "diff" || !reflect.DeepEqual(o.p, dp) {
			t.Fatalf("divergence parsed to %s %+v, want diff %+v", o.cmd.name, o.p, dp)
		}
	}
}

// TestEventsCapture drives diff -events end to end for a plain and a
// faulted trace: the captured stream must pass the schema validator, and
// validate must accept the file it just wrote. The plain trace also runs
// -timeline, whose block must count the events the file holds.
func TestEventsCapture(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.jsonl")
	args := strings.Fields("diff -seed 7 -cores 4 -vdcores 2 -steps 600 -lines 48 -share 40 -write 50 -epoch 10 -pattern uniform -omcs 2 -crash 2 -timeline")
	o, err := parseFlags(append(args, "-events", plain), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := o.cmd.run(context.Background(), o, &out); err != nil {
		t.Fatalf("observed trace failed: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateJSONL(bytes.NewReader(data))
	if err != nil || n == 0 {
		t.Fatalf("captured stream invalid (%d lines): %v", n, err)
	}
	for _, want := range []string{
		fmt.Sprintf("events: %d written to %s", n, plain),
		fmt.Sprintf("== timeline NVOverlay/diffcheck (%d events) ==", n),
		"dirty_lines", "  bank depth: ", "  walk span:  ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	faulted := filepath.Join(dir, "faulted.jsonl")
	fargs := strings.Fields("diff -seed 3 -cores 4 -vdcores 2 -steps 400 -lines 48 -share 30 -write 60 -epoch 12 -pattern uniform -omcs 2 -crash 3 -fault torn")
	o, err = parseFlags(append(fargs, "-events", faulted), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := o.cmd.run(context.Background(), o, &out); err != nil {
		t.Fatalf("observed faulted trace failed: %v\n%s", err, out.String())
	}
	fdata, err := os.ReadFile(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fdata, []byte(`"kind":"fault"`)) ||
		!bytes.Contains(fdata, []byte(`"kind":"salvage"`)) {
		t.Fatal("faulted stream carries no fault/salvage events")
	}

	// validate accepts what -events wrote and rejects garbage.
	o, err = parseFlags([]string{"validate", faulted}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := o.cmd.run(context.Background(), o, &out); err != nil {
		t.Fatalf("validate rejected a captured stream: %v", err)
	}
	if !strings.Contains(out.String(), "events ok") {
		t.Fatalf("validation summary missing:\n%s", out.String())
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"seq\":1,\"cycle\":0,\"kind\":\"fault\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err = parseFlags([]string{"validate", bad}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.cmd.run(context.Background(), o, io.Discard); err == nil {
		t.Fatal("validate accepted a malformed stream")
	}
}

func TestParseFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		what string
	}{
		{nil, "missing subcommand"},
		{[]string{"bogus"}, "unknown subcommand"},
		{[]string{"-traces", "4"}, "old flag spelling without a subcommand"},
		{[]string{"soak", "-bogus"}, "unknown flag"},
		{[]string{"soak", "stray"}, "positional argument"},
		{[]string{"soak", "-traces", "0"}, "zero traces"},
		{[]string{"soak", "-traces=-5"}, "negative traces"},
		{[]string{"diff", "-cores", "4", "-vdcores", "3"}, "invalid trace params"},
		{[]string{"diff", "-fault", "melt"}, "unknown fault class"},
		{[]string{"sweep", "-classes", "nvm:torn,nvm:melt"}, "unknown nvm sweep class"},
		{[]string{"sweep", "-classes", "disk:eio,disk:melt"}, "unknown disk sweep class"},
		{[]string{"sweep", "-classes", "torn"}, "sweep class without a layer"},
		{[]string{"sweep", "-seeds", "0"}, "zero seeds"},
		{[]string{"sweep", "-cuts=-1"}, "negative cuts"},
		{[]string{"sweep", "-classes", "nvm", "-cuts", "600"}, "nvm cuts beyond the trace length"},
		{[]string{"record", "-cores", "4", "-vdcores", "3", "x.trc"}, "invalid record trace params"},
		{[]string{"record"}, "record without a file"},
		// A flag another subcommand owns is unknown here.
		{[]string{"sweep", "-cores", "4"}, "sweep with a trace flag"},
		{[]string{"sweep", "-events", "x.jsonl"}, "sweep with -events"},
		{[]string{"record", "-fault", "torn", "x.trc"}, "record of a fault regime"},
		{[]string{"record", "-events", "e.jsonl", "x.trc"}, "record with -events"},
		{[]string{"replay", "-cores", "4", "x.trc"}, "replay with a trace flag"},
		{[]string{"validate", "-cores", "4", "x.jsonl"}, "validate with a trace flag"},
		{[]string{"replay", "x.trc", "y.trc"}, "replay of two files"},
		{[]string{"validate"}, "validate without a file"},
	} {
		if _, err := parseFlags(tc.args, io.Discard); err == nil {
			t.Errorf("%s accepted: %q", tc.what, tc.args)
		}
	}
}

// TestRecordReplayModes drives the full CLI loop: record a trace to a
// file, verify the recording run cross-checks file vs memory, then replay
// the same file on its own.
func TestRecordReplayModes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.trc")
	args := strings.Fields("record -seed 7 -cores 4 -vdcores 2 -steps 900 -lines 64 -share 60 -write 50 -epoch 10 -pattern uniform -omcs 2 -crash 3")
	o, err := parseFlags(append(args, path), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := o.cmd.run(context.Background(), o, &out); err != nil {
		t.Fatalf("record run failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"recorded 900 accesses", "trace ok:", "file replay matches the in-memory run"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("record output missing %q:\n%s", want, out.String())
		}
	}

	ro, err := parseFlags([]string{"replay", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var rout strings.Builder
	if err := ro.cmd.run(context.Background(), ro, &rout); err != nil {
		t.Fatalf("replay run failed: %v\n%s", err, rout.String())
	}
	for _, want := range []string{"replaying " + path, "-seed 7", "trace ok:", "0 divergences in 1 replayed trace"} {
		if !strings.Contains(rout.String(), want) {
			t.Fatalf("replay output missing %q:\n%s", want, rout.String())
		}
	}

	// A missing file fails loudly.
	bad, err := parseFlags([]string{"replay", filepath.Join(t.TempDir(), "nope.trc")}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.cmd.run(context.Background(), bad, io.Discard); err == nil {
		t.Fatal("missing trace file replayed cleanly")
	}
}
