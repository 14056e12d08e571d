package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/diffcheck"
	"repro/internal/obs"
)

func TestSweepMode(t *testing.T) {
	o, err := parseFlags([]string{"-traces", "6", "-every", "3", "-seed", "11"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.single {
		t.Fatal("sweep flags triggered single-trace mode")
	}
	var out strings.Builder
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"3/6 traces ok", "6/6 traces ok", "0 divergences in 6 traces"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSingleTraceMode(t *testing.T) {
	args := strings.Fields("-seed 7 -cores 4 -vdcores 2 -steps 900 -lines 64 -share 60 -write 50 -epoch 10 -pattern uniform -omcs 2 -crash 3 -wrap -wrapwidth 5")
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.single {
		t.Fatal("explicit trace flags did not trigger single-trace mode")
	}
	if o.p.Seed != 7 || !o.p.Wrap || o.p.WrapWidth != 5 || !o.p.Walker {
		t.Fatalf("params misparsed: %+v", o.p)
	}
	var out strings.Builder
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("single trace failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"trace ok:", "wrap-flushes=", "0 divergences in 1 trace"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSingleFaultedTrace(t *testing.T) {
	args := strings.Fields("-seed 3 -cores 4 -vdcores 2 -steps 600 -lines 48 -share 30 -write 60 -epoch 12 -pattern uniform -omcs 2 -crash 8 -fault torn")
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.single || o.p.Fault != "torn" {
		t.Fatalf("fault flag misparsed: %+v", o.p)
	}
	var out strings.Builder
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("faulted trace failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"faulted trace ok:", "faults injected", "0 divergences in 1 trace"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestFaultSoakMode drives -sweep over nvm classes end to end: every cell
// must pass and the tally must report zero silent corruptions.
func TestFaultSoakMode(t *testing.T) {
	o, err := parseFlags([]string{"-sweep", "-classes", "nvm:torn,nvm:loss", "-seeds", "2", "-seed", "5"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("nvm sweep failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"crash sweep: 36 cells", "power-loss: 36 states", "0 silent corruptions in 36 salvaged states"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestDiskFaultSoakMode drives -sweep over disk classes end to end: every
// cell must pass in both crash states.
func TestDiskFaultSoakMode(t *testing.T) {
	o, err := parseFlags([]string{"-sweep", "-classes", "disk:crash,disk:fsyncgate", "-seeds", "2", "-cuts", "3", "-seed", "5", "-j", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(context.Background(), o, &out); err != nil {
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
	o, err := parseFlags([]string{"-sweep", "-classes", "disk:crash", "-seeds", "1", "-cuts", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(ctx, o, &out); err == nil || !strings.Contains(err.Error(), "interrupted") {
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

	o, err := parseFlags([]string{"-sweep", "-classes", "nvm:torn", "-seeds", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(ctx, o, &out); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted nvm sweep must error, got %v", err)
	}
	if !strings.Contains(out.String(), "crash sweep: 0 cells") {
		t.Fatalf("partial tally not flushed:\n%s", out.String())
	}

	o, err = parseFlags([]string{"-traces", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(ctx, o, &out); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted sweep must error, got %v", err)
	}
	if !strings.Contains(out.String(), "interrupted: 0/4 traces ok") {
		t.Fatalf("partial tally not flushed:\n%s", out.String())
	}
}

// TestSweepReproducerRoundTrip: the -sweep line a divergence prints parses
// back to exactly the one regime it names.
func TestSweepReproducerRoundTrip(t *testing.T) {
	p := diffcheck.SweepParams{Classes: diffcheck.ParseClasses("disk"), Seeds: []int64{1, 2, 3}, Cuts: 5}
	cmd := p.Reproducer(diffcheck.LayerDisk, "eio", 2)
	o, err := parseFlags(strings.Fields(strings.TrimPrefix(cmd, "go run ./cmd/nvcheck ")), io.Discard)
	if err != nil {
		t.Fatalf("%q: %v", cmd, err)
	}
	want := diffcheck.SweepParams{Classes: []string{"disk:eio"}, Seeds: []int64{2}, Cuts: 5}
	if !o.sweep || !reflect.DeepEqual(o.sp, want) {
		t.Fatalf("%q parsed to sweep=%v %+v, want %+v", cmd, o.sweep, o.sp, want)
	}
}

// TestEventsCapture drives -events end to end for both single-trace modes:
// the captured stream must pass the schema validator, and -validate-events
// must accept the file it just wrote.
func TestEventsCapture(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.jsonl")
	args := strings.Fields("-seed 7 -cores 4 -vdcores 2 -steps 600 -lines 48 -share 40 -write 50 -epoch 10 -pattern uniform -omcs 2 -crash 2")
	o, err := parseFlags(append(args, "-events", plain), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.single {
		t.Fatal("-events did not trigger single-trace mode")
	}
	var out strings.Builder
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("observed trace failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "events: ") {
		t.Fatalf("events line missing:\n%s", out.String())
	}
	data, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateJSONL(bytes.NewReader(data)); err != nil || n == 0 {
		t.Fatalf("captured stream invalid (%d lines): %v", n, err)
	}

	faulted := filepath.Join(dir, "faulted.jsonl")
	fargs := strings.Fields("-seed 3 -cores 4 -vdcores 2 -steps 400 -lines 48 -share 30 -write 60 -epoch 12 -pattern uniform -omcs 2 -crash 3 -fault torn")
	o, err = parseFlags(append(fargs, "-events", faulted), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), o, &out); err != nil {
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

	// -validate-events accepts what -events wrote and rejects garbage.
	o, err = parseFlags([]string{"-validate-events", faulted}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("-validate-events rejected a captured stream: %v", err)
	}
	if !strings.Contains(out.String(), "events ok") {
		t.Fatalf("validation summary missing:\n%s", out.String())
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"seq\":1,\"cycle\":0,\"kind\":\"fault\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err = parseFlags([]string{"-validate-events", bad}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o, io.Discard); err == nil {
		t.Fatal("-validate-events accepted a malformed stream")
	}
}

func TestParseFlagErrors(t *testing.T) {
	if _, err := parseFlags([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, err := parseFlags([]string{"stray"}, io.Discard); err == nil {
		t.Fatal("positional argument accepted")
	}
	// Explicit trace params are validated at parse time in single mode.
	if _, err := parseFlags([]string{"-cores", "4", "-vdcores", "3"}, io.Discard); err == nil {
		t.Fatal("invalid trace params accepted")
	}
	if _, err := parseFlags([]string{"-fault", "melt"}, io.Discard); err == nil {
		t.Fatal("unknown fault class accepted")
	}
	if _, err := parseFlags([]string{"-sweep", "-classes", "nvm:torn,nvm:melt"}, io.Discard); err == nil {
		t.Fatal("unknown nvm sweep class accepted")
	}
	if _, err := parseFlags([]string{"-sweep", "-classes", "disk:eio,disk:melt"}, io.Discard); err == nil {
		t.Fatal("unknown disk sweep class accepted")
	}
	if _, err := parseFlags([]string{"-sweep", "-classes", "torn"}, io.Discard); err == nil {
		t.Fatal("sweep class without a layer accepted")
	}
	if _, err := parseFlags([]string{"-sweep", "-seeds", "0"}, io.Discard); err == nil {
		t.Fatal("zero seeds accepted")
	}
	if _, err := parseFlags([]string{"-sweep", "-cuts=-1"}, io.Discard); err == nil {
		t.Fatal("negative cuts accepted")
	}
	if _, err := parseFlags([]string{"-sweep", "-classes", "nvm", "-cuts", "600"}, io.Discard); err == nil {
		t.Fatal("nvm cuts beyond the trace length accepted")
	}
	if _, err := parseFlags([]string{"-sweep", "-cores", "4"}, io.Discard); err == nil {
		t.Fatal("-sweep combined with single-trace flags accepted")
	}
	if _, err := parseFlags([]string{"-sweep", "-events", "x.jsonl"}, io.Discard); err == nil {
		t.Fatal("-sweep combined with -events accepted")
	}
	if _, err := parseFlags([]string{"-sweep", "-validate-events", "x.jsonl"}, io.Discard); err == nil {
		t.Fatal("-sweep combined with -validate-events accepted")
	}
	if _, err := parseFlags([]string{"-validate-events", "x.jsonl", "-cores", "4"}, io.Discard); err == nil {
		t.Fatal("-validate-events combined with trace flags accepted")
	}
	if _, err := parseFlags([]string{"-replay", "x.trc", "-cores", "4"}, io.Discard); err == nil {
		t.Fatal("-replay combined with trace flags accepted")
	}
	if _, err := parseFlags([]string{"-replay", "x.trc", "-record", "y.trc"}, io.Discard); err == nil {
		t.Fatal("-replay combined with -record accepted")
	}
	if _, err := parseFlags([]string{"-record", "x.trc", "-fault", "torn"}, io.Discard); err == nil {
		t.Fatal("-record combined with a fault regime accepted")
	}
	if _, err := parseFlags([]string{"-record", "x.trc", "-events", "e.jsonl"}, io.Discard); err == nil {
		t.Fatal("-record combined with -events accepted")
	}
}

// TestRecordReplayModes drives the full CLI loop: record a single trace to
// a file, verify the recording run cross-checks file vs memory, then
// replay the same file standalone.
func TestRecordReplayModes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.trc")
	args := strings.Fields("-seed 7 -cores 4 -vdcores 2 -steps 900 -lines 64 -share 60 -write 50 -epoch 10 -pattern uniform -omcs 2 -crash 3")
	o, err := parseFlags(append(args, "-record", path), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.single {
		t.Fatal("-record did not imply single-trace mode")
	}
	var out strings.Builder
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("record run failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"recorded 900 accesses", "trace ok:", "file replay matches the in-memory run"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("record output missing %q:\n%s", want, out.String())
		}
	}

	ro, err := parseFlags([]string{"-replay", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var rout strings.Builder
	if err := run(context.Background(), ro, &rout); err != nil {
		t.Fatalf("replay run failed: %v\n%s", err, rout.String())
	}
	for _, want := range []string{"replaying " + path, "-seed 7", "trace ok:", "0 divergences in 1 replayed trace"} {
		if !strings.Contains(rout.String(), want) {
			t.Fatalf("replay output missing %q:\n%s", want, rout.String())
		}
	}

	// A missing file fails loudly.
	bad, err := parseFlags([]string{"-replay", filepath.Join(t.TempDir(), "nope.trc")}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), bad, io.Discard); err == nil {
		t.Fatal("missing trace file replayed cleanly")
	}
}
