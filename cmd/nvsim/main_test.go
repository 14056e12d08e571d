package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/recovery"
)

// TestSmokeRun drives the full experiment path at smoke scale and checks
// the key summary lines appear.
func TestSmokeRun(t *testing.T) {
	o, err := parseFlags([]string{"-scale", "smoke", "-scheme", "NVOverlay", "-workload", "btree"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"scheme    NVOverlay",
		"workload  btree",
		"cycles    ",
		"accesses  ",
		"footprint ",
		"nvm bytes ",
		"write amp ",
		"nvm wear  ",
		"bandwidth ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestStatsDump checks -stats appends the counter dump.
func TestStatsDump(t *testing.T) {
	o, err := parseFlags([]string{"-scale", "smoke", "-scheme", "PiCL", "-stats", "-accesses", "20000"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "scheme    PiCL") {
		t.Errorf("output missing PiCL summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "counters:") {
		t.Errorf("-stats did not dump counters:\n%s", out.String())
	}
}

// TestBufferWritesLessData checks -buffer reaches the OMC: the same run
// with the LLC-sized write-back buffer must persist strictly fewer data
// bytes, because the buffer absorbs same-epoch rewrites of a line.
func TestBufferWritesLessData(t *testing.T) {
	dataBytes := func(args ...string) int64 {
		o, err := parseFlags(append([]string{"-scale", "smoke", "-scheme", "NVOverlay"}, args...), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run(o, &out); err != nil {
			t.Fatalf("run failed: %v\n%s", err, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			var total, data int64
			if _, err := fmt.Sscanf(line, "nvm bytes %d (data %d,", &total, &data); err == nil {
				return data
			}
		}
		t.Fatalf("no nvm bytes line in:\n%s", out.String())
		return 0
	}
	plain, buffered := dataBytes(), dataBytes("-buffer")
	if buffered >= plain {
		t.Fatalf("-buffer wrote %d data bytes, without it %d: want strictly fewer", buffered, plain)
	}
}

// TestErrors checks parse- and run-time failure modes surface as errors
// rather than exits, so main can map them to status codes.
func TestErrors(t *testing.T) {
	if _, err := parseFlags([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, err := parseFlags([]string{"stray"}, io.Discard); err == nil {
		t.Error("positional argument accepted")
	}
	o, err := parseFlags([]string{"-scale", "nope"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Errorf("bad scale: got %v, want unknown scale error", err)
	}
	o, err = parseFlags([]string{"-scale", "smoke", "-scheme", "NoSuchScheme"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err == nil {
		t.Error("unknown scheme accepted")
	}
	o, err = parseFlags([]string{"-scale", "smoke", "-workload", "nope"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestStoreRun runs -store at smoke scale: the summary names the store,
// and the directory it leaves cold-salvages (what nvrecover -store does) to
// a committed epoch.
func TestStoreRun(t *testing.T) {
	dir := t.TempDir()
	o, err := parseFlags([]string{"-scale", "smoke", "-store", dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	if want := "store     " + dir + " (salvage with: nvrecover -store " + dir + ")"; !strings.Contains(out.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, out.String())
	}
	img, rep, err := recovery.SalvageDir(fault.OS, dir)
	if err != nil {
		t.Fatalf("salvage refused: %v", err)
	}
	if rep.RestoredEpoch == 0 || img.Len() == 0 {
		t.Fatalf("salvage restored epoch %d with %d lines", rep.RestoredEpoch, img.Len())
	}
}

// timelineBlock cuts the rendered timeline block (header line through the
// walk-span line) out of a CLI's output.
func timelineBlock(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "== timeline ")
	if i < 0 {
		t.Fatalf("no timeline block in:\n%s", out)
	}
	j := strings.Index(out[i:], "  walk span:")
	if j < 0 {
		t.Fatalf("timeline block has no walk-span line:\n%s", out[i:])
	}
	end := i + j + strings.IndexByte(out[i+j:], '\n') + 1
	return out[i:end]
}

// TestObservedRun drives -events and -timeline together: the event file
// passes the schema validator with as many lines as the summary says were
// written, and the timeline block renders with per-epoch rows.
func TestObservedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	o, err := parseFlags([]string{"-scale", "smoke", "-events", path, "-timeline"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateJSONL(bytes.NewReader(data))
	if err != nil || n == 0 {
		t.Fatalf("event file invalid (%d lines): %v", n, err)
	}
	if want := fmt.Sprintf("events    %d written to %s", n, path); !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q:\n%s", want, out.String())
	}
	block := timelineBlock(t, out.String())
	if want := fmt.Sprintf("== timeline NVOverlay/btree (%d events) ==", n); !strings.HasPrefix(block, want) {
		t.Errorf("timeline header is not %q:\n%s", want, block)
	}
	if rows := strings.Count(block, "\n") - 4; rows < 1 {
		t.Errorf("timeline block has no epoch rows:\n%s", block)
	}
}

// TestTimelineMatchesExperiments observes the same (NVOverlay, btree,
// smoke) run through nvsim and through experiments.Timeline: both must
// count the same events and render the same timeline block.
func TestTimelineMatchesExperiments(t *testing.T) {
	o, err := parseFlags([]string{"-scale", "smoke", "-timeline"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	cells, err := experiments.Timeline(experiments.Smoke, []string{"btree"}, false)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	experiments.PrintTimeline(&want, cells)
	if got := timelineBlock(t, out.String()); got != want.String() {
		t.Fatalf("nvsim timeline differs from experiments.Timeline (%d events):\n-- nvsim --\n%s-- experiments --\n%s",
			cells[0].Emitted, got, want.String())
	}
}
