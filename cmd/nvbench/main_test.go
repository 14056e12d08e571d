package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestRateJSONSafe is the regression test for the -json rate fields: a run
// too fast for the wall clock (secs == 0) used to yield +Inf, which
// encoding/json cannot marshal, killing the whole report.
func TestRateJSONSafe(t *testing.T) {
	cases := []struct {
		name     string
		accesses uint64
		secs     float64
		want     *float64
	}{
		{"zero wall clock", 1_000_000, 0, nil},
		{"negative wall clock", 1_000_000, -1, nil},
		{"denormal wall clock overflows", math.MaxUint64, 5e-324, nil},
		{"normal", 1000, 2, ptr(500)},
		{"zero accesses", 0, 2, ptr(0)},
	}
	for _, tc := range cases {
		got := rate(tc.accesses, tc.secs)
		switch {
		case got == nil && tc.want == nil:
		case got == nil || tc.want == nil:
			t.Errorf("%s: rate(%d, %g) = %v, want %v", tc.name, tc.accesses, tc.secs, got, tc.want)
		case *got != *tc.want:
			t.Errorf("%s: rate(%d, %g) = %g, want %g", tc.name, tc.accesses, tc.secs, *got, *tc.want)
		}
	}
}

func ptr(v float64) *float64 { return &v }

// TestExpRecordMarshalZeroClock marshals a report whose experiment finished
// inside one clock tick and checks the rate field is omitted, not Inf.
func TestExpRecordMarshalZeroClock(t *testing.T) {
	rec := expRecord{Name: "fig11", Seconds: 0, Accesses: 12345}
	rec.AccessesPerSec = rate(rec.Accesses, rec.Seconds)
	data, err := json.Marshal(report{Tool: "nvbench", Experiments: []expRecord{rec}})
	if err != nil {
		t.Fatalf("report with zero wall clock fails to marshal: %v", err)
	}
	if strings.Contains(string(data), "accesses_per_sec") {
		t.Fatalf("zero-clock record should omit accesses_per_sec: %s", data)
	}

	rec.Seconds = 0.5
	rec.AccessesPerSec = rate(rec.Accesses, rec.Seconds)
	data, err = json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"accesses_per_sec":24690`) {
		t.Fatalf("normal record should carry the rate: %s", data)
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-exp", "timeline", "-scale", "smoke", "-j", "3",
		"-events", "ev.jsonl"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.exp != "timeline" || o.scale != "smoke" || o.jobs != 3 || o.events != "ev.jsonl" {
		t.Fatalf("parseFlags mismatch: %+v", o)
	}
	// -events belongs to the timeline experiment alone.
	for _, exp := range []string{"fig12", "all"} {
		if _, err := parseFlags([]string{"-exp", exp, "-events", "ev.jsonl"}, io.Discard); err == nil {
			t.Fatalf("-events accepted with -exp %s", exp)
		}
	}
	if _, err := parseFlags([]string{"stray"}, io.Discard); err == nil {
		t.Fatal("stray positional argument should be rejected")
	}
	if _, err := parseFlags([]string{"-nosuch"}, io.Discard); err == nil {
		t.Fatal("unknown flag should be rejected")
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	if err := run(options{exp: "fig99", scale: "quick"}, io.Discard); err == nil {
		t.Fatal("unknown experiment should error")
	}
	if err := run(options{exp: "all", scale: "huge"}, io.Discard); err == nil {
		t.Fatal("unknown scale should error")
	}
	if err := run(options{exp: "all", scale: "quick", wlCSV: "nosuchwl"}, io.Discard); err == nil {
		t.Fatal("unknown workload should error")
	}
}

// TestRunTimelineEndToEnd drives the timeline experiment through run() at
// smoke scale with one workload: the -events file must pass the schema
// validator and the JSON report must round-trip.
func TestRunTimelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	jsonOut := filepath.Join(dir, "report.json")
	var out bytes.Buffer
	o := options{exp: "timeline", scale: "smoke", wlCSV: "btree",
		events: events, jsonOut: jsonOut}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	stream, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateJSONL(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("captured stream fails validation: %v", err)
	}
	if n == 0 {
		t.Fatal("captured stream is empty")
	}
	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Name != "timeline" {
		t.Fatalf("unexpected experiments in report: %+v", rep.Experiments)
	}
	if !strings.Contains(out.String(), "== timeline NVOverlay/btree") {
		t.Fatalf("timeline block missing from output:\n%s", out.String())
	}
}

// TestRunJSONResults drives experiments with a figure-specific JSON shape
// through run() at smoke scale with -json, and checks each decoded result
// carries the rows its figure prints.
func TestRunJSONResults(t *testing.T) {
	cases := []struct {
		exp   string
		title string // a line the printed figure must contain
		check func(t *testing.T, result json.RawMessage)
	}{
		{"fig17", "Fig 17:", func(t *testing.T, result json.RawMessage) {
			var curves []struct {
				Scheme       string    `json:"scheme"`
				BandwidthGBs []float64 `json:"bandwidth_gbs"`
			}
			if err := json.Unmarshal(result, &curves); err != nil {
				t.Fatal(err)
			}
			if len(curves) == 0 {
				t.Fatal("no bandwidth curves")
			}
			for _, c := range curves {
				if len(c.BandwidthGBs) == 0 {
					t.Fatalf("%s curve has an empty bandwidth_gbs", c.Scheme)
				}
			}
		}},
		{"ablate-scaling", "core-count scaling", func(t *testing.T, result json.RawMessage) {
			var rows []experiments.ScalePoint
			if err := json.Unmarshal(result, &rows); err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Fatal("no scaling rows")
			}
			for _, r := range rows {
				if r.Cores == 0 || r.Scheme == "" || r.NormCycles <= 0 {
					t.Fatalf("empty scaling row %+v", r)
				}
			}
		}},
		{"fileplane", "== fileplane: durable store profile", func(t *testing.T, result json.RawMessage) {
			var st experiments.FilePlaneStats
			if err := json.Unmarshal(result, &st); err != nil {
				t.Fatal(err)
			}
			if st.SealedEpoch == 0 || st.WordsRestored == 0 {
				t.Fatalf("file plane profile sealed epoch %d, restored %d words", st.SealedEpoch, st.WordsRestored)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.exp, func(t *testing.T) {
			jsonOut := filepath.Join(t.TempDir(), "report.json")
			var out bytes.Buffer
			if err := run(options{exp: c.exp, scale: "smoke", jsonOut: jsonOut}, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), c.title) {
				t.Fatalf("output missing %q:\n%s", c.title, out.String())
			}
			data, err := os.ReadFile(jsonOut)
			if err != nil {
				t.Fatal(err)
			}
			var rep struct {
				Experiments []struct {
					Name   string          `json:"name"`
					Result json.RawMessage `json:"result"`
				} `json:"experiments"`
			}
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatalf("JSON report does not decode: %v", err)
			}
			if len(rep.Experiments) != 1 || rep.Experiments[0].Name != c.exp {
				t.Fatalf("unexpected experiments in report: %+v", rep.Experiments)
			}
			c.check(t, rep.Experiments[0].Result)
		})
	}
}
