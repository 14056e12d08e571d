package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/recovery"
	"repro/internal/store"
)

// TestWalkthrough runs the full usage-model demo at a reduced budget and
// checks every verification step reports success, including the archive
// round trip.
func TestWalkthrough(t *testing.T) {
	archive := filepath.Join(t.TempDir(), "snap.bin")
	o, err := parseFlags([]string{
		"-workload", "btree", "-accesses", "60000", "-epoch", "1000",
		"-archive", archive,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"crash recovery:",
		"image verified against the golden final memory state",
		"time-travel debugging:",
		"snapshot versions:",
		"remote replication:",
		"replica image verified against the primary",
		"snapshot archive:",
		"archive round-trip verified",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestErrors checks the failure modes surface as errors rather than exits.
func TestErrors(t *testing.T) {
	if _, err := parseFlags([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, err := parseFlags([]string{"stray"}, io.Discard); err == nil {
		t.Error("positional argument accepted")
	}
	o, err := parseFlags([]string{"-workload", "nope", "-accesses", "1000"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
	o, err = parseFlags([]string{"-epoch", "-5"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err == nil {
		t.Error("invalid epoch size accepted")
	}
}

// TestStoreRoundTrip writes a file store the way `nvsim -scale smoke
// -store dir` does (store.Run), then cold-salvages it through run with
// -store: the report must be valid JSON and the restored epoch must be the
// one it names.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := store.Run("NVOverlay", "btree", experiments.Smoke, nil, dir); err != nil {
		t.Fatal(err)
	}

	o, err := parseFlags([]string{"-store", dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	text := out.String()
	m := regexp.MustCompile(`(?m)^restored epoch (\d+): `).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no \"restored epoch N\" line:\n%s", text)
	}
	start, end := strings.Index(text, "\n{\n"), strings.Index(text, "\n}\n")
	if start < 0 || end < start {
		t.Fatalf("no salvage report in the output:\n%s", text)
	}
	var rep recovery.SalvageReport
	if err := json.Unmarshal([]byte(text[start+1:end+2]), &rep); err != nil {
		t.Fatalf("salvage report is not JSON: %v\n%s", err, text)
	}
	if rep.Refused || rep.RestoredEpoch == 0 || m[1] != fmt.Sprint(rep.RestoredEpoch) {
		t.Fatalf("report restored epoch %d (refused %v), output line says %s", rep.RestoredEpoch, rep.Refused, m[1])
	}
}
