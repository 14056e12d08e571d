package main

import (
	"os"
	"path/filepath"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable2IdealSubstrate 	       5	  22984768 ns/op	    150045 accesses/op	 2395340 B/op	     599 allocs/op
BenchmarkFileSeal-4           	       5	  73655328 ns/op	        50.04 bytes/burst	 6000025 B/op	   60437 allocs/op
PASS
ok  	repro	0.800s
`

func writeFiles(t *testing.T, baseline string) (benchPath, basePath string) {
	t.Helper()
	dir := t.TempDir()
	benchPath = filepath.Join(dir, "bench.txt")
	basePath = filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(benchPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	return benchPath, basePath
}

func TestGatePassesWithinTolerance(t *testing.T) {
	bench, base := writeFiles(t, `{"gate": {"tolerance_pct": 15, "benchmarks": {
		"BenchmarkTable2IdealSubstrate": {"ns_per_op": 23000000, "bytes_per_op": 2400000, "allocs_per_op": 600},
		"BenchmarkFileSeal": {"ns_per_op": 70000000, "allocs_per_op": 60000}}}}`)
	if err := run(bench, base, 0); err != nil {
		t.Fatalf("gate failed within tolerance: %v", err)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	// Baseline far below the measured numbers: both metrics regressed.
	bench, base := writeFiles(t, `{"gate": {"tolerance_pct": 15, "benchmarks": {
		"BenchmarkTable2IdealSubstrate": {"ns_per_op": 10000000, "allocs_per_op": 100}}}}`)
	if err := run(bench, base, 0); err == nil {
		t.Fatal("gate passed a 2x ns/op and 6x allocs/op regression")
	}
}

func TestGateFailsOnBytesRegression(t *testing.T) {
	// ns/op and allocs/op within tolerance; only B/op (2395340 measured)
	// is over its baseline.
	bench, base := writeFiles(t, `{"gate": {"tolerance_pct": 15, "benchmarks": {
		"BenchmarkTable2IdealSubstrate": {"ns_per_op": 23000000, "bytes_per_op": 2000000, "allocs_per_op": 600}}}}`)
	if err := run(bench, base, 0); err == nil {
		t.Fatal("gate passed a 20% B/op regression")
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	bench, base := writeFiles(t, `{"gate": {"tolerance_pct": 15, "benchmarks": {
		"BenchmarkNotRun": {"ns_per_op": 1000, "allocs_per_op": 10}}}}`)
	if err := run(bench, base, 0); err == nil {
		t.Fatal("gate passed with a gated benchmark missing from the output")
	}
}

func TestGateFailsWithoutBenchmem(t *testing.T) {
	// Bench output without allocs/op columns (no -benchmem): the allocs
	// gate must fail loudly, not compare against an implicit zero.
	dir := t.TempDir()
	bench := filepath.Join(dir, "bench.txt")
	base := filepath.Join(dir, "baseline.json")
	noMem := "BenchmarkTable2IdealSubstrate \t 5 \t 22984768 ns/op\n"
	if err := os.WriteFile(bench, []byte(noMem), 0o644); err != nil {
		t.Fatal(err)
	}
	js := `{"gate": {"tolerance_pct": 15, "benchmarks": {
		"BenchmarkTable2IdealSubstrate": {"ns_per_op": 23000000, "allocs_per_op": 600}}}}`
	if err := os.WriteFile(base, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bench, base, 0); err == nil {
		t.Fatal("gate passed with allocs/op gated but absent from the output")
	}
}

func TestGateFailsWithoutBenchmemBytes(t *testing.T) {
	// Only B/op is gated: a run without -benchmem fails on it the same
	// way it fails on allocs/op.
	dir := t.TempDir()
	bench := filepath.Join(dir, "bench.txt")
	base := filepath.Join(dir, "baseline.json")
	noMem := "BenchmarkTable2IdealSubstrate \t 5 \t 22984768 ns/op\n"
	if err := os.WriteFile(bench, []byte(noMem), 0o644); err != nil {
		t.Fatal(err)
	}
	js := `{"gate": {"tolerance_pct": 15, "benchmarks": {
		"BenchmarkTable2IdealSubstrate": {"ns_per_op": 23000000, "bytes_per_op": 2400000}}}}`
	if err := os.WriteFile(base, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bench, base, 0); err == nil {
		t.Fatal("gate passed with B/op gated but absent from the output")
	}
}

func TestGateRequiresGateSection(t *testing.T) {
	bench, base := writeFiles(t, `{"description": "no gate here"}`)
	if err := run(bench, base, 0); err == nil {
		t.Fatal("gate passed a baseline without a gate section")
	}
}

func TestParseBenchStripsSuffixAndIgnoresCustomUnits(t *testing.T) {
	bench, _ := writeFiles(t, `{}`)
	f, err := os.Open(bench)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := parseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	seal, ok := m["BenchmarkFileSeal"] // -4 suffix stripped
	if !ok {
		t.Fatalf("FileSeal missing: %v", m)
	}
	if seal.NsPerOp != 73655328 || seal.BytesPerOp != 6000025 || seal.AllocsPerOp != 60437 {
		t.Fatalf("FileSeal metrics %+v", seal)
	}
	if m["BenchmarkTable2IdealSubstrate"].AllocsPerOp != 599 {
		t.Fatalf("Table2 metrics %+v", m["BenchmarkTable2IdealSubstrate"])
	}
}
