// Command benchgate is CI's performance regression gate: it parses `go test
// -bench` output and compares ns/op, B/op and allocs/op for every benchmark the
// committed baseline (BENCH_baseline.json, "gate" section) covers. A metric
// more than the tolerance above its baseline fails the build; a metric well
// below it prints a note suggesting the baseline be ratcheted down.
//
// Usage:
//
//	go test -run='^$' -bench='Table2|FileSeal' -benchtime=5x -benchmem . | tee bench.txt
//	go run ./cmd/benchgate -bench bench.txt -baseline BENCH_baseline.json
//
// B/op and allocs/op are iteration-count independent and compare across
// hosts; ns/op is wall-clock, so the default tolerance is generous and the
// baseline records the host it was captured on.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// gateBaseline is the "gate" section of BENCH_baseline.json.
type gateBaseline struct {
	Description  string                 `json:"description"`
	TolerancePct float64                `json:"tolerance_pct"`
	Host         map[string]any         `json:"host"`
	Benchmarks   map[string]gateMetrics `json:"benchmarks"`
}

// gateMetrics are the gated metrics of one benchmark.
type gateMetrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	// hasBytes and hasAllocs record whether the bench output actually
	// carried the B/op and allocs/op columns; without them a run missing
	// -benchmem would compare the baseline against an implicit 0 and
	// "pass" the memory half of the gate.
	hasBytes, hasAllocs bool
}

// baselineFile is the subset of BENCH_baseline.json benchgate reads.
type baselineFile struct {
	Gate *gateBaseline `json:"gate"`
}

func main() {
	benchPath := flag.String("bench", "", "go test -bench output to check")
	basePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline with a 'gate' section")
	tol := flag.Float64("tol", 0, "regression tolerance in percent (0: the baseline's tolerance_pct)")
	flag.Parse()
	if *benchPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -bench is required")
		os.Exit(2)
	}
	if err := run(*benchPath, *basePath, *tol); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(benchPath, basePath string, tol float64) error {
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	// baselineFile only declares the gate field, so the rest of the (large)
	// baseline document is skipped during decoding.
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", basePath, err)
	}
	if base.Gate == nil || len(base.Gate.Benchmarks) == 0 {
		return fmt.Errorf("%s has no gate section", basePath)
	}
	if tol == 0 {
		tol = base.Gate.TolerancePct
	}
	if tol <= 0 {
		return fmt.Errorf("no tolerance: pass -tol or set gate.tolerance_pct")
	}

	bf, err := os.Open(benchPath)
	if err != nil {
		return err
	}
	defer bf.Close()
	measured, err := parseBench(bf)
	if err != nil {
		return err
	}

	names := make([]string, 0, len(base.Gate.Benchmarks))
	for name := range base.Gate.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		want := base.Gate.Benchmarks[name]
		got, ok := measured[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: gated benchmark missing from %s", name, benchPath))
			continue
		}
		check := func(metric string, cur, limit float64) {
			if limit <= 0 {
				return
			}
			pct := 100 * (cur - limit) / limit
			switch {
			case pct > tol:
				failures = append(failures, fmt.Sprintf("%s %s regressed %.1f%% (%.0f vs baseline %.0f, tolerance %.0f%%)",
					name, metric, pct, cur, limit, tol))
			case pct < -tol:
				fmt.Printf("note: %s %s improved %.1f%% (%.0f vs baseline %.0f) — consider ratcheting the baseline\n",
					name, metric, -pct, cur, limit)
			default:
				fmt.Printf("ok: %s %s within %.1f%% of baseline (%.0f vs %.0f)\n", name, metric, pct, cur, limit)
			}
		}
		memCheck := func(metric string, cur, limit float64, has bool) {
			if limit > 0 && !has {
				failures = append(failures, fmt.Sprintf("%s: %s gated but missing from %s (run go test with -benchmem)", name, metric, benchPath))
				return
			}
			check(metric, cur, limit)
		}
		check("ns/op", got.NsPerOp, want.NsPerOp)
		memCheck("B/op", got.BytesPerOp, want.BytesPerOp, got.hasBytes)
		memCheck("allocs/op", got.AllocsPerOp, want.AllocsPerOp, got.hasAllocs)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%%", len(failures), tol)
	}
	fmt.Printf("benchgate: %d benchmark(s) within tolerance\n", len(base.Gate.Benchmarks))
	return nil
}

// parseBench extracts per-benchmark metrics from `go test -bench` output.
// Lines look like:
//
//	BenchmarkFileSeal-4   5   20406283 ns/op   152 files   1234 B/op   56 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so baselines match across runners;
// custom ReportMetric units other than ns/op, B/op and allocs/op are
// ignored.
func parseBench(f *os.File) (map[string]gateMetrics, error) {
	out := make(map[string]gateMetrics)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := out[name]
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
			case "B/op":
				m.BytesPerOp = v
				m.hasBytes = true
			case "allocs/op":
				m.AllocsPerOp = v
				m.hasAllocs = true
			}
		}
		out[name] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}
