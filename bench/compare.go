package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// readResults reads a -json file: one result per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// summary is one side's values of one metric on one workload.
type summary struct {
	n           int
	med, q1, q3 float64
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{n: len(xs), med: median(xs), q1: q1, q3: q3}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 { return (s.q3 - s.q1) / s.med }

// collect groups metric values by workload and metric for one kind of run.
func collect(rs []result, traced bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs {
		if r.Trace != traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, m := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], m.Value)
		}
	}
	return out
}

// compareFiles prints, for each workload and metric, both sides' medians
// and quartiles, and for end-to-end metrics a verdict against the bound in
// BENCHMARK.json: "ok" when B's median is no worse than A's by more than
// the bound, "worse" when it is, and "unresolved" when either side's own
// spread is wider than the bound.
func compareFiles(pathA, pathB, specPath string, w io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	ea, eb := collect(a, false), collect(b, false)
	la, lb := collect(a, true), collect(b, true)
	workloadsSeen := map[string]bool{}
	for wl := range ea {
		workloadsSeen[wl] = true
	}
	for wl := range la {
		workloadsSeen[wl] = true
	}
	var names []string
	for wl := range workloadsSeen {
		names = append(names, wl)
	}
	sort.Strings(names)
	worse := 0
	for _, wl := range names {
		fmt.Fprintf(w, "== %s ==\n", wl)
		fmt.Fprintf(w, "%-28s %-6s %30s %30s %8s  %s\n", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A", "verdict")
		for _, m := range spec.EndToEnd {
			xa, xb := ea[wl][m.Name], eb[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			sa, sb := summarize(xa), summarize(xb)
			change := sb.med/sa.med - 1
			worsening := change
			if m.Better == "higher" {
				worsening = -change
			}
			verdict := "ok"
			switch {
			case worsening > m.Bound:
				verdict = "worse"
				worse++
			case sa.spread() > m.Bound || sb.spread() > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-28s %-6s %30s %30s %+7.2f%%  %s (bound %.0f%%, spread A %.2f%% B %.2f%%)\n",
				m.Name, m.Unit, sa.format(), sb.format(), 100*change, verdict,
				100*m.Bound, 100*sa.spread(), 100*sb.spread())
		}
		for _, m := range spec.PerLayer {
			xa, xb := la[wl][m.Name], lb[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-28s %-6s %30s %30s\n", m.Name, m.Unit, summarize(xa).format(), summarize(xb).format())
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

func (s summary) format() string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", s.med, s.q1, s.q3, s.n)
}
