// Command bench is the simulator benchmark. It runs one workload, or all
// of them, prints every end-to-end metric with its unit, and checks every
// cell's simulated outputs. With -trace it runs the same cells again with
// timing decorators around the public layer interfaces and prints per-layer
// self time and work counts. See README.md.
//
// The load is a closed-loop batch: one goroutine runs the cells one after
// another, and each cell's next access waits for the previous one. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
)

// A run sets the workload up at least minSetupRounds times, and more, up
// to maxSetupRounds, while set-up has taken less than setupBudget: cheap
// set-ups are noisy, and setup_s is the median round.
const (
	minSetupRounds = 3
	maxSetupRounds = 15
	setupBudget    = 2 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one run's settings.
type options struct {
	seed    int64
	seconds int
	trace   bool
	update  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wlName := fl.String("workload", "", "workload to run (paper-grid, overlay-write, overlay-read, baseline-write, scale64-zipf) or all")
	seed := fl.Int64("seed", 42, "workload seed")
	seconds := fl.Int("seconds", 10, "length of the timed phase in seconds, rounded to whole passes over the cells")
	traced := fl.Bool("trace", false, "also run the cells with layer timing and print per-layer metrics")
	jsonPath := fl.String("json", "", "append each workload's result to this file as one JSON line")
	update := fl.Bool("update", false, "rewrite testdata/expect-seed<seed>.json from this run (implies -trace)")
	compareMode := fl.Bool("compare", false, "compare two -json files: -compare A.json B.json")
	if err := fl.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compareMode {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		if err := compareFiles(fl.Arg(0), fl.Arg(1), "BENCHMARK.json", stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if fl.NArg() > 0 || *wlName == "" || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: need -workload and a positive -seconds, and no arguments")
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traced || *update, update: *update}
	if *wlName == "all" {
		return runAll(opts, *jsonPath, stdout, stderr)
	}
	w, err := findWorkload(*wlName)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	res, err := runWorkload(w, opts, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if *jsonPath != "" {
		if err := appendJSON(*jsonPath, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return printLine(stdout, res.resultLine)
}

// normalizeArgs rewrites "-trace 0|1" as "-trace=0|1": the flag package
// reads a boolean flag's value only when it is joined with "=".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is one workload's run, as appended to the -json file.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	resultLine
	Raw   map[string]metric `json:"raw,omitempty"` // wall-time values before host scaling
	Spans []spanRecord      `json:"spans,omitempty"`
}

func printLine(w io.Writer, l resultLine) int {
	b, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	return 0
}

func appendJSON(path string, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own process, so memory and GC state
// are separate for each, and prints a combined result line.
func runAll(opts options, jsonPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	all := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads() {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(opts.seed, 10),
			"-seconds", strconv.Itoa(opts.seconds), "-trace=" + strconv.FormatBool(opts.trace),
			"-update=" + strconv.FormatBool(opts.update), "-json", jsonPath}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		var l resultLine
		if err := json.Unmarshal(lastLine(out.Bytes()), &l); err != nil {
			fmt.Fprintf(stderr, "bench: %s: result line: %v\n", w.name, err)
			return 1
		}
		all.Correct = all.Correct && l.Correct
		all.Attempted += l.Attempted
		all.Failed += l.Failed
		for k, m := range l.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	if code := printLine(stdout, all); code != 0 || !all.Correct {
		return 1
	}
	return 0
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// runWorkload sets a workload up, runs whole passes over its cells until
// the timed phase reaches the requested length, checks every cell
// execution, and reduces the run to metrics.
func runWorkload(w benchWorkload, opts options, out io.Writer) (result, error) {
	res := result{Workload: w.name, Seed: opts.seed, Trace: opts.trace}
	log := &spanLog{base: time.Now()}
	root := log.open("workload "+w.name, -1)
	var cal calibration
	if opts.trace {
		cal = calibrate()
	}

	r, err := newRunner(w, opts.seed, nil, log)
	if err != nil {
		return res, err
	}
	defer r.probe.close()
	var rounds []setupRound
	var fsys fault.FS
	var recs map[string]recording
	var spent time.Duration
	for len(rounds) < minSetupRounds || (spent < setupBudget && len(rounds) < maxSetupRounds) {
		runtime.GC()
		r.sampleProbe(root)
		span := log.open("setup", root)
		round, f, rc, err := w.setup(opts.seed)
		log.close(span)
		if err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
		rounds = append(rounds, round)
		spent += round.total()
		fsys, recs = f, rc
	}
	var e *expectations
	if !opts.update {
		if e, err = loadExpectations(opts.seed); err != nil {
			return res, err
		}
	}
	c := newChecker(e, w.name, recs)
	r.fsys = fsys

	budget := time.Duration(opts.seconds) * time.Second
	var cells []cellResult
	var timed, untracedWall, tracedWall time.Duration
	for {
		pr, pt := r.pass(false, root)
		cells = append(cells, pr...)
		untracedWall += pt
		last := pt
		if opts.trace {
			tr, tt := r.pass(true, root)
			cells = append(cells, tr...)
			tracedWall += tt
			last += tt
		}
		timed += last
		if timed+last/2 >= budget {
			break
		}
	}
	log.close(root)

	res.Correct = true
	for _, e := range c.traceErrors() {
		fmt.Fprintf(out, "FAIL %s\n", e)
		res.Correct = false
	}
	for _, cr := range cells {
		res.Attempted++
		if why := c.check(cr, w.replay()); why != "" {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(out, "FAIL %s: %s\n", cr.spec.name(), why)
		}
	}

	res.Spans = log.records
	rep := &report{w: w, opts: opts, rounds: rounds, cells: cells, recs: c.recs}
	if opts.trace {
		rep.layers = reduce(r.tr, tracedWall, untracedWall, cal)
		res.Metrics = rep.perLayer()
	} else {
		if res.Metrics, res.Raw, err = rep.endToEnd(r.probe); err != nil {
			return res, err
		}
	}
	rep.print(out, c.expect != nil, res)
	if opts.update && res.Correct {
		path, err := updateExpectations(opts.seed, w.name, c.expected())
		if err != nil {
			return res, err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	return res, nil
}

// peakRSS returns the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
