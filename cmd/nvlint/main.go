// Command nvlint runs the repository's custom static-analysis suite: the
// determinism, epoch-wrap, and error-handling checks of internal/analysis,
// plus the flow-sensitive durability-ordering (persistorder) and
// error-latch (errlatch) analyzers built on its CFG/dataflow engine. It is
// stdlib-only (go/ast + go/types) and loads every non-test package of the
// module, so `nvlint ./...` is the canonical invocation.
//
//	nvlint ./...                            # lint the whole module
//	nvlint ./internal/omc                   # restrict reporting to one subtree
//	nvlint -json ./...                      # machine-readable output (sorted, stable)
//	nvlint -list                            # describe the checks
//	nvlint -checks errlatch,maprange ./...  # run a subset
//	nvlint -timing ./...                    # per-analyzer wall time on stderr
//	nvlint -maxallow 25 ./...               # fail when suppressions exceed a budget
//
// Exit status: 0 clean, 1 diagnostics reported (or suppression budget
// exceeded), 2 usage error, 3 load or type-check error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// options is the parsed command line.
type options struct {
	json     bool
	list     bool
	timing   bool
	maxallow int      // suppression budget; negative disables the gate
	checks   []string // analyzer-name filter; empty runs the full suite
	dirs     []string // package dir filters relative to the module root ("" = all)
}

// parseFlags decodes the command line without touching the process-global
// flag set, so tests can drive it directly.
func parseFlags(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("nvlint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := options{maxallow: -1}
	fs.BoolVar(&o.json, "json", false, "emit diagnostics as a JSON array")
	fs.BoolVar(&o.list, "list", false, "list the checks and exit")
	fs.BoolVar(&o.timing, "timing", false, "report per-analyzer wall time")
	fs.IntVar(&o.maxallow, "maxallow", -1, "fail when //nvlint:allow suppressions exceed this budget (negative disables)")
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *checks != "" {
		known := make(map[string]bool)
		for _, a := range analysis.Analyzers() {
			known[a.Name] = true
		}
		for _, c := range strings.Split(*checks, ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				continue
			}
			if !known[c] {
				fmt.Fprintf(errOut, "nvlint: unknown check %q (see -list)\n", c)
				return options{}, fmt.Errorf("unknown check %q", c)
			}
			o.checks = append(o.checks, c)
		}
	}
	for _, arg := range fs.Args() {
		switch arg {
		case "./...", "...", ".":
			o.dirs = append(o.dirs, "")
		default:
			dir := strings.TrimSuffix(arg, "/...")
			dir = strings.TrimPrefix(dir, "./")
			o.dirs = append(o.dirs, filepath.ToSlash(filepath.Clean(dir)))
		}
	}
	if len(o.dirs) == 0 {
		o.dirs = []string{""}
	}
	return o, nil
}

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// selectAnalyzers applies the -checks filter to the full suite.
func selectAnalyzers(names []string) []*analysis.Analyzer {
	all := analysis.Analyzers()
	if len(names) == 0 {
		return all
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

// run loads the module rooted at or above cwd, lints it, and writes the
// diagnostics to w (timings, when requested, go to errw). It returns the
// number of findings reported, counting a blown suppression budget as one.
func run(o options, cwd string, w, errw io.Writer) (int, error) {
	if o.list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(w, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return 0, err
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		return 0, err
	}
	diags, timings := analysis.RunTimed(pkgs, selectAnalyzers(o.checks))
	if o.timing {
		for _, tm := range timings {
			fmt.Fprintf(errw, "nvlint: timing %-12s %s\n", tm.Name, tm.Duration)
		}
	}

	// Restrict reporting to the requested subtrees (everything is always
	// loaded: type-checking needs the whole module anyway), and report
	// file names relative to the module root.
	var kept []analysis.Diagnostic
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		d.Pos.Filename = filepath.ToSlash(rel)
		for _, dir := range o.dirs {
			if dir == "" || d.Pos.Filename == dir || strings.HasPrefix(d.Pos.Filename, dir+"/") {
				kept = append(kept, d)
				break
			}
		}
	}

	if o.json {
		out := make([]jsonDiag, 0, len(kept))
		for _, d := range kept {
			out = append(out, jsonDiag{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Check: d.Check, Message: d.Message,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return len(kept), err
		}
		return len(kept), nil
	}
	for _, d := range kept {
		fmt.Fprintln(w, d)
	}
	if len(kept) > 0 {
		fmt.Fprintf(w, "nvlint: %d diagnostic(s)\n", len(kept))
	}
	n := len(kept)

	// Suppression budget: the committed baseline may only shrink; growing
	// it is a reviewed decision (bump the number in CI).
	if o.maxallow >= 0 {
		if count := analysis.CountSuppressions(pkgs); count > o.maxallow {
			fmt.Fprintf(w, "nvlint: %d //nvlint:allow suppression(s) exceed the budget of %d; remove one or bump the reviewed baseline\n", count, o.maxallow)
			n++
		}
	}
	return n, nil
}

// Exit codes.
const (
	exitClean = 0 // no findings
	exitFinds = 1 // diagnostics reported or suppression budget exceeded
	exitUsage = 2 // bad flags or arguments
	exitLoad  = 3 // module load or type-check failure
)

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(exitUsage)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvlint:", err)
		os.Exit(exitUsage)
	}
	n, err := run(o, cwd, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvlint:", err)
		os.Exit(exitLoad)
	}
	if n > 0 {
		os.Exit(exitFinds)
	}
}
