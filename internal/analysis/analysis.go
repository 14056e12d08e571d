// Package analysis is nvlint's static-analysis engine: a stdlib-only
// (go/ast + go/parser + go/types, no x/tools) framework that loads every
// package of the module and runs a pluggable set of analyzers enforcing the
// simulator's determinism and invariant contracts. The checks exist because
// the whole reproduction rests on deterministic replay: a single map
// iteration in hash order, one wall-clock read, or one raw comparison on a
// wrapping epoch silently breaks the bit-identical reproducers that
// internal/diffcheck emits.
//
// Findings are suppressed site by site with
//
//	//nvlint:allow <check> <reason>
//
// placed on the offending line or the line directly above it. The reason is
// mandatory: a suppression without one is itself reported, so every escape
// hatch in the tree carries its own audit trail.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one analyzer finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Path  string // import path of the package under analysis
	Pkg   *types.Package
	Info  *types.Info

	// Shared is cross-package state the driver computes before any
	// analyzer runs (e.g. the set of wrap-sensitive epoch types, which may
	// be declared in one package and used from another).
	Shared *Shared

	check string
	diags *[]Diagnostic
}

// Reportf records a finding at pos under the running analyzer's check name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one pluggable check.
type Analyzer struct {
	Name string
	Doc  string
	// Match reports whether the analyzer applies to a package import path.
	// A nil Match applies everywhere.
	Match func(path string) bool
	Run   func(*Pass)
}

// Shared is the driver's cross-package pre-scan: state that an analyzer
// needs about declarations outside the package it is currently visiting,
// plus caches that outlive a single (package, analyzer) pass.
type Shared struct {
	// WrapSensitive holds the type names marked `nvlint:wrapsensitive`
	// (values of these types wrap around and must not be compared or
	// advanced with raw operators).
	WrapSensitive map[*types.TypeName]bool

	// cfgs caches one control-flow graph per function body across all
	// analyzers and packages of the run.
	cfgs map[*ast.BlockStmt]*CFG
}

// The comment markers (directives) the analyzers honour. Each is written in
// a doc or trailing comment of the declaration it annotates:
//
//	nvlint:wrapsensitive        on a type: values wrap, raw compares banned
//	nvlint:wrapsafe             on a func: raw operators allowed inside
//	nvlint:durable              on a func: persistorder audits its body
const (
	directiveWrapSensitive = "nvlint:wrapsensitive"
	directiveWrapSafe      = "nvlint:wrapsafe"
	directiveDurable       = "nvlint:durable"
)

// newShared pre-scans all loaded packages for cross-package directives.
func newShared(pkgs []*Package) *Shared {
	sh := &Shared{
		WrapSensitive: make(map[*types.TypeName]bool),
		cfgs:          make(map[*ast.BlockStmt]*CFG),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				gd, ok := n.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					return true
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if commentHas(gd.Doc, directiveWrapSensitive) ||
						commentHas(ts.Doc, directiveWrapSensitive) ||
						commentHas(ts.Comment, directiveWrapSensitive) {
						if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
							sh.WrapSensitive[tn] = true
						}
					}
				}
				return true
			})
		}
	}
	return sh
}

func commentHas(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// allowRe matches a suppression comment: //nvlint:allow <check> <reason>.
var allowRe = regexp.MustCompile(`^//\s*nvlint:allow\s+([a-z-]+)\s*(.*)$`)

// suppression is one parsed //nvlint:allow comment.
type suppression struct {
	pos    token.Position
	check  string
	reason string
}

// collectSuppressions parses every //nvlint:allow comment of a file.
func collectSuppressions(fset *token.FileSet, file *ast.File) []suppression {
	var out []suppression
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			out = append(out, suppression{
				pos:    fset.Position(c.Pos()),
				check:  m[1],
				reason: strings.TrimSpace(m[2]),
			})
		}
	}
	return out
}

// Timing is the accumulated wall time one analyzer spent across every
// package of a run.
type Timing struct {
	Name     string
	Duration time.Duration
}

// Run executes the analyzers over the loaded packages, applies
// suppressions, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(pkgs, analyzers)
	return diags
}

// RunTimed is Run plus a per-analyzer wall-time breakdown, in the order the
// analyzers were given (cmd/nvlint -timing).
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	shared := newShared(pkgs)
	var diags []Diagnostic
	elapsed := make([]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Fset:   pkg.Fset,
				Files:  pkg.Files,
				Path:   pkg.Path,
				Pkg:    pkg.Types,
				Info:   pkg.Info,
				Shared: shared,
				check:  a.Name,
				diags:  &diags,
			}
			start := time.Now()
			a.Run(pass)
			elapsed[i] += time.Since(start)
		}
	}

	// Gather suppressions across all files, then filter. A suppression
	// cancels diagnostics of its check on its own line and the line below
	// (so it can trail the offending statement or sit on its own line
	// above it). Suppressions without a reason are themselves findings.
	type key struct {
		file  string
		line  int
		check string
	}
	allowed := make(map[key]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, s := range collectSuppressions(pkg.Fset, file) {
				if s.reason == "" {
					diags = append(diags, Diagnostic{
						Pos:     s.pos,
						Check:   "suppress",
						Message: fmt.Sprintf("//nvlint:allow %s needs a reason", s.check),
					})
					continue
				}
				allowed[key{s.pos.Filename, s.pos.Line, s.check}] = true
				allowed[key{s.pos.Filename, s.pos.Line + 1, s.check}] = true
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if allowed[key{d.Pos.Filename, d.Pos.Line, d.Check}] {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	// Flow-sensitive analyzers can report the same fact once per CFG path
	// that reaches it; identical diagnostics collapse to one.
	uniq := kept[:0]
	for i, d := range kept {
		if i > 0 {
			p := kept[i-1]
			if p.Pos == d.Pos && p.Check == d.Check && p.Message == d.Message {
				continue
			}
		}
		uniq = append(uniq, d)
	}
	kept = uniq
	timings := make([]Timing, len(analyzers))
	for i, a := range analyzers {
		timings[i] = Timing{Name: a.Name, Duration: elapsed[i]}
	}
	return kept, timings
}

// CountSuppressions counts every //nvlint:allow comment across the loaded
// packages — the number the CI suppression budget gates on.
func CountSuppressions(pkgs []*Package) int {
	n := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			n += len(collectSuppressions(pkg.Fset, file))
		}
	}
	return n
}

// simVisible is the set of packages whose behaviour is simulation-visible:
// anything here feeding stats, traces, or replay must be deterministic.
// internal/parallel and internal/stats are in scope because the sweep
// engine's merge paths carry the byte-identical-across-jobs guarantee: a
// map range or wall-clock read there would leak scheduling order into
// results that must depend only on cell indices. internal/obs is in scope
// for the same reason: its event streams and rollups ship the
// byte-identical-across-jobs promise, so an order or clock leak there is a
// determinism bug even though the simulation itself never reads the bus.
// internal/trace, internal/workload and internal/experiments joined with
// the big-machine scale sweep: the driver loop, the workload generators
// (including the zipfian scale kernels) and the figure/sweep reductions
// all feed the byte-identical figure outputs directly.
// internal/tracefile is the record/replay codec: a recorded trace must
// replay byte-identically, so its encode/decode paths are as
// simulation-visible as the driver that feeds them, and a dropped
// file-plane error there is a silently damaged trace (errcheck scope).
var simVisible = prefixMatcher(
	"repro/internal/sim",
	"repro/internal/trace",
	"repro/internal/tracefile",
	"repro/internal/workload",
	"repro/internal/experiments",
	"repro/internal/fault",
	"repro/internal/cst",
	"repro/internal/omc",
	"repro/internal/coherence",
	"repro/internal/cache",
	"repro/internal/mem",
	"repro/internal/core",
	"repro/internal/recovery",
	"repro/internal/baseline",
	"repro/internal/diffcheck",
	"repro/internal/parallel",
	"repro/internal/stats",
	"repro/internal/obs",
)

// errcheckScope covers the NVM/DRAM device models and the recovery paths,
// where a silently dropped error means a corrupted or unverified image,
// and the host profilers, where it means a truncated profile.
var errcheckScope = prefixMatcher(
	"repro/internal/mem",
	"repro/internal/recovery",
	"repro/internal/tracefile",
	"repro/internal/omc",
	"repro/internal/soak",
	"repro/internal/hostprof",
	"repro/cmd/nvrecover",
	"repro/cmd/nvcheck",
	"repro/cmd/nvsim",
)

// persistScope covers the packages that own the on-disk manifest
// discipline: the file-backed plane and the crash-soak writer. persistorder
// only audits functions there that carry the `nvlint:durable` marker.
var persistScope = prefixMatcher(
	"repro/internal/mem",
	"repro/internal/soak",
)

// prefixMatcher matches an import path equal to, or nested under, any of
// the given paths.
func prefixMatcher(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, base := range paths {
			if p == base || strings.HasPrefix(p, base+"/") {
				return true
			}
		}
		return false
	}
}

// Analyzers returns the full nvlint suite: the four syntactic-era checks
// plus the two flow-sensitive ones built on the CFG/dataflow engine.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapRange, WallClock, EpochWrap, ErrCheck, PersistOrder, ErrLatch}
}
