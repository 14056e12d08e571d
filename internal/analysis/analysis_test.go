package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts the expectation pattern from a `// want "regex"` comment
// trailing the line a diagnostic is expected on.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one parsed // want annotation.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants parses every // want annotation of the package's files.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out
}

// loadTestdata loads one testdata package under the given import path.
func loadTestdata(t *testing.T, dir, asPath string) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", dir), asPath)
	if err != nil {
		t.Fatalf("loading testdata/%s: %v", dir, err)
	}
	return pkg
}

// checkAnalyzer runs one analyzer over a testdata package and verifies the
// diagnostics against the // want annotations: every diagnostic must be
// wanted, and every want must be hit.
func checkAnalyzer(t *testing.T, a *Analyzer, dir, asPath string) {
	t.Helper()
	pkg := loadTestdata(t, dir, asPath)
	diags := Run([]*Package{pkg}, []*Analyzer{a})
	wants := collectWants(t, pkg)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestMapRange(t *testing.T) {
	checkAnalyzer(t, MapRange, "maprange", "repro/internal/sim/mrtest")
}

func TestWallClock(t *testing.T) {
	checkAnalyzer(t, WallClock, "wallclock", "repro/internal/sim/wctest")
}

func TestEpochWrap(t *testing.T) {
	checkAnalyzer(t, EpochWrap, "epochwrap", "repro/internal/cst/ewtest")
}

func TestErrCheck(t *testing.T) {
	checkAnalyzer(t, ErrCheck, "errcheck", "repro/internal/recovery/ectest")
}

func TestPersistOrder(t *testing.T) {
	checkAnalyzer(t, PersistOrder, "persistorder", "repro/internal/mem/potest")
}

func TestErrLatch(t *testing.T) {
	checkAnalyzer(t, ErrLatch, "errlatch", "repro/internal/recovery/eltest")
}

// TestPersistOrderScopeExcluded loads the persistorder fixtures outside the
// durable-store packages: even annotated functions are not audited there.
func TestPersistOrderScopeExcluded(t *testing.T) {
	pkg := loadTestdata(t, "persistorder", "repro/internal/sim/potest")
	if diags := Run([]*Package{pkg}, []*Analyzer{PersistOrder}); len(diags) != 0 {
		t.Fatalf("out-of-scope package produced %d diagnostics, want 0: %v", len(diags), diags)
	}
}

// TestScopeExcludesOtherPackages loads the maprange fixtures under an
// import path outside the simulation-visible set: the analyzer must not
// fire at all.
func TestScopeExcludesOtherPackages(t *testing.T) {
	pkg := loadTestdata(t, "maprange", "repro/cmd/sometool")
	if diags := Run([]*Package{pkg}, []*Analyzer{MapRange}); len(diags) != 0 {
		t.Fatalf("out-of-scope package produced %d diagnostics, want 0: %v", len(diags), diags)
	}
}

// TestSuppressionRequiresReason checks that a reason-less //nvlint:allow is
// itself reported and does not cancel the finding it precedes.
func TestSuppressionRequiresReason(t *testing.T) {
	pkg := loadTestdata(t, "suppress", "repro/internal/sim/suptest")
	diags := Run([]*Package{pkg}, []*Analyzer{MapRange})
	var gotSuppress, gotMapRange bool
	for _, d := range diags {
		switch d.Check {
		case "suppress":
			gotSuppress = true
		case "maprange":
			gotMapRange = true
		}
	}
	if len(diags) != 2 || !gotSuppress || !gotMapRange {
		t.Fatalf("diagnostics = %v, want one reason-less-suppression finding and one surviving maprange finding", diags)
	}
}

// TestAnalyzerRegistry pins the suite's composition: CI and the self-clean
// test below both assume these six checks exist.
func TestAnalyzerRegistry(t *testing.T) {
	want := map[string]bool{
		"maprange": true, "wallclock": true, "epochwrap": true, "errcheck": true,
		"persistorder": true, "errlatch": true,
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d checks, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc string", a.Name)
		}
	}
}
