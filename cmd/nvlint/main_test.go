package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFlags(t *testing.T) {
	cases := []struct {
		args []string
		want options
	}{
		{[]string{"./..."}, options{maxallow: -1, dirs: []string{""}}},
		{[]string{}, options{maxallow: -1, dirs: []string{""}}},
		{[]string{"-json", "./internal/omc/..."}, options{json: true, maxallow: -1, dirs: []string{"internal/omc"}}},
		{[]string{"internal/cst", "cmd/nvlint"}, options{maxallow: -1, dirs: []string{"internal/cst", "cmd/nvlint"}}},
		{[]string{"-list"}, options{list: true, maxallow: -1, dirs: []string{""}}},
		{[]string{"-timing"}, options{timing: true, maxallow: -1, dirs: []string{""}}},
		{[]string{"-maxallow", "25"}, options{maxallow: 25, dirs: []string{""}}},
		{[]string{"-checks", "errlatch,persistorder"}, options{maxallow: -1, checks: []string{"errlatch", "persistorder"}, dirs: []string{""}}},
	}
	for _, c := range cases {
		got, err := parseFlags(c.args, io.Discard)
		if err != nil {
			t.Fatalf("parseFlags(%v): %v", c.args, err)
		}
		if got.json != c.want.json || got.list != c.want.list || got.timing != c.want.timing || got.maxallow != c.want.maxallow {
			t.Errorf("parseFlags(%v) flags = %+v, want %+v", c.args, got, c.want)
		}
		if len(got.dirs) != len(c.want.dirs) {
			t.Fatalf("parseFlags(%v) dirs = %v, want %v", c.args, got.dirs, c.want.dirs)
		}
		for i := range got.dirs {
			if got.dirs[i] != c.want.dirs[i] {
				t.Errorf("parseFlags(%v) dirs = %v, want %v", c.args, got.dirs, c.want.dirs)
			}
		}
		if len(got.checks) != len(c.want.checks) {
			t.Fatalf("parseFlags(%v) checks = %v, want %v", c.args, got.checks, c.want.checks)
		}
		for i := range got.checks {
			if got.checks[i] != c.want.checks[i] {
				t.Errorf("parseFlags(%v) checks = %v, want %v", c.args, got.checks, c.want.checks)
			}
		}
	}
}

// TestParseFlagsUnknownCheck pins the usage error: a typo in -checks must
// not silently run nothing.
func TestParseFlagsUnknownCheck(t *testing.T) {
	var errBuf bytes.Buffer
	if _, err := parseFlags([]string{"-checks", "bogus"}, &errBuf); err == nil {
		t.Fatalf("parseFlags(-checks bogus) = nil error, want unknown-check failure")
	}
	if !strings.Contains(errBuf.String(), "bogus") {
		t.Errorf("usage message does not name the unknown check: %q", errBuf.String())
	}
}

func TestListChecks(t *testing.T) {
	var buf bytes.Buffer
	n, err := run(options{list: true}, ".", &buf, io.Discard)
	if err != nil || n != 0 {
		t.Fatalf("run(-list) = %d, %v", n, err)
	}
	for _, check := range []string{"maprange", "wallclock", "epochwrap", "errcheck", "persistorder", "errlatch"} {
		if !strings.Contains(buf.String(), check) {
			t.Errorf("-list output missing %q:\n%s", check, buf.String())
		}
	}
}

// TestSelectAnalyzers verifies the -checks filter keeps suite order and
// drops everything unrequested.
func TestSelectAnalyzers(t *testing.T) {
	got := selectAnalyzers([]string{"errlatch", "maprange"})
	if len(got) != 2 {
		t.Fatalf("selectAnalyzers kept %d analyzers, want 2", len(got))
	}
	if got[0].Name != "maprange" || got[1].Name != "errlatch" {
		t.Errorf("filter broke suite order: %s, %s", got[0].Name, got[1].Name)
	}
	if all := selectAnalyzers(nil); len(all) != 6 {
		t.Errorf("empty filter kept %d analyzers, want the full suite of 6", len(all))
	}
}

// TestModuleIsClean lints the enclosing module through the CLI path: the
// repository must report zero diagnostics, text and JSON alike.
func TestModuleIsClean(t *testing.T) {
	var buf bytes.Buffer
	n, err := run(options{maxallow: -1, dirs: []string{""}}, ".", &buf, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Fatalf("module has %d diagnostics, want 0:\n%s", n, buf.String())
	}

	buf.Reset()
	n, err = run(options{json: true, maxallow: -1, dirs: []string{""}}, ".", &buf, io.Discard)
	if err != nil || n != 0 {
		t.Fatalf("run(-json) = %d, %v", n, err)
	}
	var diags []jsonDiag
	if err := json.Unmarshal(buf.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(diags) != 0 {
		t.Fatalf("-json reported %d diagnostics, want 0", len(diags))
	}
}

// TestJSONOutputDeterministic runs the module lint twice and demands
// byte-identical -json output: diagnostic order must not depend on map
// iteration or scheduling.
func TestJSONOutputDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := run(options{json: true, maxallow: -1, dirs: []string{""}}, ".", &a, io.Discard); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := run(options{json: true, maxallow: -1, dirs: []string{""}}, ".", &b, io.Discard); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("-json output differs between identical runs:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
}

// TestSuppressionBudget verifies the -maxallow gate: an impossible budget
// of 0 must fail (the repository has committed suppressions), and a huge
// budget must pass.
func TestSuppressionBudget(t *testing.T) {
	var buf bytes.Buffer
	n, err := run(options{maxallow: 0, dirs: []string{""}}, ".", &buf, io.Discard)
	if err != nil {
		t.Fatalf("run(-maxallow 0): %v", err)
	}
	if n == 0 {
		t.Fatalf("budget of 0 passed; the committed suppressions were not counted")
	}
	if !strings.Contains(buf.String(), "exceed the budget") {
		t.Errorf("budget failure message missing:\n%s", buf.String())
	}

	buf.Reset()
	n, err = run(options{maxallow: 1 << 20, dirs: []string{""}}, ".", &buf, io.Discard)
	if err != nil || n != 0 {
		t.Fatalf("run(-maxallow big) = %d, %v; want clean", n, err)
	}
}

// TestTimingOutput checks -timing emits one line per analyzer on the error
// stream, not mixed into the diagnostics.
func TestTimingOutput(t *testing.T) {
	var out, errw bytes.Buffer
	if _, err := run(options{timing: true, maxallow: -1, dirs: []string{""}}, ".", &out, &errw); err != nil {
		t.Fatalf("run(-timing): %v", err)
	}
	for _, check := range []string{"maprange", "persistorder", "errlatch"} {
		if !strings.Contains(errw.String(), check) {
			t.Errorf("timing output missing %q:\n%s", check, errw.String())
		}
	}
	if strings.Contains(out.String(), "timing") {
		t.Errorf("timing lines leaked into the diagnostics stream:\n%s", out.String())
	}
}

// TestRendersDiagnosticLine lints a throwaway module with one dropped error
// in a device-model package and checks the rendered text line, which is
// the file:line:col: [check] message form with the file relative to the
// module root.
func TestRendersDiagnosticLine(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/mem/drop.go": `package mem

import "errors"

func mayFail() error { return errors.New("boom") }

func drop() {
	mayFail()
}
`,
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	n, err := run(options{maxallow: -1, dirs: []string{""}}, root, &buf, io.Discard)
	if err != nil || n != 1 {
		t.Fatalf("run = %d, %v; want one diagnostic:\n%s", n, err, buf.String())
	}
	want := "internal/mem/drop.go:8:2: [errcheck] error return is silently discarded; handle it or assign to _ explicitly\nnvlint: 1 diagnostic(s)\n"
	if buf.String() != want {
		t.Fatalf("rendered output:\n%s\nwant:\n%s", buf.String(), want)
	}
}
