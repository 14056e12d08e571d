//go:build mutants

package mutants

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mutant is one catalog entry.
type mutant struct {
	name     string
	file     string // slash path from the module root
	old, new string // old occurs exactly once in file
	pkg      string // package pattern handed to go test
	run      string // -run pattern that must fail under the edit
	race     bool
}

// args is the go test command line of the entry.
func (m mutant) args() []string {
	a := []string{"test", "-count=1"}
	if m.race {
		a = append(a, "-race")
	}
	return append(a, "-run", m.run, m.pkg)
}

// parseCatalog reads blank-line separated entries of "key: value" lines;
// lines starting with # are comments. old and new are Go-quoted strings.
func parseCatalog(path string) ([]mutant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []mutant
	for _, block := range strings.Split(string(data), "\n\n") {
		fields := map[string]string{}
		for _, line := range strings.Split(block, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			key, val, ok := strings.Cut(line, ":")
			if !ok {
				return nil, fmt.Errorf("%s: line %q is not key: value", path, line)
			}
			if _, dup := fields[key]; dup {
				return nil, fmt.Errorf("%s: key %q repeated in one entry", path, key)
			}
			fields[key] = strings.TrimSpace(val)
		}
		if len(fields) == 0 {
			continue
		}
		m, err := entry(fields)
		if err != nil {
			return nil, fmt.Errorf("%s: entry %q: %v", path, fields["name"], err)
		}
		out = append(out, m)
	}
	return out, nil
}

// entry builds one mutant from its fields, all of which are required.
func entry(f map[string]string) (mutant, error) {
	for _, k := range []string{"name", "file", "old", "new", "pkg", "run", "race"} {
		if _, ok := f[k]; !ok {
			return mutant{}, fmt.Errorf("missing %q", k)
		}
	}
	if len(f) != 7 {
		return mutant{}, fmt.Errorf("unknown key among %v", f)
	}
	m := mutant{name: f["name"], file: f["file"], pkg: f["pkg"], run: f["run"]}
	var err error
	if m.old, err = strconv.Unquote(f["old"]); err != nil {
		return mutant{}, fmt.Errorf("old: %v", err)
	}
	if m.new, err = strconv.Unquote(f["new"]); err != nil {
		return mutant{}, fmt.Errorf("new: %v", err)
	}
	if m.race, err = strconv.ParseBool(f["race"]); err != nil {
		return mutant{}, fmt.Errorf("race: %v", err)
	}
	return m, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// copyModule copies the regular files under src to dst, skipping
// directories whose names start with a dot (.git, build caches), which go
// test never reads.
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			if path != src && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// goTest runs the entry's command in dir. failed reports a non-zero exit;
// err is any other failure to run it.
func goTest(dir string, m mutant) (out []byte, failed bool, err error) {
	cmd := exec.Command("go", m.args()...)
	cmd.Dir = dir
	out, err = cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out, true, nil
	}
	return out, false, err
}

// TestCatalogKilled requires the unmutated module to pass every entry's
// command and each entry's edit, applied alone, to make it fail. A
// failure to compile is not a kill: the entry is wrong.
func TestCatalogKilled(t *testing.T) {
	muts, err := parseCatalog(filepath.Join("testdata", "catalog.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) == 0 {
		t.Fatal("empty catalog")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := copyModule(root, dir); err != nil {
		t.Fatal(err)
	}

	ran := map[string]bool{}
	for _, m := range muts {
		cmdline := "go " + strings.Join(m.args(), " ")
		if ran[cmdline] {
			continue
		}
		ran[cmdline] = true
		out, failed, err := goTest(dir, m)
		if err != nil {
			t.Fatalf("%s: %v", cmdline, err)
		}
		if failed {
			t.Fatalf("the unmutated module fails %s:\n%s", cmdline, out)
		}
	}

	for _, m := range muts {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(dir, filepath.FromSlash(m.file))
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(orig), m.old); n != 1 {
				t.Fatalf("old text occurs %d times in %s, want 1", n, m.file)
			}
			mutated := strings.Replace(string(orig), m.old, m.new, 1)
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatalf("restoring %s: %v", m.file, err)
				}
			}()
			cmdline := "go " + strings.Join(m.args(), " ")
			out, failed, err := goTest(dir, m)
			switch {
			case err != nil:
				t.Fatalf("%s: %v", cmdline, err)
			case !failed:
				t.Fatalf("mutant survived: %s passes", cmdline)
			case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Fatalf("mutant does not compile, so it proves nothing:\n%s", out)
			}
			t.Logf("killed by %s: %d DATA RACE reports, %d failed tests",
				cmdline, bytes.Count(out, []byte("WARNING: DATA RACE")),
				bytes.Count(out, []byte("--- FAIL")))
		})
	}
}
