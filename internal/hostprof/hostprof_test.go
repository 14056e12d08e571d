package hostprof

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRunWritesProfiles: every requested profile exists and is non-empty
// once Run returns, and fn's error comes back unchanged.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs)
	err := fs.Parse([]string{
		"-cpuprofile", filepath.Join(dir, "cpu.out"),
		"-memprofile", filepath.Join(dir, "mem.out"),
		"-trace", filepath.Join(dir, "trace.out"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("run failed")
	if err := f.Run(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v, want fn's error", err)
	}
	for _, name := range []string{"cpu.out", "mem.out", "trace.out"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

// TestRunUnwritablePath: a profile that cannot be created is an error, for
// the up-front profiles before fn runs and for the heap profile after.
func TestRunUnwritablePath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.out")
	for _, f := range []Flags{{CPU: bad}, {Trace: bad}} {
		ran := false
		if err := f.Run(func() error { ran = true; return nil }); err == nil {
			t.Fatalf("%+v: unwritable path accepted", f)
		}
		if ran {
			t.Fatalf("%+v: fn ran without its profile", f)
		}
	}
	f := Flags{Mem: bad}
	if err := f.Run(func() error { return nil }); err == nil {
		t.Fatal("unwritable heap profile path accepted")
	}
}
