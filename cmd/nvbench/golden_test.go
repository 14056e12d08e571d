package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// update rewrites the committed golden output instead of comparing:
//
//	go test ./cmd/nvbench -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/all-smoke.txt from the current code")

const goldenAllSmoke = "testdata/all-smoke.txt"

// TestAllSmokeGolden pins every figure at smoke scale byte for byte: the
// output of `nvbench -exp all -scale smoke -time=false` must match the
// committed text. A failure names the figure and line that moved.
func TestAllSmokeGolden(t *testing.T) {
	o, err := parseFlags([]string{"-exp", "all", "-scale", "smoke", "-time=false"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAllSmoke, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenAllSmoke)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	title := "" // the figure a line belongs to: the line after the last blank one
	for i := range max(len(got), len(exp)) {
		g, w := lineAt(got, i), lineAt(exp, i)
		if i == 0 || lineAt(exp, i-1) == "" {
			title = w
		}
		if g != w {
			t.Fatalf("%s: line %d under %q changed:\n got: %q\nwant: %q", goldenAllSmoke, i+1, title, g, w)
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
