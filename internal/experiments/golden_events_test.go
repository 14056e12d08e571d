package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/diffcheck"
	"repro/internal/obs"
)

const goldenEventsFile = "testdata/golden/events.txt"

// streamLine renders one JSONL event stream as its size, line count and
// sha256.
func streamLine(name string, stream []byte) string {
	return fmt.Sprintf("%s bytes=%d events=%d sha256=%x\n",
		name, len(stream), bytes.Count(stream, []byte("\n")), sha256.Sum256(stream))
}

// TestEventStreamsGolden locks the observability event streams, which
// carry what the scheme stats do not: the order of every protocol event
// and the write-back reason of each version eviction. It pins the smoke
// timeline stream of NVOverlay over the golden workloads and the stream
// of three differential traces whose third baseline rotates through
// PiCL-L2, SWShadow and HWShadow (the baselines' hierarchy emits its own
// evictions).
func TestEventStreamsGolden(t *testing.T) {
	var got strings.Builder
	cells, err := Timeline(Smoke, goldenWorkloads, true)
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString(streamLine("timeline/"+strings.Join(goldenWorkloads, ",")+"/smoke", ConcatEvents(cells)))

	for i := 0; i < 3; i++ {
		p := diffcheck.RegimeParams(i, 1)
		sink := obs.NewJSONLSink("diffcheck")
		bus := obs.NewBus()
		bus.Attach(sink)
		res, d := diffcheck.Run(p, bus)
		if d != nil {
			t.Fatal(d.Error())
		}
		got.WriteString(streamLine(fmt.Sprintf("diffcheck/seed=%d/%s", p.Seed,
			strings.Join(res.Baselines, ",")), sink.Bytes()))
	}

	compareGolden(t, goldenEventsFile, got.String())
}

// compareGolden checks got against a committed line-oriented golden file
// and names every changed line; with -update it rewrites the file instead.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines := strings.Split(got, "\n")
	for i, w := range strings.Split(string(want), "\n") {
		if i >= len(gotLines) || gotLines[i] != w {
			g := ""
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Errorf("%s line %d changed:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
