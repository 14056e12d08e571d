package diffcheck

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/tracefile"
)

// TestEachMatchesOps locks the streaming generator against the
// materialised trace, including early stop and prefix stability.
func TestEachMatchesOps(t *testing.T) {
	for i := 0; i < RegimeCount; i++ {
		p := RegimeParams(i, 77)
		ops := p.Ops()
		if len(ops) != p.Steps {
			t.Fatalf("regime %d: Ops() returned %d steps, want %d", i, len(ops), p.Steps)
		}
		var streamed []Step
		p.Each(p.Steps, func(k int, s Step) bool {
			if k != len(streamed) {
				t.Fatalf("regime %d: Each index %d out of order", i, k)
			}
			streamed = append(streamed, s)
			return true
		})
		if !reflect.DeepEqual(ops, streamed) {
			t.Fatalf("regime %d: Each and Ops disagree", i)
		}
		// A prefix iteration equals the prefix of the full trace.
		n := 0
		p.Each(p.Steps/3, func(k int, s Step) bool {
			if s != ops[k] {
				t.Fatalf("regime %d: prefix step %d = %+v, want %+v", i, k, s, ops[k])
			}
			n++
			return true
		})
		if n != p.Steps/3 {
			t.Fatalf("regime %d: prefix yielded %d steps", i, n)
		}
		// Early stop stops.
		n = 0
		p.Each(p.Steps, func(int, Step) bool { n++; return n < 10 })
		if n != 10 {
			t.Fatalf("regime %d: early stop ran %d steps", i, n)
		}
	}
}

// TestParamsShapeRoundTrip locks the header packing across every regime.
func TestParamsShapeRoundTrip(t *testing.T) {
	for i := 0; i < RegimeCount; i++ {
		p := RegimeParams(i, 123)
		s, err := p.shape()
		if err != nil {
			t.Fatalf("regime %d: shape: %v", i, err)
		}
		got, err := paramsFromShape(s)
		if err != nil {
			t.Fatalf("regime %d: paramsFromShape: %v", i, err)
		}
		if got != p {
			t.Fatalf("regime %d: params round-trip\n got %+v\nwant %+v", i, got, p)
		}
	}
	// A forged extra section is rejected, not misread.
	s, err := RegimeParams(0, 1).shape()
	if err != nil {
		t.Fatal(err)
	}
	s.Extra = s.Extra[:len(s.Extra)-1]
	if _, err := paramsFromShape(s); err == nil {
		t.Fatal("short extra section accepted")
	}
	s2, err := RegimeParams(0, 1).shape()
	if err != nil {
		t.Fatal(err)
	}
	s2.Extra[6] = 99 // unknown pattern enum
	if _, err := paramsFromShape(s2); err == nil {
		t.Fatal("unknown pattern enum accepted")
	}
}

// TestRecordReplayByteIdentical is the tentpole lock: for every regime,
// generate → record → replay-from-file produces exactly the in-memory
// run's Result — same counters, same golden-model verdicts, same decoded
// Params — with the trace streamed off disk.
func TestRecordReplayByteIdentical(t *testing.T) {
	for i := 0; i < RegimeCount; i++ {
		p := RegimeParams(i, 9)
		want, d := Run(p, nil)
		if d != nil {
			t.Fatalf("regime %d diverged in memory: %s", i, d.Error())
		}
		fsys := fault.NewMemFS()
		info, err := RecordTrace(fsys, "r.trc", p)
		if err != nil {
			t.Fatalf("regime %d: record: %v", i, err)
		}
		if info.Records != uint64(p.Steps) {
			t.Fatalf("regime %d: recorded %d steps, want %d", i, info.Records, p.Steps)
		}
		rp, err := ReadParams(fsys, "r.trc")
		if err != nil {
			t.Fatalf("regime %d: read params: %v", i, err)
		}
		if rp != p {
			t.Fatalf("regime %d: header params %+v, want %+v", i, rp, p)
		}
		got, d, err := RunFile(fsys, "r.trc", nil)
		if err != nil {
			t.Fatalf("regime %d: replay: %v", i, err)
		}
		if d != nil {
			t.Fatalf("regime %d diverged from file: %s", i, d.Error())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("regime %d: file replay result differs\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestRecordReplayParallelJobs locks the -j contract for file-backed
// regimes: a sweep replaying recorded traces through the parallel engine
// yields the identical Result sequence at -j 1 and -j 4, and both match
// the serial in-memory sweep.
func TestRecordReplayParallelJobs(t *testing.T) {
	const seed = 31
	want := make([]Result, RegimeCount)
	fsys := fault.NewMemFS()
	paths := make([]string, RegimeCount)
	for i := 0; i < RegimeCount; i++ {
		p := RegimeParams(i, seed)
		res, d := Run(p, nil)
		if d != nil {
			t.Fatalf("regime %d diverged: %s", i, d.Error())
		}
		want[i] = res
		paths[i] = fmt.Sprintf("regime-%d.trc", i)
		if _, err := RecordTrace(fsys, paths[i], p); err != nil {
			t.Fatalf("regime %d: record: %v", i, err)
		}
	}
	// Recording is done: from here the MemFS is only read, so concurrent
	// replays are safe.
	for _, jobs := range []int{1, 4} {
		got := make([]Result, RegimeCount)
		parallel.ForEachOrdered(jobs, RegimeCount, func(i int) Result {
			res, d, err := RunFile(fsys, paths[i], nil)
			if err != nil {
				t.Errorf("jobs=%d regime %d: %v", jobs, i, err)
			}
			if d != nil {
				t.Errorf("jobs=%d regime %d diverged: %s", jobs, i, d.Error())
			}
			return res
		}, func(i int, r Result) bool {
			got[i] = r
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: file-backed sweep differs from serial in-memory sweep", jobs)
		}
	}
}

// TestRecordTraceRefusesFaultRegimes: the fault schedule lives outside the
// access stream, so recording one must fail loudly.
func TestRecordTraceRefusesFaultRegimes(t *testing.T) {
	p := RegimeParams(0, 5)
	p.Fault = "torn"
	if _, err := RecordTrace(fault.NewMemFS(), "f.trc", p); err == nil {
		t.Fatal("fault regime recorded")
	}
}

// TestRunFileErrors: damaged and short trace files surface as errors, not
// divergences or panics.
func TestRunFileErrors(t *testing.T) {
	fsys := fault.NewMemFS()
	if _, _, err := RunFile(fsys, "missing.trc", nil); err == nil {
		t.Fatal("missing file accepted")
	}

	// A trace whose header promises more steps than its chunks hold: record
	// a full trace, then rewrite it cut before the end marker plus a chunk.
	p := RegimeParams(0, 3)
	if _, err := RecordTrace(fsys, "full.trc", p); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile("full.trc")
	if err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Create("torn.trc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[:len(data)-17]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunFile(fsys, "torn.trc", nil); err == nil {
		t.Fatal("torn trace replayed cleanly")
	}

	// A header that decodes but lies about step count (steps beyond the
	// recorded stream) is caught by the short-file check.
	short := RegimeParams(1, 3)
	if _, err := RecordTrace(fsys, "short.trc", short); err != nil {
		t.Fatal(err)
	}
	raw, err := fsys.ReadFile("short.trc")
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with a bigger Steps in the extra words and a fresh header
	// checksum, keeping the chunks: replay must fail on exhaustion.
	big := short
	big.Steps = short.Steps * 2
	bigShape, err := big.shape()
	if err != nil {
		t.Fatal(err)
	}
	hw := headerBytes(t, bigShape)
	f2, err := fsys.Create("lying.trc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write(append(hw, raw[len(hw):]...)); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunFile(fsys, "lying.trc", nil); err == nil {
		t.Fatal("short trace with an oversized header step count replayed cleanly")
	}
}

// headerBytes renders a shape's header through a throwaway recording, so
// the test does not re-implement the header encoding.
func headerBytes(t *testing.T, s tracefile.Shape) []byte {
	t.Helper()
	fsys := fault.NewMemFS()
	w, err := tracefile.Create(fsys, "h.trc", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile("h.trc")
	if err != nil {
		t.Fatal(err)
	}
	return data[:len(data)-16] // drop the end marker
}
