package repro

import (
	"flag"
	"testing"
)

// benchSmoke runs one iteration of a benchmark function inside the regular
// test suite, so `go test` (including -short CI runs) catches bit-rot in the
// benchmark suite without paying for a timed measurement.
func benchSmoke(t *testing.T, name string, fn func(*testing.B)) {
	t.Helper()
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(prev)
	failed := true
	r := testing.Benchmark(func(b *testing.B) {
		b.Cleanup(func() { failed = b.Failed() })
		fn(b)
	})
	if failed {
		t.Fatalf("benchmark %s failed (see log above)", name)
	}
	if r.N < 1 {
		t.Fatalf("benchmark %s did not run (N=%d)", name, r.N)
	}
}

// TestBenchmarkSmoke exercises every figure/table benchmark for exactly one
// iteration each.
func TestBenchmarkSmoke(t *testing.T) {
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"Table2IdealSubstrate", BenchmarkTable2IdealSubstrate},
		{"PiCLL2Substrate", BenchmarkPiCLL2Substrate},
		{"Fig11NormalizedCycles", BenchmarkFig11NormalizedCycles},
		{"Fig12WriteAmplification", BenchmarkFig12WriteAmplification},
		{"Fig13MasterTableCost", BenchmarkFig13MasterTableCost},
		{"Fig14EpochSensitivity", BenchmarkFig14EpochSensitivity},
		{"Fig15EvictReasons", BenchmarkFig15EvictReasons},
		{"Fig16OMCBuffer", BenchmarkFig16OMCBuffer},
		{"Fig17Bandwidth", BenchmarkFig17Bandwidth},
		{"Fig17BurstyEpochs", BenchmarkFig17BurstyEpochs},
		{"AblateWalker", BenchmarkAblateWalker},
		{"AblateSuperBlock", BenchmarkAblateSuperBlock},
		{"Schemes", BenchmarkSchemes},
		{"FileSeal", BenchmarkFileSeal},
		{"FileSealFaulted", BenchmarkFileSealFaulted},
		{"TraceEncode", BenchmarkTraceEncode},
		{"TraceDecode", BenchmarkTraceDecode},
		{"WrapAround", BenchmarkWrapAround},
		{"NVOverlayStorePath", BenchmarkNVOverlayStorePath},
	}
	for _, bench := range benches {
		bench := bench
		t.Run(bench.name, func(t *testing.T) {
			benchSmoke(t, bench.name, bench.fn)
		})
	}
}
