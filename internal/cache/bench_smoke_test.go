package cache

import (
	"flag"
	"testing"
)

// TestBenchmarkSmoke runs each cache benchmark for one iteration so the
// regular test suite catches bit-rot in the benchmark code.
func TestBenchmarkSmoke(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(prev)
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"LookupHit", BenchmarkLookupHit},
		{"LookupMiss", BenchmarkLookupMiss},
		{"InsertEvict", BenchmarkInsertEvict},
		{"LLCMissInsert", BenchmarkLLCMissInsert},
	}
	for _, bench := range benches {
		bench := bench
		t.Run(bench.name, func(t *testing.T) {
			failed := true
			r := testing.Benchmark(func(b *testing.B) {
				b.Cleanup(func() { failed = b.Failed() })
				bench.fn(b)
			})
			if failed || r.N < 1 {
				t.Fatalf("benchmark %s failed (N=%d)", bench.name, r.N)
			}
		})
	}
}
