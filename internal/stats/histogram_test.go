package stats

import (
	"strings"
	"testing"
)

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 0, -5} {
		h.Observe(v)
	}
	if h.Count != 6 || h.Min != -5 || h.Max != 100 || h.Sum != 101 {
		t.Fatalf("histogram = %+v", h)
	}
	// v<=0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 100 -> bucket 7.
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Buckets[2] != 2 || h.Buckets[7] != 1 {
		t.Fatalf("buckets = %v", h.Buckets[:8])
	}
}

func TestHistogramMergeEmptySides(t *testing.T) {
	obs := func(vs ...int64) Histogram {
		var h Histogram
		for _, v := range vs {
			h.Observe(v)
		}
		return h
	}
	cases := []struct {
		name string
		a, b Histogram
		want Histogram
	}{
		{"empty-empty", Histogram{}, Histogram{}, Histogram{}},
		{"empty-nonempty", Histogram{}, obs(4, 16), obs(4, 16)},
		{"nonempty-empty", obs(4, 16), Histogram{}, obs(4, 16)},
		{"both", obs(4, 16), obs(1, 1024), obs(4, 16, 1, 1024)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.a
			got.Merge(&tc.b)
			if got != tc.want {
				t.Fatalf("merge = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// Merging per-cell histograms in cell order equals observing the
// concatenated stream — the property parallel sweep rollups rely on.
func TestHistogramMergeEqualsSerial(t *testing.T) {
	streams := [][]int64{{7, 0, 3}, {}, {1 << 40}, {12, 12, 13}}
	var serial, merged Histogram
	for _, s := range streams {
		var cell Histogram
		for _, v := range s {
			serial.Observe(v)
			cell.Observe(v)
		}
		merged.Merge(&cell)
	}
	if merged != serial {
		t.Fatalf("merged != serial\nmerged %+v\nserial %+v", merged, serial)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if q := h.Quantile(0); q < 1 || q > 1 {
		t.Fatalf("p0 = %d, want 1", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("p100 = %d, want 100", q)
	}
	// The median of 1..100 lives in bucket [32,63]; the bound is its edge.
	if q := h.Quantile(0.5); q != 63 {
		t.Fatalf("p50 = %d, want 63", q)
	}
	// A quantile bound never exceeds Max even in the top bucket.
	var big Histogram
	big.Observe(5)
	big.Observe(6)
	if q := big.Quantile(0.99); q != 6 {
		t.Fatalf("p99 = %d, want 6", q)
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	if got := h.String(); got != "n=0 (empty)" {
		t.Fatalf("empty String() = %q", got)
	}
	h.Observe(8)
	if s := h.String(); !strings.Contains(s, "n=1") || !strings.Contains(s, "min=8") {
		t.Fatalf("String() = %q", s)
	}
}
