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
