package stats

import (
	"fmt"
	"math/bits"
)

// histBuckets is bucket 0 (values <= 0) plus one bucket per power of two:
// bucket i (i >= 1) counts samples v with 2^(i-1) <= v < 2^i.
const histBuckets = 65

// Histogram is a log2-bucketed distribution of int64 samples: count, sum,
// min and max, plus approximate quantiles, which the observability
// timelines need for latency- and occupancy-shaped metrics (bank-queue
// depth, walk spans).
// The zero value is an empty histogram ready for use.
type Histogram struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets [histBuckets]int64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bucketOf(v)]++
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// exclusive upper edge of the bucket holding the q*Count-th sample, or Max
// when that bucket is the last occupied one. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.Count-1))
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen > rank {
			upper := h.Max
			if i > 0 && i < 63 { // 1<<63 overflows int64; that bucket's edge is Max anyway
				if edge := int64(1) << uint(i); edge-1 < upper {
					upper = edge - 1
				}
			} else if i == 0 && upper > 0 {
				upper = 0
			}
			if upper < h.Min {
				upper = h.Min
			}
			return upper
		}
	}
	return h.Max
}

// String renders the histogram compactly; empty histograms say so instead
// of printing zeros that mimic a stream of zero samples.
func (h *Histogram) String() string {
	if h.Count == 0 {
		return "n=0 (empty)"
	}
	return fmt.Sprintf("n=%d min=%d max=%d mean=%.2f p50<=%d p99<=%d",
		h.Count, h.Min, h.Max, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
}
