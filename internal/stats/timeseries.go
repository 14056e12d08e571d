package stats

import (
	"fmt"
	"strings"
)

// TimeSeries accumulates a value (typically bytes written) into a fixed
// number of buckets over a progress axis normalised to [0,1). It is used to
// regenerate the paper's Figure 17 (NVM write bandwidth over total progress).
type TimeSeries struct {
	buckets []int64
	// cycles[i] records the span of simulated cycles attributed to bucket i,
	// so callers can convert bytes/bucket into bytes/cycle (bandwidth).
	cycles    []int64
	lastCycle uint64
}

// NewTimeSeries creates a series with n buckets.
func NewTimeSeries(n int) *TimeSeries {
	if n <= 0 {
		n = 1
	}
	return &TimeSeries{buckets: make([]int64, n), cycles: make([]int64, n)}
}

// Len returns the number of buckets.
func (t *TimeSeries) Len() int { return len(t.buckets) }

// Record adds value to the bucket for the given progress fraction in [0,1].
func (t *TimeSeries) Record(progress float64, value int64) {
	i := t.index(progress)
	t.buckets[i] += value
}

// Tick informs the series that simulated time has advanced to cycle at the
// given progress point; the cycle delta is attributed to that bucket.
func (t *TimeSeries) Tick(progress float64, cycle uint64) {
	if cycle <= t.lastCycle {
		return
	}
	i := t.index(progress)
	t.cycles[i] += int64(cycle - t.lastCycle)
	t.lastCycle = cycle
}

func (t *TimeSeries) index(progress float64) int {
	if progress < 0 {
		progress = 0
	}
	i := int(progress * float64(len(t.buckets)))
	if i >= len(t.buckets) {
		i = len(t.buckets) - 1
	}
	return i
}

// Cycles returns the simulated cycles attributed to bucket i.
func (t *TimeSeries) Cycles(i int) int64 { return t.cycles[i] }

// Total returns the sum over all buckets.
func (t *TimeSeries) Total() int64 {
	var sum int64
	for _, v := range t.buckets {
		sum += v
	}
	return sum
}

// Peak returns the maximum bucket value.
func (t *TimeSeries) Peak() int64 {
	var max int64
	for _, v := range t.buckets {
		if v > max {
			max = v
		}
	}
	return max
}

// Bandwidth returns bytes-per-cycle for bucket i (0 when no cycles elapsed).
func (t *TimeSeries) Bandwidth(i int) float64 {
	if t.cycles[i] == 0 {
		return 0
	}
	return float64(t.buckets[i]) / float64(t.cycles[i])
}

// BandwidthGBs converts bucket i's bytes/cycle into GB/s at the given clock
// frequency in Hz.
func (t *TimeSeries) BandwidthGBs(i int, hz float64) float64 {
	return t.Bandwidth(i) * hz / 1e9
}

// Sparkline renders the series as a coarse ASCII chart, useful in CLI dumps.
func (t *TimeSeries) Sparkline() string {
	glyphs := []rune("▁▂▃▄▅▆▇█")
	peak := t.Peak()
	if peak == 0 {
		return strings.Repeat("▁", len(t.buckets))
	}
	var b strings.Builder
	for _, v := range t.buckets {
		idx := int(float64(v) / float64(peak) * float64(len(glyphs)-1))
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// String summarises the series.
func (t *TimeSeries) String() string {
	return fmt.Sprintf("total=%d peak=%d %s", t.Total(), t.Peak(), t.Sparkline())
}
