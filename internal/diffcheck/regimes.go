package diffcheck

// RegimeParams returns the i-th trace of the standard verification sweep:
// a deterministic rotation over machine shapes and access mixes, each
// regime seeded differently so a sweep of n traces explores n distinct
// traces across six regimes. Every regime closes well over eight epochs
// and sweeps at least three crash points; regimes 1 and 5 run the epoch
// wrap-around protocol with narrow wire widths so group transitions fire
// many times within a short trace. The test suite and the nvcheck soak CLI
// share this schedule.
func RegimeParams(i int, baseSeed int64) Params {
	p := Params{
		Seed:        baseSeed + int64(i),
		Cores:       4,
		CoresPerVD:  2,
		Steps:       1400,
		Lines:       80,
		SharePct:    50,
		WritePct:    50,
		EpochSize:   14,
		Pattern:     PatternUniform,
		Walker:      true,
		OMCs:        2,
		CrashPoints: 4,
	}
	switch i % 6 {
	case 0:
		// Baseline regime: defaults above.
	case 1:
		// Wrap-around: 5-bit wire, group transition every 16 epochs.
		p.WrapWidth = 5
		p.SharePct = 60
		p.EpochSize = 10
	case 2:
		// Battery-backed OMC buffer with a tiny capacity (forced evictions).
		p.Buffered = true
		p.Pattern = PatternHotspot
	case 3:
		// Wider machine: 8 cores, 4 versioned domains, 4 OMC partitions.
		p.Cores = 8
		p.Lines = 96
		p.OMCs = 4
		p.Steps = 1600
	case 4:
		// One core per VD, store-heavy, strided sweep.
		p.CoresPerVD = 1
		p.WritePct = 70
		p.Pattern = PatternStride
	case 5:
		// Wrap-around at the narrowest legal width plus the OMC buffer:
		// 4-bit wire wraps every 8 epochs while versions sit buffered.
		p.WrapWidth = 4
		p.Buffered = true
		p.SharePct = 70
		p.EpochSize = 10
	}
	return p
}

// RegimeCount is the size of the rotation in RegimeParams.
const RegimeCount = 6
