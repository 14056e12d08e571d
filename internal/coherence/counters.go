package coherence

import "repro/internal/stats"

// The hierarchy's counters, one slot each in its stats set.
const (
	l1LoadHits stats.Slot = iota
	l2LoadHits
	l1StoreHits
	l2StoreHits
	llcHits
	llcMisses
	remoteInvalidations
	remoteDowngrades
	backInvalidations
	coherenceWritebacks
	l1DirtyEvictions
	l2DirtyEvictions
	llcDirtyEvictions
	numCounters
)

// counterNames is the rendered name of every counter.
var counterNames = [numCounters]string{
	l1LoadHits:          "l1_load_hits",
	l2LoadHits:          "l2_load_hits",
	l1StoreHits:         "l1_store_hits",
	l2StoreHits:         "l2_store_hits",
	llcHits:             "llc_hits",
	llcMisses:           "llc_misses",
	remoteInvalidations: "remote_invalidations",
	remoteDowngrades:    "remote_downgrades",
	backInvalidations:   "back_invalidations",
	coherenceWritebacks: "coherence_writebacks",
	l1DirtyEvictions:    "l1_dirty_evictions",
	l2DirtyEvictions:    "l2_dirty_evictions",
	llcDirtyEvictions:   "llc_dirty_evictions",
}
