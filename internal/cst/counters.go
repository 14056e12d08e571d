package cst

import (
	"repro/internal/cache"
	"repro/internal/stats"
)

// The frontend's counters, one slot each in its stats set. The versions
// sent to the OMC are counted per reason in the cache.NumReasons slots
// from evictBase on, in cache.Reason order.
const (
	l1LoadHits stats.Slot = iota
	l2LoadHits
	l1StoreHits
	l2StoreHits
	llcHits
	llcMisses
	llcDRAMWritebacks
	remoteInvalidations
	remoteDowngrades
	c2cTransfers
	l1DirtyEvictions
	storeEvictions
	epochAdvances
	coherenceEpochAdvances
	tagWalks
	stallFromVersions
	stallFromContext
	evictBase
	numCounters = evictBase + stats.Slot(cache.NumReasons)
)

// counterNames is the rendered name of every counter.
var counterNames = [numCounters]string{
	l1LoadHits:                               "l1_load_hits",
	l2LoadHits:                               "l2_load_hits",
	l1StoreHits:                              "l1_store_hits",
	l2StoreHits:                              "l2_store_hits",
	llcHits:                                  "llc_hits",
	llcMisses:                                "llc_misses",
	llcDRAMWritebacks:                        "llc_dram_writebacks",
	remoteInvalidations:                      "remote_invalidations",
	remoteDowngrades:                         "remote_downgrades",
	c2cTransfers:                             "c2c_transfers",
	l1DirtyEvictions:                         "l1_dirty_evictions",
	storeEvictions:                           "store_evictions",
	epochAdvances:                            "epoch_advances",
	coherenceEpochAdvances:                   "coherence_epoch_advances",
	tagWalks:                                 "tag_walks",
	stallFromVersions:                        "stall_from_versions",
	stallFromContext:                         "stall_from_context",
	evictBase + stats.Slot(ReasonCapacity):   "evict_capacity",
	evictBase + stats.Slot(ReasonCoherence):  "evict_coherence",
	evictBase + stats.Slot(ReasonWalk):       "evict_walk",
	evictBase + stats.Slot(ReasonStoreEvict): "evict_storeevict",
	evictBase + stats.Slot(ReasonDrain):      "evict_drain",
}

// evictSlot is the slot counting versions sent for reason r.
func evictSlot(r Reason) stats.Slot { return evictBase + stats.Slot(r) }
