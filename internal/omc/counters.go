package omc

import "repro/internal/stats"

// An OMC's counters, one slot each in its stats set.
const (
	versionsReceived stats.Slot = iota
	sameEpochReplacements
	versionsUnmapped
	pagesAllocated
	metaWrites
	recepochAdvances
	epochsMerged
	entriesMerged
	compactions
	versionsCompacted
	contextDumps
	genesisRecords
	commitRecords
	sealRecords
	numCounters
)

// counterNames is the rendered name of every OMC counter.
var counterNames = [numCounters]string{
	versionsReceived:      "versions_received",
	sameEpochReplacements: "same_epoch_replacements",
	versionsUnmapped:      "versions_unmapped",
	pagesAllocated:        "pages_allocated",
	metaWrites:            "meta_writes",
	recepochAdvances:      "recepoch_advances",
	epochsMerged:          "epochs_merged",
	entriesMerged:         "entries_merged",
	compactions:           "compactions",
	versionsCompacted:     "versions_compacted",
	contextDumps:          "context_dumps",
	genesisRecords:        "genesis_records",
	commitRecords:         "commit_records",
	sealRecords:           "seal_records",
}

// The group's own counters: the min-ver broadcast it charges to every
// member at once.
const (
	groupMinverMessages stats.Slot = iota
	groupMinverReports
	groupMinverLowerMessages
	groupMinverLowered
	numGroupCounters
)

// groupCounterNames is the rendered name of every group counter.
var groupCounterNames = [numGroupCounters]string{
	groupMinverMessages:      "minver_messages",
	groupMinverReports:       "minver_reports",
	groupMinverLowerMessages: "minver_lower_messages",
	groupMinverLowered:       "minver_lowered",
}
