package baseline

import "repro/internal/stats"

// Every baseline's counters, one slot each in its stats set; a scheme
// renders only the ones it touches.
const (
	epochBoundaries stats.Slot = iota
	barrierStallCycles
	flushedLines
	acsWalks
	acsWritebacks
	logEntries
	homeWrites
	shadowCopies
	backgroundWrites
	tableEntries
	tableLinesDone
	numCounters
)

// counterNames is the rendered name of every counter.
var counterNames = [numCounters]string{
	epochBoundaries:    "epoch_boundaries",
	barrierStallCycles: "barrier_stall_cycles",
	flushedLines:       "flushed_lines",
	acsWalks:           "acs_walks",
	acsWritebacks:      "acs_writebacks",
	logEntries:         "log_entries",
	homeWrites:         "home_writes",
	shadowCopies:       "shadow_copies",
	backgroundWrites:   "background_writes",
	tableEntries:       "table_entries",
	tableLinesDone:     "table_lines_done",
}
