package mem

import "repro/internal/stats"

// The NVM's counters, one slot each in its stats set. Bytes and writes
// are counted per WriteClass in the numWriteClasses slots from bytesBase
// and from writesBase on, in WriteClass order.
const (
	stallCycles stats.Slot = iota
	stalledWrites
	nakBackoffCycles
	nakDroppedWrites
	cutLostWrites
	cutTornWrites
	cutBitFlips
	bytesBase
	writesBase     = bytesBase + stats.Slot(numWriteClasses)
	numNVMCounters = writesBase + stats.Slot(numWriteClasses)
)

// nvmCounterNames is the rendered name of every NVM counter.
var nvmCounterNames = [numNVMCounters]string{
	stallCycles:                       "stall_cycles",
	stalledWrites:                     "stalled_writes",
	nakBackoffCycles:                  "nak_backoff_cycles",
	nakDroppedWrites:                  "nak_dropped_writes",
	cutLostWrites:                     "cut_lost_writes",
	cutTornWrites:                     "cut_torn_writes",
	cutBitFlips:                       "cut_bit_flips",
	bytesBase + stats.Slot(WData):     "bytes_data",
	bytesBase + stats.Slot(WLog):      "bytes_log",
	bytesBase + stats.Slot(WMeta):     "bytes_meta",
	bytesBase + stats.Slot(WContext):  "bytes_context",
	writesBase + stats.Slot(WData):    "writes_data",
	writesBase + stats.Slot(WLog):     "writes_log",
	writesBase + stats.Slot(WMeta):    "writes_meta",
	writesBase + stats.Slot(WContext): "writes_context",
}

// The DRAM's counters, one slot each in its stats set.
const (
	dramWritebacks stats.Slot = iota
	dramBytesWritten
	dramStaleDropped
	dramOIDLookups
	numDRAMCounters
)

// dramCounterNames is the rendered name of every DRAM counter.
var dramCounterNames = [numDRAMCounters]string{
	dramWritebacks:   "writebacks",
	dramBytesWritten: "bytes_written",
	dramStaleDropped: "stale_writebacks_dropped",
	dramOIDLookups:   "oid_lookups",
}
