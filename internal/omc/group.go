package omc

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Group is a set of OMCs, each owning an address partition (paper §V-F:
// "multiple memory controllers may co-exist, each responsible for serving
// requests on an address partition"). OMC 0 is the master: tag-walker
// min-ver reports are fan-out to every member (the master aggregation
// messages are counted), and the globally recoverable epoch is the minimum
// across members.
type Group struct {
	cfg  *sim.Config
	omcs []*OMC
	stat *stats.Set

	// Min-ver ledger (§V-B, §V-F), the only one: members keep no min-ver
	// of their own. It aggregates every tag-walk report once, tracking the
	// minimum incrementally via (curMin, atMin), and fans out to members
	// only when the recoverable floor rises, which is exactly when they
	// have merge work to do. Each member sees the same floor sequence the
	// modelled broadcast would give it: same advances, same merge order,
	// same persisted records.
	minVer   []uint64
	curMin   uint64 // min(minVer)
	atMin    int    // how many VDs sit at curMin
	recFloor uint64 // last floor fanned out to members
}

// NewGroup builds n >= 1 OMCs sharing one NVM device.
func NewGroup(cfg *sim.Config, nvm *mem.NVM, n int) *Group {
	g := &Group{
		cfg:    cfg,
		stat:   stats.FromTable("omcgroup", groupCounterNames[:]),
		minVer: make([]uint64, cfg.VDs()),
		atMin:  cfg.VDs(),
	}
	for i := 0; i < n; i++ {
		o := New(cfg, nvm, i)
		// The genesis record lets recovery tell a young run (nothing
		// committed yet) apart from a destroyed commit log, and tells it
		// how many partitions to scan.
		o.writeGenesis(n)
		g.omcs = append(g.omcs, o)
	}
	return g
}

// Route returns the OMC owning addr's partition (4 KB interleaving).
func (g *Group) Route(addr uint64) *OMC {
	return g.omcs[int((addr>>12)%uint64(len(g.omcs)))]
}

// ReceiveVersion routes a version to its partition's OMC.
func (g *Group) ReceiveVersion(v Version, now uint64) (stall uint64) {
	return g.Route(v.Addr).ReceiveVersion(v, now)
}

// ReportMinVer records a tag walker's min-ver message for a VD (paper
// §V-B) in the group ledger and merges any epochs that became
// recoverable. The modelled hardware broadcasts the report to every
// member, so the message and report counters are charged once per member;
// the simulator only touches members when the recoverable floor rises.
func (g *Group) ReportMinVer(vd int, ver uint64, now uint64) {
	g.stat.AddAt(groupMinverMessages, int64(len(g.omcs)))
	g.stat.AddAt(groupMinverReports, int64(len(g.omcs)))
	old := g.minVer[vd]
	if ver < old {
		// A VD's view may regress transiently if an older version surfaced;
		// take the conservative minimum and attempt no advance.
		g.minVer[vd] = ver
		g.ledgerLower(old, ver)
		return
	}
	g.minVer[vd] = ver
	g.ledgerRaise(old, ver)
	er := g.curMin
	if er > 0 {
		er--
	}
	if er <= g.recFloor {
		return
	}
	for _, o := range g.omcs {
		o.advanceRecEpochTo(er, now)
	}
	g.recFloor = er
}

// LowerMinVer conservatively lowers a VD's standing min-ver without
// advancing the recoverable epoch. The frontend calls it when a dirty
// version of an old epoch migrates into a VD via cache-to-cache transfer
// (§IV-A3): the receiving VD now holds an unpersisted version older than
// its last tag-walk report, so rec-epoch must not advance past it until the
// VD's next walk confirms persistence.
func (g *Group) LowerMinVer(vd int, ver uint64, now uint64) {
	g.stat.AddAt(groupMinverLowerMessages, int64(len(g.omcs)))
	if ver < g.minVer[vd] {
		old := g.minVer[vd]
		g.minVer[vd] = ver
		g.ledgerLower(old, ver)
		g.stat.AddAt(groupMinverLowered, int64(len(g.omcs)))
	}
}

// ledgerLower folds a vd's min-ver drop old -> ver into (curMin, atMin).
func (g *Group) ledgerLower(old, ver uint64) {
	switch {
	case ver < g.curMin:
		g.curMin, g.atMin = ver, 1
	case ver == g.curMin:
		// old > ver == curMin, so this VD was not counted at the min yet.
		g.atMin++
	}
}

// ledgerRaise folds a vd's min-ver rise old -> ver into (curMin, atMin); a
// full rescan happens only when the last VD leaves the minimum — which is
// when the floor moves and members do merge work anyway.
func (g *Group) ledgerRaise(old, ver uint64) {
	if old == ver || old != g.curMin {
		return
	}
	g.atMin--
	if g.atMin == 0 {
		g.curMin = g.minVer[0]
		g.atMin = 1
		for _, v := range g.minVer[1:] {
			if v < g.curMin {
				g.curMin, g.atMin = v, 1
			} else if v == g.curMin {
				g.atMin++
			}
		}
	}
}

// DumpContext persists a VD's context through the master OMC.
func (g *Group) DumpContext(vd int, epoch, now uint64) uint64 {
	return g.omcs[0].DumpContext(vd, epoch, now)
}

// RecEpoch returns the globally recoverable epoch: the minimum across
// members (all must have persisted an epoch for it to be recoverable).
func (g *Group) RecEpoch() uint64 {
	min := g.omcs[0].RecEpoch()
	for _, o := range g.omcs[1:] {
		if e := o.RecEpoch(); e < min {
			min = e
		}
	}
	return min
}

// Seal finalises all members at end of run. The recoverable epoch is
// raised to the group-wide maximum epoch: a partition that received no
// version from the final epochs has nothing left to persist for them, so
// after its own seal those epochs are recoverable from its perspective
// too. Sealing members independently would leave Group.RecEpoch (the
// minimum across members) below the last epoch whenever the address
// interleaving starved one partition, and replication targets would stop
// short of the final state.
func (g *Group) Seal(now uint64) {
	var max uint64
	for _, o := range g.omcs {
		if o.maxEpoch > max {
			max = o.maxEpoch
		}
	}
	for _, o := range g.omcs {
		o.SealTo(now, max)
	}
}

// RecoverImage materialises the consistent image across all partitions.
func (g *Group) RecoverImage() (*mem.Table[uint64], uint64) {
	img := mem.NewTable[uint64](g.MasterEntries())
	var lat uint64
	for _, o := range g.omcs {
		lat += o.recoverInto(img)
	}
	return img, lat
}

// TimeTravelRead routes a fall-through snapshot read to addr's partition.
func (g *Group) TimeTravelRead(addr, epoch uint64) (uint64, uint64, bool) {
	return g.Route(addr).TimeTravelRead(addr, epoch)
}

// EpochDelta merges the per-partition deltas of epoch e: the incremental
// changes the epoch captured, as an address->payload table. This is the
// unit of remote replication (§V-E): each delta can be shipped and
// replayed as a redo log on a backup machine.
func (g *Group) EpochDelta(e uint64) *mem.Table[uint64] {
	delta := mem.NewTable[uint64](0)
	for _, o := range g.omcs {
		o.deltaInto(e, delta)
	}
	return delta
}

// Epochs returns the union of accessible epoch ids across partitions,
// deduplicated and sorted ascending so exports and replication walk the
// epochs in a byte-stable order.
func (g *Group) Epochs() []uint64 {
	var out []uint64
	for _, o := range g.omcs {
		out = append(out, o.Epochs()...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// MasterBytes returns the total persistent Master Table footprint (Fig 13).
func (g *Group) MasterBytes() int64 {
	var total int64
	for _, o := range g.omcs {
		total += o.master.Bytes()
	}
	return total
}

// MasterEntries returns total mapped lines across partitions.
func (g *Group) MasterEntries() int {
	var total int
	for _, o := range g.omcs {
		total += o.master.Entries()
	}
	return total
}

// WorkingSetBytes is the write working set: bytes of data mapped by the
// Master Tables (paper Fig 13's denominator).
func (g *Group) WorkingSetBytes() int64 {
	return int64(g.MasterEntries()) * int64(g.cfg.LineSize)
}

// LeafOccupancy returns the mean master-table leaf occupancy across members.
func (g *Group) LeafOccupancy() float64 {
	var entries, slots int
	for _, o := range g.omcs {
		_, leaves := o.master.Nodes()
		entries += o.master.Entries()
		slots += leaves * leafFanout
	}
	if slots == 0 {
		return 0
	}
	return float64(entries) / float64(slots)
}

// BufferHitRate aggregates buffer hits across members (0 when disabled).
func (g *Group) BufferHitRate() float64 {
	var hits, total uint64
	for _, o := range g.omcs {
		if o.buf == nil {
			continue
		}
		hits += o.buf.Hits
		total += o.buf.Hits + o.buf.Misses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Stats merges all member counter sets plus the group's own.
func (g *Group) Stats() *stats.Set {
	merged := stats.NewSet("omcgroup")
	merged.Merge(g.stat)
	for _, o := range g.omcs {
		merged.Merge(o.stat)
	}
	return merged
}
