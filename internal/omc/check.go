package omc

import (
	"repro/internal/mem"
	"repro/internal/obs"
)

// Durable-record layout. Beyond the pool/meta regions, each OMC owns two
// append-only record logs keyed by its id:
//
//   - the commit log at CommitBase: sequence slot 0 holds the genesis
//     record written at group construction ([GenesisMagic, nOMCs, chk]);
//     every rec-epoch advance, compaction and seal then appends a commit
//     record [CommitMagic, recEpoch, masterEntries, sealCount, masterRoot,
//     masterDigest, chk]. The newest valid commit record is recovery's
//     root of trust: it pins the claimed recoverable epoch and the exact
//     shape (entry count + digest) the persistent Master Table must have.
//
//   - the seal log at SealBase: one record per merged epoch table, in
//     merge (= ascending epoch) order: [SealMagic, epoch, tableRoot,
//     entries, digest, chk]. Because the log is append-only and epochs
//     merge in order, its longest valid prefix defines the horizon of
//     epochs recovery can still reconstruct exactly when the Master Table
//     itself is damaged.
//
// Records are one 64-byte slot each so a record never straddles banks, and
// every record ends in a mem.RecordCheck checksum over its payload words.
const (
	// CommitBase is the base NVM address of per-OMC commit-record logs.
	CommitBase uint64 = 1 << 43
	// SealBase is the base NVM address of per-OMC sealed-epoch record logs.
	SealBase uint64 = 1 << 44

	// RecSlotBytes is the address stride between log records.
	RecSlotBytes = 64

	// GenesisMagic marks the group-construction record at commit slot 0.
	GenesisMagic uint64 = 0x4e564f2d47454e31 // "NVO-GEN1"
	// CommitMagic marks a rec-epoch commit record.
	CommitMagic uint64 = 0x4e564f2d434d5431 // "NVO-CMT1"
	// SealMagic marks a sealed-epoch record.
	SealMagic uint64 = 0x4e564f2d53454c31 // "NVO-SEL1"

	// GenesisWords, CommitWords and SealWords are the record sizes in
	// 8-byte words, checksum included.
	GenesisWords = 3
	CommitWords  = 7
	SealWords    = 6
)

// RegionStride is the per-OMC address stride within each base region,
// exported for recovery's partition scan.
const RegionStride = omcRegion

// MetaRegion returns the [lo, hi) bounds of OMC id's mapping-table node
// region; recovery uses it to sanity-check walked child pointers.
func MetaRegion(id int) (lo, hi uint64) {
	lo = MetaBase + uint64(id)*omcRegion
	return lo, lo + omcRegion
}

// PoolRegion returns the [lo, hi) bounds of OMC id's version-pool region.
func PoolRegion(id int) (lo, hi uint64) {
	lo = PoolBase + uint64(id)*omcRegion
	return lo, lo + omcRegion
}

// GenesisAddr returns the NVM address of OMC id's genesis record.
func GenesisAddr(id int) uint64 { return CommitBase + uint64(id)*omcRegion }

// CommitRecAddr returns the NVM address of OMC id's commit record seq
// (seq >= 1; slot 0 is the genesis record).
func CommitRecAddr(id, seq int) uint64 {
	return CommitBase + uint64(id)*omcRegion + uint64(seq)*RecSlotBytes
}

// SealRecAddr returns the NVM address of OMC id's seal record seq.
func SealRecAddr(id, seq int) uint64 {
	return SealBase + uint64(id)*omcRegion + uint64(seq)*RecSlotBytes
}

// LineCheck is the per-payload-line checksum. Binding the line address and
// writing epoch (not just the data) means a stale record left at a reused
// pool address, or a record persisted by a different epoch than the
// mapping claims, fails validation instead of aliasing.
func LineCheck(lineAddr, epoch, data uint64) uint64 {
	return mem.PairMix(mem.PairMix(lineAddr, epoch), data)
}

// writeGenesis persists the group-construction record: without it recovery
// cannot distinguish "young run, nothing committed yet" from "commit log
// destroyed", so NewGroup writes one per member before any traffic.
func (o *OMC) writeGenesis(groupSize int) {
	words := []uint64{GenesisMagic, uint64(groupSize)}
	words = append(words, mem.RecordCheck(words))
	o.now += o.nvm.Persist(mem.WMeta, GenesisAddr(o.id), len(words)*8, words, o.now)
	o.stat.IncAt(genesisRecords)
}

// writeCommitRecord appends a commit record pinning the current rec-epoch
// and the Master Table's expected shape.
func (o *OMC) writeCommitRecord(now uint64) {
	words := []uint64{
		CommitMagic,
		o.recEpoch,
		uint64(o.master.Entries()),
		uint64(o.sealSeq),
		o.master.RootAddr(),
		o.master.Digest(),
	}
	words = append(words, mem.RecordCheck(words))
	o.now += o.nvm.Persist(mem.WMeta, CommitRecAddr(o.id, o.commitSeq), len(words)*8, words, now)
	o.bus.Emit(obs.KindOMCCommit, now, o.id, o.recEpoch, 0, uint64(o.master.Entries()), uint64(o.commitSeq))
	o.commitSeq++
	o.stat.IncAt(commitRecords)
}

// writeSealRecord appends the sealed-epoch record for a merged table.
func (o *OMC) writeSealRecord(e uint64, t *Table, now uint64) {
	words := []uint64{
		SealMagic,
		e,
		t.RootAddr(),
		uint64(t.Entries()),
		t.Digest(),
	}
	words = append(words, mem.RecordCheck(words))
	o.now += o.nvm.Persist(mem.WMeta, SealRecAddr(o.id, o.sealSeq), len(words)*8, words, now)
	o.bus.Emit(obs.KindOMCSeal, now, o.id, e, 0, uint64(t.Entries()), uint64(o.sealSeq))
	o.sealSeq++
	o.stat.IncAt(sealRecords)
}
