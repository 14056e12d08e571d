package mem

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// DRAM models the working-memory device. It is latency-only (the paper
// assumes a write-back DRAM buffer large enough for the whole working set),
// but it carries the per-line OID side-band that NVOverlay stores in ECC
// bits or reserved words (§IV-A4). OIDs may be tracked per line or per
// 4-line "super block" (§V-F); with super blocks the stored OID is only
// raised, never lowered, exactly as the paper specifies.
//
// Each written line has one slot, keyed by line address, holding its
// payload and the OID of its last accepted write-back. At SuperBlock 1
// that OID is the line's side-band OID: the first write-back sets both,
// and the same comparison moves both afterwards, so a write-back is a
// single probe and a 24-byte slot. With super blocks the raise-only
// granule OIDs live in a table of their own, keyed by granule address.
// The granularity is fixed when the device is built.
type DRAM struct {
	cfg      *sim.Config
	lines    *Table[dramLine]
	granules *Table[uint64] // super-block side-band OIDs; nil at SuperBlock 1
	stat     *stats.Set
}

// dramLine is one line's DRAM state.
type dramLine struct {
	// oid orders write-backs per line: a stale dirty copy evicted from
	// the LLC after a newer version already reached DRAM (e.g. via the tag
	// walker's working-copy refresh) must not clobber the newer data. Real
	// systems get this ordering from coherence; the model enforces it here.
	oid  uint64
	data uint64 // payload token
}

// NewDRAM constructs the device.
func NewDRAM(cfg *sim.Config) *DRAM {
	d := &DRAM{cfg: cfg, lines: NewTable[dramLine](0), stat: stats.FromTable("dram", dramCounterNames[:])}
	if cfg.SuperBlock > 1 {
		d.granules = NewTable[uint64](0)
	}
	return d
}

// granule maps a line address onto its super block's address.
func (d *DRAM) granule(addr uint64) uint64 {
	return addr &^ (uint64(d.cfg.LineSize*d.cfg.SuperBlock) - 1)
}

// Latency returns the access latency of the device.
func (d *DRAM) Latency() uint64 { return d.cfg.DRAMLatency }

// WriteBack records a dirty line landing in DRAM with the given version and
// payload token. With super-block tracking the granule's OID is only raised;
// the line keeps the newest data it was sent.
func (d *DRAM) WriteBack(addr uint64, oid uint64, data uint64) {
	if d.granules != nil {
		// A new granule reads 0, which every OID passes.
		if g, _ := d.granules.Upsert(d.granule(addr)); oid > *g {
			*g = oid
		}
	}
	// An untouched line has OID 0, which every write-back passes.
	if e, _ := d.lines.Upsert(d.cfg.LineAddr(addr)); oid >= e.oid {
		e.oid, e.data = oid, data
	} else {
		d.stat.IncAt(dramStaleDropped)
	}
	d.stat.IncAt(dramWritebacks)
	d.stat.AddAt(dramBytesWritten, int64(d.cfg.LineSize))
}

// Data returns the payload token last written back to addr's line (zero for
// untouched memory).
func (d *DRAM) Data(addr uint64) uint64 {
	e, _ := d.lines.Get(d.cfg.LineAddr(addr))
	return e.data
}

// OID returns the version tag stored for addr's granule (0 if never written:
// version 0 predates all epochs, so fetching untouched memory never advances
// anyone's epoch).
func (d *DRAM) OID(addr uint64) uint64 {
	d.stat.IncAt(dramOIDLookups)
	if d.granules != nil {
		g, _ := d.granules.Get(d.granule(addr))
		return g
	}
	e, _ := d.lines.Get(d.cfg.LineAddr(addr))
	return e.oid
}

// Read returns addr's granule OID and line payload, as OID and Data would,
// and counts one OID lookup. At SuperBlock 1 one table probe serves both.
func (d *DRAM) Read(addr uint64) (oid, data uint64) {
	if d.granules != nil {
		return d.OID(addr), d.Data(addr)
	}
	d.stat.IncAt(dramOIDLookups)
	e, _ := d.lines.Get(d.cfg.LineAddr(addr))
	return e.oid, e.data
}

// SideBandBytes returns the bytes of OID metadata implied by the current
// tracked set (2 bytes per granule written back, mirroring the 16-bit tag).
func (d *DRAM) SideBandBytes() int64 {
	if d.granules != nil {
		return int64(d.granules.Len()) * 2
	}
	return int64(d.lines.Len()) * 2
}

// Stats returns a snapshot of the device counters.
func (d *DRAM) Stats() *stats.Set { return d.stat.Clone() }
