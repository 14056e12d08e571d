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
// All per-line state lives in one table keyed by line address: a line's
// slot holds its payload and the OID of its last accepted write-back, and
// a granule's first line also holds the granule's side-band OID. With
// per-line tracking a write-back is a single probe.
type DRAM struct {
	cfg    *sim.Config
	lines  *Table[dramLine]
	tagged int // granules holding a side-band OID
	stat   *stats.Set
}

// dramLine is one line's DRAM state.
type dramLine struct {
	oid  uint64 // side-band OID of the granule this line heads (if tagged)
	data uint64 // payload token
	// dataOID orders write-backs per line: a stale dirty copy evicted from
	// the LLC after a newer version already reached DRAM (e.g. via the tag
	// walker's working-copy refresh) must not clobber the newer data. Real
	// systems get this ordering from coherence; the model enforces it here.
	dataOID uint64
	tagged  bool // oid is set: this line heads a tracked granule
}

// NewDRAM constructs the device.
func NewDRAM(cfg *sim.Config) *DRAM {
	return &DRAM{cfg: cfg, lines: NewTable[dramLine](0), stat: stats.FromTable("dram", dramCounterNames[:])}
}

// key maps a line address onto its OID tracking granule.
func (d *DRAM) key(addr uint64) uint64 {
	granule := uint64(d.cfg.LineSize * d.cfg.SuperBlock)
	return addr &^ (granule - 1)
}

// Latency returns the access latency of the device.
func (d *DRAM) Latency() uint64 { return d.cfg.DRAMLatency }

// WriteBack records a dirty line landing in DRAM with the given version and
// payload token. With super-block tracking the existing OID is only updated
// if the incoming OID is larger; the payload is always the newest data.
func (d *DRAM) WriteBack(addr uint64, oid uint64, data uint64) {
	k := d.key(addr)
	g, _ := d.lines.Upsert(k)
	if !g.tagged {
		g.tagged = true
		g.oid = oid
		d.tagged++
	} else if oid > g.oid {
		g.oid = oid
	}
	e := g
	if line := d.cfg.LineAddr(addr); line != k {
		e, _ = d.lines.Upsert(line)
	}
	// An untouched line has dataOID 0, which every write-back passes.
	if oid >= e.dataOID {
		e.data = data
		e.dataOID = oid
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
	e, _ := d.lines.Get(d.key(addr))
	return e.oid
}

// Read returns addr's granule OID and line payload, as OID and Data would,
// and counts one OID lookup. At SuperBlock 1, and for a granule's first
// line, the line heads its granule and one table probe serves both.
func (d *DRAM) Read(addr uint64) (oid, data uint64) {
	d.stat.IncAt(dramOIDLookups)
	k := d.key(addr)
	e, _ := d.lines.Get(k)
	oid = e.oid
	if line := d.cfg.LineAddr(addr); line != k {
		e, _ = d.lines.Get(line)
	}
	return oid, e.data
}

// SideBandBytes returns the bytes of OID metadata implied by the current
// tracked set (2 bytes per granule, mirroring the 16-bit tag).
func (d *DRAM) SideBandBytes() int64 { return int64(d.tagged) * 2 }

// Stats returns a snapshot of the device counters.
func (d *DRAM) Stats() *stats.Set { return d.stat.Clone() }
