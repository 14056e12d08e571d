package mem

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/stats"
)

// dramRef is a map model of the DRAM side-band: a granule is tagged by its
// first write-back and its OID only rises after that; each line keeps the
// payload of its newest write-back, ordered by OID, and counts the stale
// ones it drops.
type dramRef struct {
	cfg        *sim.Config
	granuleOID map[uint64]uint64 // present = tagged
	lineOID    map[uint64]uint64
	lineData   map[uint64]uint64
	stale      int64
}

func (r *dramRef) granule(addr uint64) uint64 {
	return addr / uint64(r.cfg.LineSize*r.cfg.SuperBlock)
}

func (r *dramRef) writeBack(addr, oid, data uint64) {
	g := r.granule(addr)
	if cur, ok := r.granuleOID[g]; !ok || oid > cur {
		r.granuleOID[g] = oid
	}
	line := r.cfg.LineAddr(addr)
	if oid >= r.lineOID[line] {
		r.lineOID[line], r.lineData[line] = oid, data
	} else {
		r.stale++
	}
}

// TestDRAMMatchesReference drives random WriteBack, Read, OID and Data
// sequences at SuperBlock 1, 2 and 4 against dramRef, comparing every
// answer, the stale-drop, write-back and lookup counters and the
// side-band size after each step.
func TestDRAMMatchesReference(t *testing.T) {
	for _, sb := range []int{1, 2, 4} {
		cfg := testCfg()
		cfg.SuperBlock = sb
		d := NewDRAM(cfg)
		ref := &dramRef{cfg: cfg, granuleOID: map[uint64]uint64{}, lineOID: map[uint64]uint64{}, lineData: map[uint64]uint64{}}
		rng := sim.NewRNG(int64(100 + sb))
		line := uint64(cfg.LineSize)
		var writebacks, lookups int64
		for i := 0; i < 20_000; i++ {
			// 96 lines from address 0, so line 0 and key 0 are covered,
			// with sub-line offsets; OIDs from a narrow range so equal,
			// older and newer write-backs all occur.
			addr := uint64(rng.Intn(96))*line + uint64(rng.Intn(8))*8
			switch rng.Intn(4) {
			case 0, 1:
				oid, data := uint64(rng.Intn(40)), uint64(i+1)
				d.WriteBack(addr, oid, data)
				ref.writeBack(addr, oid, data)
				writebacks++
			case 2:
				oid, data := d.Read(addr)
				lookups++
				if want := ref.granuleOID[ref.granule(addr)]; oid != want {
					t.Fatalf("SuperBlock %d op %d: Read(%#x) OID = %d, want %d", sb, i, addr, oid, want)
				}
				if want := ref.lineData[cfg.LineAddr(addr)]; data != want {
					t.Fatalf("SuperBlock %d op %d: Read(%#x) data = %d, want %d", sb, i, addr, data, want)
				}
			default:
				lookups++
				if got, want := d.OID(addr), ref.granuleOID[ref.granule(addr)]; got != want {
					t.Fatalf("SuperBlock %d op %d: OID(%#x) = %d, want %d", sb, i, addr, got, want)
				}
				if got, want := d.Data(addr), ref.lineData[cfg.LineAddr(addr)]; got != want {
					t.Fatalf("SuperBlock %d op %d: Data(%#x) = %d, want %d", sb, i, addr, got, want)
				}
			}
			if got, want := d.SideBandBytes(), 2*int64(len(ref.granuleOID)); got != want {
				t.Fatalf("SuperBlock %d op %d: SideBandBytes = %d, want %d", sb, i, got, want)
			}
		}
		if ref.stale == 0 {
			t.Fatalf("SuperBlock %d: no write-back was stale", sb)
		}
		for _, c := range []struct {
			slot stats.Slot
			want int64
		}{
			{dramStaleDropped, ref.stale},
			{dramWritebacks, writebacks},
			{dramOIDLookups, lookups},
		} {
			if got := d.stat.GetAt(c.slot); got != c.want {
				t.Fatalf("SuperBlock %d: %s = %d, want %d", sb, dramCounterNames[c.slot], got, c.want)
			}
		}
	}
}

// TestDRAMSlotIs24Bytes pins the per-line slot: key, OID and payload.
func TestDRAMSlotIs24Bytes(t *testing.T) {
	if s := unsafe.Sizeof(tableSlot[dramLine]{}); s != 24 {
		t.Fatalf("DRAM table slot is %d bytes, want 24", s)
	}
}
