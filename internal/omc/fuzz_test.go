package omc

import (
	"encoding/binary"
	"testing"
)

// FuzzRadixMapping differentially tests the five-level radix Table against
// a flat map. The fuzz input is decoded as a stream of (op, addr, val)
// records, an even op inserting and an odd one looking up, over a
// deliberately small address space (a few pages, so leaves and slots
// collide constantly); after every operation the table's return values
// must match the shadow's, and at the end the full iteration order and
// entry count must agree.
func FuzzRadixMapping(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 2, 2, 1, 2})
	f.Add([]byte{0, 0, 1, 0, 64, 2, 1, 0, 0, 2, 64, 0, 0, 255, 3})
	f.Add([]byte{0, 10, 1, 0, 10, 2, 0, 10, 3, 1, 10, 0, 2, 10, 0, 2, 10, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		tbl := NewEpochTable()
		shadow := make(map[uint64]uint64)
		for len(stream) >= 3 {
			op, a, v := stream[0], stream[1], stream[2]
			stream = stream[3:]
			// Address space: 512 line-aligned addresses across two 4 KB page
			// groups, plus a high-bit variant exercising upper radix levels.
			addr := uint64(a) * 64
			if a >= 128 {
				addr = uint64(a-128)*64 + 1<<33
			}
			val := uint64(v) + 1 // Insert panics on zero values
			switch op % 2 {
			case 0:
				old, replaced := tbl.Insert(addr, val)
				wantOld, wantReplaced := shadow[addr], false
				if _, ok := shadow[addr]; ok {
					wantReplaced = true
				}
				if replaced != wantReplaced || (replaced && old != wantOld) {
					t.Fatalf("Insert(%#x, %d) = (%d, %v), want (%d, %v)",
						addr, val, old, replaced, wantOld, wantReplaced)
				}
				shadow[addr] = val
			case 1:
				got, ok := tbl.Lookup(addr)
				want, wok := shadow[addr]
				if ok != wok || got != want {
					t.Fatalf("Lookup(%#x) = (%d, %v), want (%d, %v)", addr, got, ok, want, wok)
				}
			}
			if tbl.Entries() != len(shadow) {
				t.Fatalf("Entries() = %d, shadow has %d", tbl.Entries(), len(shadow))
			}
		}
		// Full iteration: ascending address order, exact content match.
		var prev uint64
		first := true
		seen := 0
		tbl.ForEach(func(lineAddr, nvmAddr uint64) {
			if !first && lineAddr <= prev {
				t.Fatalf("ForEach out of order: %#x after %#x", lineAddr, prev)
			}
			prev, first = lineAddr, false
			want, ok := shadow[lineAddr]
			if !ok || nvmAddr != want {
				t.Fatalf("ForEach yielded (%#x, %d), shadow has (%d, %v)", lineAddr, nvmAddr, want, ok)
			}
			seen++
		})
		if seen != len(shadow) {
			t.Fatalf("ForEach visited %d entries, shadow has %d", seen, len(shadow))
		}
	})
}

// FuzzRadixMappingWide widens the address decoding to 8-byte addresses
// within the table's 48-bit geometry, covering sparse upper-level paths
// the dense variant cannot reach.
func FuzzRadixMappingWide(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, stream []byte) {
		tbl := NewEpochTable()
		shadow := make(map[uint64]uint64)
		for len(stream) >= 9 {
			addr := binary.LittleEndian.Uint64(stream[:8]) & ((1 << 48) - 1) &^ 63
			val := uint64(stream[8]) + 1
			stream = stream[9:]
			tbl.Insert(addr, val)
			shadow[addr] = val
			got, ok := tbl.Lookup(addr)
			if !ok || got != val {
				t.Fatalf("Lookup(%#x) = (%d, %v) right after insert of %d", addr, got, ok, val)
			}
		}
		if tbl.Entries() != len(shadow) {
			t.Fatalf("Entries() = %d, shadow has %d", tbl.Entries(), len(shadow))
		}
	})
}
