package omc

import "repro/internal/mem"

// WalkImageTable re-walks a mapping table (master or sealed per-epoch)
// from the durable NVM image alone, with no access to volatile state: the
// root comes from a seal/commit record, child pointers are the persisted
// 8-byte node words. It returns the reconstructed lineAddr->poolAddr
// mapping and its content digest (the same XOR-of-mem.PairMix fingerprint the
// live Table maintains), so the caller can prove the walked table is
// exactly the one that was recorded.
//
// ok is false only on structural damage — a node word pointing outside
// OMC id's metadata region, or a leaf slot outside its pool region. Words
// that are simply absent read as empty slots; the digest/entry-count
// comparison against the record is what catches those.
func WalkImageTable(img *mem.Image, id int, rootAddr uint64) (entries *mem.Table[uint64], digest uint64, ok bool) {
	entries = mem.NewTable[uint64](0)
	if rootAddr == 0 {
		return entries, 0, true // empty table: nothing was ever inserted
	}
	metaLo, metaHi := MetaRegion(id)
	poolLo, poolHi := PoolRegion(id)
	if rootAddr < metaLo || rootAddr >= metaHi {
		return nil, 0, false
	}
	var walk func(nodeAddr uint64, level int, prefix uint64) bool
	walk = func(nodeAddr uint64, level int, prefix uint64) bool {
		for i := 0; i < innerFanout; i++ {
			w, present := img.Word(nodeAddr + uint64(i*8))
			if !present || w == 0 {
				continue
			}
			shift := uint(12 + 9*(3-level))
			p := prefix | uint64(i)<<shift
			if level == 3 {
				// w is a leaf node home.
				if w < metaLo || w >= metaHi {
					return false
				}
				for s := 0; s < leafFanout; s++ {
					v, ok := img.Word(w + uint64(s*8))
					if !ok || v == 0 {
						continue
					}
					if v < poolLo || v >= poolHi {
						return false
					}
					line := p | uint64(s)<<6
					entries.Put(line, v)
					digest ^= mem.PairMix(line, v)
				}
			} else {
				if w < metaLo || w >= metaHi {
					return false
				}
				if !walk(w, level+1, p) {
					return false
				}
			}
		}
		return true
	}
	if !walk(rootAddr, 0, 0) {
		return nil, 0, false
	}
	return entries, digest, true
}
