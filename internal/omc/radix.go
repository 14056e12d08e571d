// Package omc implements NVOverlay's Multi-snapshot NVM Mapping backend
// (paper §V): the Overlay Memory Controller with its per-epoch mapping
// tables, the persistent five-level Master Table, the NVM page buffer pool
// with bitmap allocation and version compaction, the distributed
// recoverable-epoch protocol, and the optional battery-backed OMC buffer.
package omc

import (
	"fmt"
	"unsafe"

	"repro/internal/mem"
)

// Radix tree geometry: 48-bit physical addresses are mapped at cache-line
// granularity. The top four levels consume 9 bits each (bits 47..12, exactly
// like x86-64 page tables); the fifth (leaf) level is indexed by address
// bits 11..6, mapping the 64 cache lines of a 4 KB page (paper Fig 10).
const (
	innerFanout = 512
	leafFanout  = 64

	innerNodeBytes = innerFanout * 8
	leafNodeBytes  = leafFanout * 8
)

type leaf struct {
	present uint64 // bitmask over the 64 line slots
	vals    [leafFanout]uint64
	nvmAddr uint64 // metadata home of this node (for bank mapping)
}

// inner is a node of levels 0-3. Its children are *inner below levels 0-2
// and *leaf below level 3; the level alone says which, so each child is
// one 8-byte pointer (an interface would be 16) and a node fits the 4864 B
// allocation size class.
type inner struct {
	children [innerFanout]unsafe.Pointer // nil when absent
	nvmAddr  uint64
}

// inner returns child i of a level 0-2 node.
func (n *inner) inner(i int) *inner { return (*inner)(n.children[i]) }

// leaf returns child i of a level-3 node.
func (n *inner) leaf(i int) *leaf { return (*leaf)(n.children[i]) }

// Table is a five-level radix tree mapping line addresses to NVM locations.
// Per-epoch tables are volatile (no persist hook); the Master Table is
// persistent and reports every 8-byte mutation through the persist hook so
// NVM metadata traffic can be accounted (paper Fig 12's metadata writes).
type Table struct {
	root    *inner
	entries int
	inners  int
	leaves  int

	// digest is the running XOR of mem.PairMix(lineAddr, nvmAddr) over the
	// live mappings: an order-independent fingerprint of the table's
	// contents. Seal and commit records carry it so recovery can prove a
	// re-walked on-NVM table is exactly the table that was sealed.
	digest uint64

	// persist, when non-nil, is invoked for every 8-byte slot written on
	// NVM — new-node parent pointers and leaf value slots — with the slot
	// content so the device's content plane can track durability.
	persist func(nvmAddr uint64, size int, word uint64)
	// metaAlloc hands out NVM addresses for newly allocated nodes.
	metaAlloc func(size int) uint64
	// free, when non-nil, supplies cleared nodes to Insert before it
	// allocates new ones (see nodeFree).
	free *nodeFree
}

// nodeFree is an OMC's free list of radix nodes. A per-epoch table that
// was merged and is not retained hands its nodes back here (release), and
// the insert path of later per-epoch tables takes them, so a run keeps
// about as many nodes as its live tables need. A reused node gets a fresh
// NVM home from metaAlloc, exactly as a new one would.
type nodeFree struct {
	inners []*inner
	leaves []*leaf
}

// newInner returns a cleared inner node homed at nvmAddr.
func (f *nodeFree) newInner(nvmAddr uint64) *inner {
	if f == nil || len(f.inners) == 0 {
		return &inner{nvmAddr: nvmAddr}
	}
	in := f.inners[len(f.inners)-1]
	f.inners = f.inners[:len(f.inners)-1]
	in.nvmAddr = nvmAddr
	return in
}

// newLeaf returns a cleared leaf homed at nvmAddr.
func (f *nodeFree) newLeaf(nvmAddr uint64) *leaf {
	if f == nil || len(f.leaves) == 0 {
		return &leaf{nvmAddr: nvmAddr}
	}
	lf := f.leaves[len(f.leaves)-1]
	f.leaves = f.leaves[:len(f.leaves)-1]
	lf.nvmAddr = nvmAddr
	return lf
}

// release clears every node of t onto its free list and leaves t empty.
// The caller guarantees nothing reads t again.
func (t *Table) release() {
	f := t.free
	var walk func(n *inner, level int)
	walk = func(n *inner, level int) {
		for i := range n.children {
			if n.children[i] == nil {
				continue
			}
			if level == 3 {
				lf := n.leaf(i)
				lf.present, lf.vals = 0, [leafFanout]uint64{}
				f.leaves = append(f.leaves, lf)
			} else {
				walk(n.inner(i), level+1)
			}
			n.children[i] = nil
		}
		f.inners = append(f.inners, n)
	}
	if t.root != nil {
		walk(t.root, 0)
	}
	*t = Table{}
}

// NewMasterTable returns a persistent table whose metadata writes are
// reported through persist; node homes are assigned by metaAlloc.
func NewMasterTable(metaAlloc func(size int) uint64, persist func(nvmAddr uint64, size int, word uint64)) *Table {
	return &Table{persist: persist, metaAlloc: metaAlloc}
}

func levelIndex(lineAddr uint64, level int) int {
	// level 0..3 are the 9-bit inner levels (bits 47..12), level 4 the leaf.
	switch {
	case level < 4:
		shift := uint(12 + 9*(3-level))
		return int((lineAddr >> shift) & (innerFanout - 1))
	default:
		return int((lineAddr >> 6) & (leafFanout - 1))
	}
}

func (t *Table) allocMeta(size int) uint64 {
	if t.metaAlloc == nil {
		return 0
	}
	return t.metaAlloc(size)
}

func (t *Table) persistWrite(addr uint64, size int, word uint64) {
	if t.persist != nil {
		t.persist(addr, size, word)
	}
}

// Insert maps lineAddr to nvmAddr, returning the previously mapped location
// if one existed. nvmAddr must be non-zero.
func (t *Table) Insert(lineAddr, nvmAddr uint64) (old uint64, replaced bool) {
	if nvmAddr == 0 {
		panic("omc: Insert with zero nvmAddr")
	}
	if t.root == nil {
		t.root = t.free.newInner(t.allocMeta(innerNodeBytes))
		t.inners++
	}
	n := t.root
	for level := 1; level <= 4; level++ {
		idx := levelIndex(lineAddr, level-1)
		if n.children[idx] == nil {
			var childAddr uint64
			if level == 4 {
				lf := t.free.newLeaf(t.allocMeta(leafNodeBytes))
				t.leaves++
				n.children[idx] = unsafe.Pointer(lf)
				childAddr = lf.nvmAddr
			} else {
				in := t.free.newInner(t.allocMeta(innerNodeBytes))
				t.inners++
				n.children[idx] = unsafe.Pointer(in)
				childAddr = in.nvmAddr
			}
			// Writing the parent pointer is one 8-byte persistent write.
			t.persistWrite(n.nvmAddr+uint64(idx*8), 8, childAddr)
		}
		if level == 4 {
			lf := n.leaf(idx)
			slot := levelIndex(lineAddr, 4)
			bit := uint64(1) << slot
			if lf.present&bit != 0 {
				old, replaced = lf.vals[slot], true
				t.digest ^= mem.PairMix(lineAddr, old)
			} else {
				t.entries++
			}
			lf.present |= bit
			lf.vals[slot] = nvmAddr
			t.digest ^= mem.PairMix(lineAddr, nvmAddr)
			t.persistWrite(lf.nvmAddr+uint64(slot*8), 8, nvmAddr)
			return old, replaced
		}
		n = n.inner(idx)
	}
	panic("unreachable")
}

// Lookup returns the NVM location mapped for lineAddr.
func (t *Table) Lookup(lineAddr uint64) (uint64, bool) {
	if t.root == nil {
		return 0, false
	}
	n := t.root
	for level := 1; level <= 4; level++ {
		idx := levelIndex(lineAddr, level-1)
		if n.children[idx] == nil {
			return 0, false
		}
		if level == 4 {
			lf := n.leaf(idx)
			slot := levelIndex(lineAddr, 4)
			if lf.present&(uint64(1)<<slot) == 0 {
				return 0, false
			}
			return lf.vals[slot], true
		}
		n = n.inner(idx)
	}
	return 0, false
}

// Entries returns the number of live mappings.
func (t *Table) Entries() int { return t.entries }

// Digest returns the order-independent content fingerprint of the table:
// the XOR over live mappings of mem.PairMix(lineAddr, nvmAddr).
func (t *Table) Digest() uint64 { return t.digest }

// RootAddr returns the NVM home of the root node (0 before any insert, or
// for volatile per-epoch tables with no metadata allocator).
func (t *Table) RootAddr() uint64 {
	if t.root == nil {
		return 0
	}
	return t.root.nvmAddr
}

// Bytes returns the storage footprint of the table's nodes. For per-epoch
// tables this is DRAM; for the Master Table it is persistent NVM metadata
// (the quantity plotted in paper Fig 13).
func (t *Table) Bytes() int64 {
	return int64(t.inners)*innerNodeBytes + int64(t.leaves)*leafNodeBytes
}

// Nodes returns (inner, leaf) node counts.
func (t *Table) Nodes() (int, int) { return t.inners, t.leaves }

// ForEach visits every mapping in ascending address order.
func (t *Table) ForEach(fn func(lineAddr, nvmAddr uint64)) {
	if t.root == nil {
		return
	}
	var walk func(n *inner, level int, prefix uint64)
	walk = func(n *inner, level int, prefix uint64) {
		for i := 0; i < innerFanout; i++ {
			if n.children[i] == nil {
				continue
			}
			shift := uint(12 + 9*(3-level))
			p := prefix | uint64(i)<<shift
			if level == 3 {
				lf := n.leaf(i)
				for s := 0; s < leafFanout; s++ {
					if lf.present&(uint64(1)<<s) != 0 {
						fn(p|uint64(s)<<6, lf.vals[s])
					}
				}
			} else {
				walk(n.inner(i), level+1, p)
			}
		}
	}
	walk(t.root, 0, 0)
}

// String summarises the table.
func (t *Table) String() string {
	return fmt.Sprintf("table{entries=%d inners=%d leaves=%d bytes=%d}",
		t.entries, t.inners, t.leaves, t.Bytes())
}
