// Package omc implements NVOverlay's Multi-snapshot NVM Mapping backend
// (paper §V): the Overlay Memory Controller with its per-epoch mapping
// tables, the persistent five-level Master Table, the NVM page buffer pool
// with bitmap allocation and version compaction, the distributed
// recoverable-epoch protocol, and the optional battery-backed OMC buffer.
package omc

import (
	"fmt"
	"math/bits"
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

// leafPacked is how many mappings a leaf holds inline. Three quarters of
// the per-epoch leaves merged in an overlay-write run map at most 3 lines
// (mean 5.7), and 82% of the Master Table's leaves at seal map at most 8,
// so 8 inline values keep most leaves at 88 bytes.
const leafPacked = 8

// leaf is a level-4 node: the 64 line slots of one 4 KB page. present
// marks the mapped slots. Up to leafPacked values sit in vals in slot
// order: a slot's value is at its rank, the count of present bits below
// it. The next mapping promotes the leaf to a full block indexed by slot,
// where 0 marks an empty slot (Insert never maps to 0).
type leaf struct {
	present uint64 // bitmask over the 64 line slots
	block   *[leafFanout]uint64
	vals    [leafPacked]uint64
	nvmAddr uint64 // metadata home of this node (for bank mapping)
}

// rank returns the index in vals of the slot whose bit is bit.
func (lf *leaf) rank(bit uint64) int { return bits.OnesCount64(lf.present & (bit - 1)) }

// get returns the value mapped in slot.
func (lf *leaf) get(slot uint) (uint64, bool) {
	if lf.block != nil {
		v := lf.block[slot]
		return v, v != 0
	}
	bit := uint64(1) << slot
	if lf.present&bit == 0 {
		return 0, false
	}
	return lf.vals[lf.rank(bit)], true
}

// set maps slot to v, taking a block from nodes when the inline values
// are full, and returns the value it replaced.
func (lf *leaf) set(slot uint, v uint64, nodes *nodeSlab) (old uint64, replaced bool) {
	bit := uint64(1) << slot
	if lf.block != nil {
		old, lf.block[slot] = lf.block[slot], v
		lf.present |= bit
		return old, old != 0
	}
	r := lf.rank(bit)
	if lf.present&bit != 0 {
		old, lf.vals[r] = lf.vals[r], v
		return old, true
	}
	if n := bits.OnesCount64(lf.present); n < leafPacked {
		copy(lf.vals[r+1:n+1], lf.vals[r:n])
		lf.vals[r] = v
	} else {
		b := nodes.blocks.New()
		m := lf.present
		for i := 0; i < leafPacked; i++ {
			b[bits.TrailingZeros64(m)] = lf.vals[i]
			m &= m - 1
		}
		b[slot] = v
		lf.block, lf.vals = b, [leafPacked]uint64{}
	}
	lf.present |= bit
	return 0, false
}

// forEach visits the mapped slots in ascending order.
func (lf *leaf) forEach(page uint64, fn func(lineAddr, nvmAddr uint64)) {
	if lf.block != nil {
		for m := lf.present; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			fn(page|uint64(s)<<6, lf.block[s])
		}
		return
	}
	i := 0
	for m := lf.present; m != 0; m &= m - 1 {
		fn(page|uint64(bits.TrailingZeros64(m))<<6, lf.vals[i])
		i++
	}
}

// innerPacked is how many children an inner node holds inline. In the
// per-epoch tables of an overlay-write run the level 0 and 1 nodes have one
// child and most level 2 nodes one or two; level 3 nodes are denser.
const innerPacked = 4

// inner is a node of levels 0-3. Its children are *inner below levels 0-2
// and *leaf below level 3; the level alone says which, so each child is
// one 8-byte pointer (an interface would be 16). present marks the
// children, so walks visit only those. Up to innerPacked children sit in
// kids in index order, as a leaf's values do; the next child promotes the
// node to a full 4 KB block indexed by child.
type inner struct {
	present [innerFanout / 64]uint64
	block   *[innerFanout]unsafe.Pointer // nil while packed
	kids    [innerPacked]unsafe.Pointer
	nvmAddr uint64
}

// rank returns the index in kids of child i.
func (n *inner) rank(i uint64) int {
	r := bits.OnesCount64(n.present[i>>6] & (1<<(i&63) - 1))
	for _, w := range n.present[:i>>6] {
		r += bits.OnesCount64(w)
	}
	return r
}

// child returns child i, nil when absent.
func (n *inner) child(i uint64) unsafe.Pointer {
	if n.block != nil {
		return n.block[i]
	}
	if n.present[i>>6]&(1<<(i&63)) == 0 {
		return nil
	}
	return n.kids[n.rank(i)]
}

// setChild installs p as child i, which is absent, taking a block from
// nodes when the inline children are full.
func (n *inner) setChild(i uint64, p unsafe.Pointer, nodes *nodeSlab) {
	if n.block == nil {
		c := 0
		for c < innerPacked && n.kids[c] != nil {
			c++
		}
		if c < innerPacked {
			r := n.rank(i)
			copy(n.kids[r+1:c+1], n.kids[r:c])
			n.kids[r] = p
			n.present[i>>6] |= 1 << (i & 63)
			return
		}
		b := nodes.innerBlocks.New()
		k := 0
		for w, m := range n.present {
			for ; m != 0; m &= m - 1 {
				b[w*64+bits.TrailingZeros64(m)] = n.kids[k]
				k++
			}
		}
		n.block, n.kids = b, [innerPacked]unsafe.Pointer{}
	}
	n.block[i] = p
	n.present[i>>6] |= 1 << (i & 63)
}

// forEach visits the children in ascending index order.
func (n *inner) forEach(fn func(i uint64, c unsafe.Pointer)) {
	k := 0
	for w, m := range n.present {
		for ; m != 0; m &= m - 1 {
			i := uint64(w*64 + bits.TrailingZeros64(m))
			if n.block != nil {
				fn(i, n.block[i])
			} else {
				fn(i, n.kids[k])
				k++
			}
		}
	}
}

// walk visits the leaves below n, a node of the given level whose first
// line address is prefix, in ascending address order.
func (n *inner) walk(level int, prefix uint64, fn func(page uint64, lf *leaf)) {
	shift := uint(39 - 9*level)
	n.forEach(func(i uint64, c unsafe.Pointer) {
		if level == 3 {
			fn(prefix|i<<shift, (*leaf)(c))
		} else {
			(*inner)(c).walk(level+1, prefix|i<<shift, fn)
		}
	})
}

// Table is a five-level radix tree mapping line addresses to NVM locations.
// Per-epoch tables are volatile (no persist hook); the Master Table is
// persistent and reports every 8-byte mutation through the persist hook so
// NVM metadata traffic can be accounted (paper Fig 12's metadata writes).
//
// The simulated tree has 4 KB inner nodes and 512-byte leaves
// (innerNodeBytes, leafNodeBytes): Bytes, Nodes and the persisted words
// describe that tree. The host copy is smaller: its nodes come from the
// owner's nodeSlab and a leaf holds only its mappings until it needs a
// full block.
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
	// nodes supplies the host nodes and takes back released ones.
	nodes *nodeSlab
}

// nodeSlab holds an OMC's radix nodes: its Master, per-epoch and retained
// tables take nodes from it. A per-epoch table that was merged and is not
// retained hands its nodes back (release), and the insert path of later
// tables takes them, so a run keeps about as many nodes as its live tables
// need. A reused node gets a fresh NVM home from metaAlloc, exactly as a
// new one would.
type nodeSlab struct {
	inners      mem.Slab[inner]
	innerBlocks mem.Slab[[innerFanout]unsafe.Pointer]
	leaves      mem.Slab[leaf]
	blocks      mem.Slab[[leafFanout]uint64]
}

// newTable returns an empty table whose nodes come from nodes. metaAlloc
// assigns node homes and persist, when non-nil, receives every metadata
// write.
func newTable(nodes *nodeSlab, metaAlloc func(size int) uint64, persist func(nvmAddr uint64, size int, word uint64)) *Table {
	return &Table{nodes: nodes, metaAlloc: metaAlloc, persist: persist}
}

// release clears every node of t back onto its slab and leaves t empty.
// The caller guarantees nothing reads t again.
func (t *Table) release() {
	if t.root != nil {
		t.nodes.releaseInner(t.root, 0)
	}
	*t = Table{}
}

// releaseInner clears n, a node of the given level, and everything below
// it onto s.
func (s *nodeSlab) releaseInner(n *inner, level int) {
	n.forEach(func(i uint64, c unsafe.Pointer) {
		if level == 3 {
			s.releaseLeaf((*leaf)(c))
		} else {
			s.releaseInner((*inner)(c), level+1)
		}
		if n.block != nil {
			n.block[i] = nil
		}
	})
	if n.block != nil {
		s.innerBlocks.Free(n.block)
	}
	*n = inner{}
	s.inners.Free(n)
}

// releaseLeaf clears lf and its block onto s.
func (s *nodeSlab) releaseLeaf(lf *leaf) {
	if lf.block != nil {
		for m := lf.present; m != 0; m &= m - 1 {
			lf.block[bits.TrailingZeros64(m)] = 0
		}
		s.blocks.Free(lf.block)
	}
	lf.present, lf.block, lf.vals, lf.nvmAddr = 0, nil, [leafPacked]uint64{}, 0
	s.leaves.Free(lf)
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

// newInner returns a cleared inner node with a fresh NVM home.
func (t *Table) newInner() *inner {
	n := t.nodes.inners.New()
	n.nvmAddr = t.allocMeta(innerNodeBytes)
	t.inners++
	return n
}

// innerChild returns child i of n, a level 0-2 node, creating it when
// absent. Creating it writes the parent pointer: one 8-byte persistent
// write.
func (t *Table) innerChild(n *inner, i uint64) *inner {
	if p := n.child(i); p != nil {
		return (*inner)(p)
	}
	c := t.newInner()
	n.setChild(i, unsafe.Pointer(c), t.nodes)
	t.persistWrite(n.nvmAddr+i*8, 8, c.nvmAddr)
	return c
}

// leafFor returns the leaf mapping lineAddr's page, creating it and the
// path to it when absent.
func (t *Table) leafFor(lineAddr uint64) *leaf {
	if t.root == nil {
		t.root = t.newInner()
	}
	n := t.innerChild(t.root, lineAddr>>39&(innerFanout-1))
	n = t.innerChild(n, lineAddr>>30&(innerFanout-1))
	n = t.innerChild(n, lineAddr>>21&(innerFanout-1))
	i := lineAddr >> 12 & (innerFanout - 1)
	if p := n.child(i); p != nil {
		return (*leaf)(p)
	}
	lf := t.nodes.leaves.New()
	lf.nvmAddr = t.allocMeta(leafNodeBytes)
	t.leaves++
	n.setChild(i, unsafe.Pointer(lf), t.nodes)
	t.persistWrite(n.nvmAddr+i*8, 8, lf.nvmAddr)
	return lf
}

// store maps lineAddr, which lf's page holds, to nvmAddr.
func (t *Table) store(lf *leaf, lineAddr, nvmAddr uint64) (old uint64, replaced bool) {
	slot := uint(lineAddr>>6) & (leafFanout - 1)
	if old, replaced = lf.set(slot, nvmAddr, t.nodes); replaced {
		t.digest ^= mem.PairMix(lineAddr, old)
	} else {
		t.entries++
	}
	t.digest ^= mem.PairMix(lineAddr, nvmAddr)
	t.persistWrite(lf.nvmAddr+uint64(slot)*8, 8, nvmAddr)
	return old, replaced
}

// Insert maps lineAddr to nvmAddr, returning the previously mapped location
// if one existed. nvmAddr must be non-zero.
func (t *Table) Insert(lineAddr, nvmAddr uint64) (old uint64, replaced bool) {
	if nvmAddr == 0 {
		panic("omc: Insert with zero nvmAddr")
	}
	return t.store(t.leafFor(lineAddr), lineAddr, nvmAddr)
}

// Lookup returns the NVM location mapped for lineAddr.
func (t *Table) Lookup(lineAddr uint64) (uint64, bool) {
	n := t.root
	if n == nil {
		return 0, false
	}
	for shift := uint(39); shift > 12; shift -= 9 {
		p := n.child(lineAddr >> shift & (innerFanout - 1))
		if p == nil {
			return 0, false
		}
		n = (*inner)(p)
	}
	lf := (*leaf)(n.child(lineAddr >> 12 & (innerFanout - 1)))
	if lf == nil {
		return 0, false
	}
	return lf.get(uint(lineAddr>>6) & (leafFanout - 1))
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
	t.forEachLeaf(func(page uint64, lf *leaf) { lf.forEach(page, fn) })
}

// forEachLeaf visits every leaf, with the first line address of its page,
// in ascending address order.
func (t *Table) forEachLeaf(fn func(page uint64, lf *leaf)) {
	if t.root != nil {
		t.root.walk(0, 0, fn)
	}
}

// String summarises the table.
func (t *Table) String() string {
	return fmt.Sprintf("table{entries=%d inners=%d leaves=%d bytes=%d}",
		t.entries, t.inners, t.leaves, t.Bytes())
}
