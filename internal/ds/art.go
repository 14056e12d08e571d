package ds

import "repro/internal/trace"

// ART node kinds, sized like the original adaptive radix tree (Leis et
// al., ICDE'13): Node4 and Node16 hold sorted key arrays, Node48 an
// indirection byte-index, Node256 a direct child array. Allocation sizes
// below match the paper's layouts so growth produces realistic copy
// traffic (the ART workload is the paper's NVM-bandwidth-bound outlier).
const (
	artNode4 = iota
	artNode16
	artNode48
	artNode256
)

var artSizes = [4]int{56, 160, 656, 2064}
var artCaps = [4]int{4, 16, 48, 256}

// artNode is a leaf (in nil) or an inner node.
type artNode struct {
	addr uint64
	in   *artInner
	// leaf payload
	key uint64
	val uint64
}

// artInner holds an inner node's children in its kind's layout: Node4 and
// Node16 keep the key bytes of kids[:n] in keys, ascending; Node48 maps a
// key byte to 1 + its slot in kids through index (0: absent); Node256
// indexes kids by key byte.
type artInner struct {
	kind  int
	n     int
	keys  [16]byte
	index *[256]byte
	kids  []*artNode
}

// artInnerNode allocates an inner node and its header together.
type artInnerNode struct {
	node artNode
	in   artInner
}

// child returns the child under key byte b, nil when absent.
func (in *artInner) child(b byte) *artNode {
	switch in.kind {
	case artNode4, artNode16:
		for i, k := range in.keys[:in.n] {
			if k == b {
				return in.kids[i]
			}
		}
		return nil
	case artNode48:
		if s := in.index[b]; s != 0 {
			return in.kids[s-1]
		}
		return nil
	default:
		return in.kids[b]
	}
}

// put sets the child under key byte b, adding it when absent; a node that
// gains a child has room for it (grow ran first).
func (in *artInner) put(b byte, c *artNode) {
	switch in.kind {
	case artNode4, artNode16:
		i := 0
		for i < in.n && in.keys[i] < b {
			i++
		}
		if i < in.n && in.keys[i] == b {
			in.kids[i] = c
			return
		}
		copy(in.keys[i+1:in.n+1], in.keys[i:in.n])
		copy(in.kids[i+1:in.n+1], in.kids[i:in.n])
		in.keys[i], in.kids[i] = b, c
	case artNode48:
		if s := in.index[b]; s != 0 {
			in.kids[s-1] = c
			return
		}
		in.kids[in.n] = c
		in.index[b] = byte(in.n + 1)
	default:
		old := in.kids[b]
		in.kids[b] = c
		if old != nil {
			return
		}
	}
	in.n++
}

// forEach visits every child with its key byte.
func (in *artInner) forEach(fn func(b byte, c *artNode)) {
	switch in.kind {
	case artNode4, artNode16:
		for i, k := range in.keys[:in.n] {
			fn(k, in.kids[i])
		}
	case artNode48:
		for b, s := range in.index {
			if s != 0 {
				fn(byte(b), in.kids[s-1])
			}
		}
	default:
		for b, c := range in.kids {
			if c != nil {
				fn(byte(b), c)
			}
		}
	}
}

// ART is an adaptive radix tree over 8-byte big-endian keys (no path
// compression; every level consumes one key byte, as in a radix trie with
// adaptive node sizing).
type ART struct {
	sharedHeap
	root *artNode
	size int

	// Grows counts node-type promotions (4->16->48->256).
	Grows int
}

// NewART creates an empty tree.
func NewART(h *trace.Heap) *ART {
	t := &ART{sharedHeap: sharedHeap{h}}
	t.root = t.newNode(artNode4)
	return t
}

func (t *ART) newNode(kind int) *artNode {
	x := &artInnerNode{}
	x.node.addr = t.h.Alloc(artSizes[kind])
	x.node.in = &x.in
	x.in.kind = kind
	x.in.kids = make([]*artNode, artCaps[kind])
	if kind == artNode48 {
		x.in.index = new([256]byte)
	}
	return &x.node
}

func (t *ART) newLeaf(key, val uint64) *artNode {
	return &artNode{addr: t.h.Alloc(24), key: key, val: val}
}

func keyByte(key uint64, depth int) byte {
	return byte(key >> (56 - 8*depth))
}

// findChild emits the loads of a child lookup for the node's kind: Node4
// and Node16 scan their key arrays (one line), Node48 reads the 256-byte
// child index first, Node256 reads the slot directly.
func (t *ART) findChild(n *artNode, b byte) *artNode {
	t.h.Load(n.addr) // header
	switch n.in.kind {
	case artNode4, artNode16:
		t.h.Load(n.addr + 16) // key array
	case artNode48:
		t.h.Load(n.addr + 16 + uint64(b))
	}
	child := n.in.child(b)
	if child != nil {
		t.h.Load(n.addr + 32 + uint64(b%32)*8) // pointer slot
	}
	return child
}

// grow promotes a full node to the next kind, copying its contents (the
// load/store burst of an ART node growth).
func (t *ART) grow(n *artNode) *artNode {
	kind := n.in.kind
	if n.in.n < artCaps[kind] || kind == artNode256 {
		return n
	}
	t.Grows++
	bigger := t.newNode(kind + 1)
	n.in.forEach(bigger.in.put)
	t.h.LoadRange(n.addr, artSizes[kind])
	t.h.StoreRange(bigger.addr, artSizes[kind+1])
	return bigger
}

// Insert adds or updates a key.
func (t *ART) Insert(key, val uint64) {
	t.root = t.insert(t.root, key, val, 0)
}

// insert descends recursively and returns the (possibly replaced, after a
// growth) node occupying this position.
func (t *ART) insert(n *artNode, key, val uint64, depth int) *artNode {
	b := keyByte(key, depth)
	child := t.findChild(n, b)
	if child == nil {
		leaf := t.newLeaf(key, val)
		t.h.Store(leaf.addr)
		n = t.grow(n)
		n.in.put(b, leaf)
		t.h.Store(n.addr + 32 + uint64(b%32)*8)
		t.h.Store(n.addr)
		t.size++
		return n
	}
	if child.in == nil {
		t.h.Load(child.addr)
		if child.key == key {
			t.h.Store(child.addr + 16)
			child.val = val
			return n
		}
		n.in.put(b, t.splitLeaf(child, key, val, depth+1))
		t.h.Store(n.addr + 32 + uint64(b%32)*8)
		t.size++
		return n
	}
	n.in.put(b, t.insert(child, key, val, depth+1))
	return n
}

// splitLeaf replaces a leaf with the chain of Node4s covering the common
// key-byte prefix of the old and new keys, ending at the first byte where
// they diverge.
func (t *ART) splitLeaf(old *artNode, key, val uint64, depth int) *artNode {
	top := t.newNode(artNode4)
	t.h.StoreRange(top.addr, artSizes[artNode4])
	node := top
	d := depth
	for d < 7 && keyByte(old.key, d) == keyByte(key, d) {
		next := t.newNode(artNode4)
		t.h.StoreRange(next.addr, artSizes[artNode4])
		node.in.put(keyByte(key, d), next)
		t.h.Store(node.addr + 32)
		node = next
		d++
	}
	node.in.put(keyByte(old.key, d), old)
	leaf := t.newLeaf(key, val)
	t.h.Store(leaf.addr)
	node.in.put(keyByte(key, d), leaf)
	t.h.Store(node.addr + 32)
	return top
}

// Get looks a key up.
func (t *ART) Get(key uint64) (uint64, bool) {
	n := t.root
	for depth := 0; ; depth++ {
		if n == nil {
			return 0, false
		}
		if n.in == nil {
			t.h.Load(n.addr)
			if n.key == key {
				return n.val, true
			}
			return 0, false
		}
		n = t.findChild(n, keyByte(key, depth))
	}
}

// Len returns the number of keys.
func (t *ART) Len() int { return t.size }
