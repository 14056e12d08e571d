package mem

// Image is the durable NVM content after a power cut: a sparse 8-byte word
// array. Recovery reads it through Word and must treat every absence as a
// write that never reached the array. PowerCut draws the injector's bit
// flips on the image through FlipBit; the fuzz harness mutates images
// through Delete and FlipBit to model corruption beyond what the injector
// draws.
type Image struct {
	words *Table[uint64] // word index (addr/8) -> word
}

// NewImage returns an empty image.
func NewImage() *Image { return &Image{words: NewTable[uint64](0)} }

// Put stores one word (cold loads and pending-queue overlays).
func (im *Image) Put(addr, v uint64) { im.words.Put(addr>>3, v) }

// Clone returns an independent copy of the image.
func (im *Image) Clone() *Image { return &Image{words: im.words.Clone()} }

// Word returns the persisted 8-byte word at addr and whether it exists.
func (im *Image) Word(addr uint64) (uint64, bool) {
	if im == nil {
		return 0, false
	}
	return im.words.Get(addr >> 3)
}

// Len returns how many persisted words the image holds.
func (im *Image) Len() int {
	if im == nil {
		return 0
	}
	return im.words.Len()
}

// SortedAddrs returns every persisted word address in ascending order.
func (im *Image) SortedAddrs() []uint64 {
	if im == nil {
		return nil
	}
	addrs := im.words.SortedKeys()
	for i := range addrs {
		addrs[i] <<= 3
	}
	return addrs
}

// Delete removes a persisted word (corruption modelling: a write that was
// thought durable but never reached the array).
func (im *Image) Delete(addr uint64) { im.words.Delete(addr >> 3) }

// FlipBit flips one bit of a persisted word; it is a no-op when the word
// does not exist.
func (im *Image) FlipBit(addr uint64, bit uint) {
	if v, ok := im.words.Get(addr >> 3); ok {
		im.words.Put(addr>>3, v^1<<(bit&63))
	}
}
