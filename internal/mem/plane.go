package mem

// DurablePlane is the storage backend of the NVM content plane: the words
// the simulated device would actually hold after losing power. The timing
// model (bank queues, backlog stalls) is unchanged by the plane choice —
// a plane only records what committed writes persist and where.
//
// Two implementations exist:
//
//   - RAMPlane keeps the persisted word array in memory. This is the
//     historical behaviour: a "power cut" is the in-process PowerCut
//     probe, and recovery runs against the returned Image in the same
//     process.
//   - FilePlane additionally mirrors every committed word into an
//     append/checkpoint file format under a directory, with an atomically
//     renamed manifest per sealed epoch. A fresh process can open the
//     directory cold after a real kill -9 and salvage it (LoadDir +
//     recovery.SalvageDir).
//
// Apply and XorWord mutate the persisted array; Snapshot, Word, Words and
// SortedAddrs read it. SealEpoch is the epoch-seal persistence barrier:
// RAMPlane ignores it, FilePlane flushes and publishes a new manifest.
type DurablePlane interface {
	// Apply records a committed word burst at addr (8-byte aligned).
	Apply(addr uint64, words []uint64)
	// SealEpoch marks epoch as sealed: everything applied so far must be
	// durable before the seal is visible to a cold reopen.
	SealEpoch(epoch uint64)
	// Durable reports whether the plane survives process death (file
	// planes). The device only pays seal barriers on durable planes.
	Durable() bool
	// Word reads one persisted word.
	Word(addr uint64) (uint64, bool)
	// Words returns the persisted word count.
	Words() int
	// SortedAddrs returns every persisted word address ascending.
	SortedAddrs() []uint64
	// XorWord flips bits of a persisted word (fault injection at power
	// cut); it is a no-op when the word does not exist.
	XorWord(addr, mask uint64)
	// Snapshot copies the persisted array into an Image.
	Snapshot() *Image
	// Err returns the first I/O error the plane swallowed on the write
	// path (Apply has no error return: the device model cannot stall on
	// host I/O). Always nil for RAMPlane.
	Err() error
	// Close releases plane resources, flushing buffered state first, and
	// returns Err() if any write was lost.
	Close() error
}

// RAMPlane is the in-memory durable plane: a sparse 8-byte word array
// held in a Table keyed by word index (addr/8).
type RAMPlane struct {
	words *Table[uint64]
}

// NewRAMPlane returns an empty in-memory plane.
func NewRAMPlane() *RAMPlane {
	return &RAMPlane{words: NewTable[uint64](0)}
}

// Apply implements DurablePlane.
func (p *RAMPlane) Apply(addr uint64, words []uint64) {
	w := addr >> 3
	for i, v := range words {
		p.words.Put(w+uint64(i), v)
	}
}

// SealEpoch implements DurablePlane; RAM has no seal barrier.
func (p *RAMPlane) SealEpoch(epoch uint64) {}

// Durable implements DurablePlane.
func (p *RAMPlane) Durable() bool { return false }

// Word implements DurablePlane.
func (p *RAMPlane) Word(addr uint64) (uint64, bool) { return p.words.Get(addr >> 3) }

// Words implements DurablePlane.
func (p *RAMPlane) Words() int { return p.words.Len() }

// SortedAddrs implements DurablePlane.
func (p *RAMPlane) SortedAddrs() []uint64 { return sortedWordAddrs(p.words) }

// XorWord implements DurablePlane.
func (p *RAMPlane) XorWord(addr, mask uint64) { xorWord(p.words, addr, mask) }

// Snapshot implements DurablePlane.
func (p *RAMPlane) Snapshot() *Image { return &Image{words: p.words.Clone()} }

// Err implements DurablePlane.
func (p *RAMPlane) Err() error { return nil }

// Close implements DurablePlane.
func (p *RAMPlane) Close() error { return nil }
