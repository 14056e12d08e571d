package mem

// DurablePlane is the storage backend of the NVM content plane: the words
// the simulated device would actually hold after losing power. The timing
// model (bank queues, backlog stalls) is unchanged by the plane choice —
// a plane only records what committed writes persist and where. A device
// starts with none; runs that read content attach one (NVM.AttachPlane).
//
// Two implementations exist:
//
//   - RAMPlane keeps the persisted word array in memory: a "power cut" is
//     the in-process PowerCut probe, and recovery runs against the
//     returned Image in the same process.
//   - store.FilePlane (internal/store, which this package does not
//     import) additionally mirrors every committed word into an
//     append/checkpoint file format under a directory, with an atomically
//     renamed manifest per sealed epoch. A fresh process can open the
//     directory cold after a real kill -9 and salvage it (store.LoadDir +
//     store.SalvageDir).
//
// These five methods are everything NVM calls. Apply mutates the persisted
// array and Snapshot copies it out; PowerCut draws its fault-injection bit
// flips on that copy, never on the plane. SealEpoch is the epoch-seal
// persistence barrier: RAMPlane ignores it, store.FilePlane flushes and
// publishes a new manifest.
type DurablePlane interface {
	// Apply records a committed word burst at addr (8-byte aligned).
	Apply(addr uint64, words []uint64)
	// SealEpoch marks epoch as sealed: everything applied so far must be
	// durable before the seal is visible to a cold reopen.
	SealEpoch(epoch uint64)
	// Durable reports whether the plane survives process death (file
	// planes). The device only pays seal barriers on durable planes.
	Durable() bool
	// Snapshot copies the persisted array into an Image.
	Snapshot() *Image
	// Close releases plane resources, flushing buffered state first, and
	// returns the first I/O error the write path swallowed (Apply has no
	// error return: the device model cannot stall on host I/O). Always
	// nil for RAMPlane.
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

// Snapshot implements DurablePlane.
func (p *RAMPlane) Snapshot() *Image { return &Image{words: p.words.Clone()} }

// Close implements DurablePlane.
func (p *RAMPlane) Close() error { return nil }
