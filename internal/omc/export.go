package omc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Snapshot export/import: the paper's snapshots are random-accessible NVM
// images; for a software library the equivalent artifact is a portable
// binary file. Export serialises the consistent image of the recoverable
// epoch (and, with retention, every accessible epoch delta) in a compact
// little-endian format; Import reconstructs a read-only view for offline
// inspection — the "archive them for future accesses" path of §V-E.
//
// File layout (all little-endian):
//
//	magic    [8]byte  "NVOVRLY1"
//	recEpoch uint64
//	nEpochs  uint64
//	repeat nEpochs times:
//	    epoch    uint64
//	    nEntries uint64
//	    repeat nEntries times: addr uint64, data uint64
//
// Epoch 0 holds the master image; further epochs are retained deltas.

var exportMagic = [8]byte{'N', 'V', 'O', 'V', 'R', 'L', 'Y', '1'}

// Export writes the group's persistent snapshot state to w.
func (g *Group) Export(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(exportMagic[:]); err != nil {
		return err
	}
	write64 := func(v uint64) error { return binary.Write(bw, binary.LittleEndian, v) }

	if err := write64(g.RecEpoch()); err != nil {
		return err
	}

	// Epoch 0: the master image.
	img, _ := g.RecoverImage()
	epochs := g.Epochs()
	if err := write64(uint64(len(epochs)) + 1); err != nil {
		return err
	}
	if err := writeDelta(bw, 0, img); err != nil {
		return err
	}
	for _, e := range epochs {
		if err := writeDelta(bw, e, g.EpochDelta(e)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeDelta(w io.Writer, epoch uint64, delta *mem.Table[uint64]) error {
	if err := binary.Write(w, binary.LittleEndian, epoch); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(delta.Len())); err != nil {
		return err
	}
	for _, a := range delta.SortedKeys() {
		d, _ := delta.Get(a)
		if err := binary.Write(w, binary.LittleEndian, [2]uint64{a, d}); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotFile is a deserialised snapshot archive.
type SnapshotFile struct {
	RecEpoch uint64
	Master   *mem.Table[uint64]             // consistent image at RecEpoch
	Deltas   *mem.Table[*mem.Table[uint64]] // per-epoch incremental changes
}

// Import parses a snapshot archive written by Export.
func Import(r io.Reader) (*SnapshotFile, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("omc: reading magic: %w", err)
	}
	if magic != exportMagic {
		return nil, fmt.Errorf("omc: bad magic %q", magic[:])
	}
	read64 := func() (uint64, error) {
		var v uint64
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	rec, err := read64()
	if err != nil {
		return nil, fmt.Errorf("omc: reading rec-epoch: %w", err)
	}
	nEpochs, err := read64()
	if err != nil {
		return nil, fmt.Errorf("omc: reading epoch count: %w", err)
	}
	sf := &SnapshotFile{RecEpoch: rec, Deltas: mem.NewTable[*mem.Table[uint64]](0)}
	for i := uint64(0); i < nEpochs; i++ {
		epoch, err := read64()
		if err != nil {
			return nil, fmt.Errorf("omc: reading epoch header %d: %w", i, err)
		}
		n, err := read64()
		if err != nil {
			return nil, fmt.Errorf("omc: reading entry count of epoch %d: %w", epoch, err)
		}
		delta := mem.NewTable[uint64](0)
		for j := uint64(0); j < n; j++ {
			addr, err := read64()
			if err != nil {
				return nil, fmt.Errorf("omc: reading entry %d of epoch %d: %w", j, epoch, err)
			}
			data, err := read64()
			if err != nil {
				return nil, fmt.Errorf("omc: reading entry %d of epoch %d: %w", j, epoch, err)
			}
			delta.Put(addr, data)
		}
		if epoch == 0 {
			sf.Master = delta
		} else {
			sf.Deltas.Put(epoch, delta)
		}
	}
	if sf.Master == nil {
		return nil, fmt.Errorf("omc: archive missing the master image")
	}
	return sf, nil
}

// ReadAt returns the value of addr as of the given epoch using fall-through
// semantics over the archived deltas, falling back to the master image.
func (sf *SnapshotFile) ReadAt(addr, epoch uint64) (uint64, bool) {
	var best uint64
	found := false
	var bestEpoch uint64
	sf.Deltas.ForEach(func(e uint64, delta *mem.Table[uint64]) {
		if e > epoch || (found && e <= bestEpoch) {
			return
		}
		if d, ok := delta.Get(addr); ok {
			best, bestEpoch, found = d, e, true
		}
	})
	if found {
		return best, true
	}
	// The master holds the image of RecEpoch; it answers queries at or
	// beyond it for addresses no retained delta covers.
	if epoch >= sf.RecEpoch {
		return sf.Master.Get(addr)
	}
	return 0, false
}
