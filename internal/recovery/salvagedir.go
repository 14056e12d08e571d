package recovery

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/mem"
)

// SalvageDir opens a file-backed store directory of fsys cold — a fresh
// process, no shared state with the writer that died; fault.OS for a real
// directory, the surviving state of an in-memory store in the
// crash-consistency sweep — and runs the full recovery
// stack over it: mem.LoadDir replays manifest → checkpoint → delta logs
// into the persisted word image, then Salvage applies the usual
// salvage-or-refuse protocol to that image.
//
// The layering preserves PR 3's guarantee across real process death:
// file-level damage (torn delta tail after kill -9, a missing sealed
// segment, a flipped manifest bit) either truncates the image at the last
// intact boundary — and image-level salvage walks back to the newest epoch
// whose records fully survive — or, when no trustworthy base exists at
// all, maps onto the same typed errors:
//
//   - manifest missing/corrupt/unreadable, wrong format version:
//     ErrUnrecoverable (the directory's root of trust is gone);
//   - base checkpoint missing: ErrTornEpoch (the referenced durable state
//     was lost whole, like a lost bank);
//   - base checkpoint corrupt: ErrChecksum.
//
// File-level findings are merged into the returned report with their kind
// prefixed "file-" (OMC -1, epoch 0), before the image-level damage.
func SalvageDir(fsys fault.FS, dir string) (*mem.Table[uint64], *SalvageReport, error) {
	img, drep, err := mem.LoadDir(fsys, dir)
	if err != nil {
		rep := &SalvageReport{Refused: true, Partitions: []PartitionReport{}, Damage: []Damage{}}
		rep.Reason = fmt.Sprintf("store directory unusable: %s", drep.Fatal)
		mergeFileDamage(rep, drep)
		var typed error
		switch drep.Fatal {
		case "checkpoint-missing":
			typed = ErrTornEpoch
		case "checkpoint-corrupt":
			typed = ErrChecksum
		default: // manifest-* and store-missing: no root of trust at all
			typed = ErrUnrecoverable
		}
		return nil, rep, fmt.Errorf("recovery: %w: %w", err, typed)
	}
	out, rep, serr := Salvage(img, nil)
	mergeFileDamage(rep, drep)
	rep.StoreSealedEpoch = drep.SealedEpoch
	return out, rep, serr
}

// mergeFileDamage prepends file-level findings (kind prefixed "file-") to
// an image-level report, so one report tells the whole story of a cold
// reopen.
func mergeFileDamage(rep *SalvageReport, drep *mem.DirReport) {
	if drep == nil || len(drep.Damage) == 0 {
		return
	}
	merged := make([]Damage, 0, len(drep.Damage)+len(rep.Damage))
	for _, d := range drep.Damage {
		merged = append(merged, Damage{
			Kind: "file-" + d.Kind,
			OMC:  -1,
			Note: fmt.Sprintf("%s: %s", d.Path, d.Note),
		})
	}
	rep.Damage = append(merged, rep.Damage...)
}
