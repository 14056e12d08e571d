package store

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/recovery"
)

// SalvageDir opens a file-backed store directory of fsys cold — a fresh
// process, no shared state with the writer that died; fault.OS for a real
// directory, the surviving state of an in-memory store in the
// crash-consistency sweep — and runs the full recovery stack over it:
// LoadDir replays manifest → checkpoint → delta logs into the persisted
// word image, then recovery.Salvage applies the usual salvage-or-refuse
// protocol to that image.
//
// The layering keeps image salvage's guarantee across real process death:
// file-level damage (torn delta tail after kill -9, a missing sealed
// segment, a flipped manifest bit) either truncates the image at the last
// intact boundary — and image-level salvage walks back to the newest epoch
// whose records fully survive — or, when no trustworthy base exists at
// all, maps onto the same typed errors:
//
//   - manifest missing/corrupt/unreadable, wrong format version:
//     recovery.ErrUnrecoverable (the directory's root of trust is gone);
//   - base checkpoint missing: recovery.ErrTornEpoch (the referenced
//     durable state was lost whole, like a lost bank);
//   - base checkpoint corrupt: recovery.ErrChecksum.
//
// File-level findings are merged into the returned report with their kind
// prefixed "file-" (OMC -1, epoch 0), before the image-level damage.
func SalvageDir(fsys fault.FS, dir string) (*mem.Table[uint64], *recovery.SalvageReport, error) {
	img, drep, err := LoadDir(fsys, dir)
	if err != nil {
		rep := &recovery.SalvageReport{Refused: true, Partitions: []recovery.PartitionReport{}, Damage: []recovery.Damage{}}
		rep.Reason = fmt.Sprintf("store directory unusable: %s", drep.Fatal)
		mergeFileDamage(rep, drep)
		var typed error
		switch drep.Fatal {
		case "checkpoint-missing":
			typed = recovery.ErrTornEpoch
		case "checkpoint-corrupt":
			typed = recovery.ErrChecksum
		default: // manifest-* and store-missing: no root of trust at all
			typed = recovery.ErrUnrecoverable
		}
		return nil, rep, fmt.Errorf("recovery: %w: %w", err, typed)
	}
	out, rep, serr := recovery.Salvage(img, nil)
	mergeFileDamage(rep, drep)
	rep.StoreSealedEpoch = drep.SealedEpoch
	return out, rep, serr
}

// mergeFileDamage prepends file-level findings (kind prefixed "file-") to
// an image-level report, so one report tells the whole story of a cold
// reopen.
func mergeFileDamage(rep *recovery.SalvageReport, drep *DirReport) {
	if drep == nil || len(drep.Damage) == 0 {
		return
	}
	merged := make([]recovery.Damage, 0, len(drep.Damage)+len(rep.Damage))
	for _, d := range drep.Damage {
		merged = append(merged, recovery.Damage{
			Kind: "file-" + d.Kind,
			OMC:  -1,
			Note: fmt.Sprintf("%s: %s", d.Path, d.Note),
		})
	}
	rep.Damage = append(merged, rep.Damage...)
}
