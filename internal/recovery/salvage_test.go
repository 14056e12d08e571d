package recovery

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
)

// buildSalvageImage drives a two-partition group through three sealed
// epochs and returns the durable NVM image plus the cumulative golden
// image after each epoch (goldenAt[0] is the empty pre-run state).
func buildSalvageImage(t *testing.T) (*mem.Image, map[uint64]map[uint64]uint64) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.CoresPerVD = 2
	cfg.RetainEpochs = true
	nvm := mem.NewNVM(&cfg)
	nvm.AttachPlane(mem.NewRAMPlane()) // the test salvages the device image
	g := omc.NewGroup(&cfg, nvm, 2)
	goldenAt := map[uint64]map[uint64]uint64{0: {}}
	cur := map[uint64]uint64{}
	for e := uint64(1); e <= 3; e++ {
		for i := uint64(0); i < 20; i++ {
			addr := (i % (8 + e*4)) << 12 // overlapping ranges per epoch
			data := e*1000 + i
			g.ReceiveVersion(omc.Version{Addr: addr, Epoch: e, Data: data}, 0)
			cur[addr] = data
		}
		snap := make(map[uint64]uint64, len(cur))
		for a, v := range cur { //nvlint:allow maprange test golden snapshot
			snap[a] = v
		}
		goldenAt[e] = snap
	}
	g.Seal(0)
	return nvm.Image(), goldenAt
}

// newestCommit scans partition id's commit log in the image and returns the
// newest valid record's words (nil if none).
func newestCommit(img *mem.Image, id int) []uint64 {
	var best []uint64
	for seq := 1; seq < 64; seq++ {
		words := make([]uint64, omc.CommitWords)
		present := true
		for i := range words {
			w, ok := img.Word(omc.CommitRecAddr(id, seq) + uint64(i*8))
			if !ok {
				present = false
				break
			}
			words[i] = w
		}
		if !present || !mem.ValidRecord(words, omc.CommitMagic) {
			continue
		}
		if best == nil || words[1] >= best[1] {
			best = words
		}
	}
	return best
}

// sealRoots scans partition id's seal log and returns epoch -> table root.
func sealRoots(img *mem.Image, id int) map[uint64]uint64 {
	roots := map[uint64]uint64{}
	for seq := 0; seq < 64; seq++ {
		words := make([]uint64, omc.SealWords)
		present := true
		for i := range words {
			w, ok := img.Word(omc.SealRecAddr(id, seq) + uint64(i*8))
			if !ok {
				present = false
				break
			}
			words[i] = w
		}
		if present && mem.ValidRecord(words, omc.SealMagic) {
			roots[words[1]] = words[2]
		}
	}
	return roots
}

// radixSlotAddrs descends the persisted radix from root and returns the
// address of the first live slot word at every level: four interior levels
// of pointers plus the leaf slot holding a pool address.
func radixSlotAddrs(t *testing.T, img *mem.Image, root uint64) []uint64 {
	t.Helper()
	var slots []uint64
	node := root
	for level := 0; level <= 4; level++ {
		found := false
		for i := 0; i < 4096/8; i++ {
			a := node + uint64(i*8)
			w, ok := img.Word(a)
			if !ok || w == 0 {
				continue
			}
			slots = append(slots, a)
			node = w
			found = true
			break
		}
		if !found {
			t.Fatalf("radix level %d of root %#x has no live slot", level, root)
		}
	}
	return slots
}

// payloadAddrOf finds the pool address mapped for lineAddr at each sealed
// epoch, searching both partitions' sealed tables.
func payloadAddrOf(t *testing.T, img *mem.Image, lineAddr uint64) map[uint64]uint64 {
	t.Helper()
	out := map[uint64]uint64{}
	for id := 0; id < 2; id++ {
		for e, root := range sealRoots(img, id) { //nvlint:allow maprange test lookup, order irrelevant
			mapping, _, ok := omc.WalkImageTable(img, id, root)
			if !ok {
				t.Fatalf("clean image: sealed table of epoch %d failed to walk", e)
			}
			if pa, hit := mapping.Get(lineAddr); hit {
				out[e] = pa
			}
		}
	}
	return out
}

func TestSalvageCleanImage(t *testing.T) {
	img, goldenAt := buildSalvageImage(t)
	restored, rep, err := Salvage(img, nil)
	if err != nil {
		t.Fatalf("clean image refused: %v\n%+v", err, rep)
	}
	if rep.RestoredEpoch != 3 || rep.WalkedBack || len(rep.Damage) != 0 {
		t.Fatalf("clean image report: %+v", rep)
	}
	for _, pr := range rep.Partitions {
		if !pr.UsedMaster {
			t.Fatalf("clean image should restore via the master fast path: %+v", pr)
		}
	}
	if err := Verify(restored, table(goldenAt[3])); err != nil {
		t.Fatal(err)
	}
}

// TestSalvageErrorPaths is the table of refusal and walk-back scenarios the
// issue names: truncated mapping tables, checksum mismatches on every radix
// level, commit records whose pages are gone, and an empty image.
func TestSalvageErrorPaths(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, img *mem.Image)
		// Expected outcome: wantErr nil means salvage must succeed at
		// wantEpoch (checked against goldenAt); otherwise the typed error.
		wantErr    error
		wantEpoch  uint64
		wantDamage string // a damage kind that must appear in the report
	}{
		{
			name:    "empty NVM image",
			mutate:  func(t *testing.T, img *mem.Image) {},
			wantErr: ErrUnrecoverable,
		},
		{
			name: "genesis record torn",
			mutate: func(t *testing.T, img *mem.Image) {
				img.Delete(omc.GenesisAddr(0) + 8)
			},
			wantErr:    ErrUnrecoverable,
			wantDamage: "genesis-corrupt",
		},
		{
			name: "commit log destroyed on one partition",
			mutate: func(t *testing.T, img *mem.Image) {
				for seq := 1; seq < 64; seq++ {
					for i := 0; i < omc.CommitWords; i++ {
						img.Delete(omc.CommitRecAddr(0, seq) + uint64(i*8))
					}
				}
			},
			wantErr:    ErrTornEpoch,
			wantDamage: "commit-log-lost",
		},
		{
			name: "commit record present but mapped pages missing",
			mutate: func(t *testing.T, img *mem.Image) {
				for _, pa := range payloadAddrOf(t, img, 0) { //nvlint:allow maprange test mutation, order irrelevant
					img.Delete(pa)
					img.Delete(pa + 8)
					img.Delete(pa + 16)
				}
			},
			wantErr:    ErrTornEpoch,
			wantDamage: "payload-missing",
		},
		{
			name: "payload checksum mismatch at the tip walks back",
			mutate: func(t *testing.T, img *mem.Image) {
				pas := payloadAddrOf(t, img, 0)
				img.FlipBit(pas[3], 7)
			},
			wantEpoch:  2,
			wantDamage: "payload-checksum",
		},
		{
			name: "payload checksum mismatch on every epoch refuses",
			mutate: func(t *testing.T, img *mem.Image) {
				for _, pa := range payloadAddrOf(t, img, 0) { //nvlint:allow maprange test mutation, order irrelevant
					img.FlipBit(pa, 7)
				}
			},
			wantErr:    ErrChecksum,
			wantDamage: "payload-checksum",
		},
	}
	// Checksum mismatch on each radix level of the master table: the fast
	// path must reject it and the seal-log fold must still restore epoch 3.
	levelName := []string{"root", "interior-1", "interior-2", "interior-3", "leaf"}
	for lvl := 0; lvl <= 4; lvl++ {
		lvl := lvl
		cases = append(cases, struct {
			name       string
			mutate     func(t *testing.T, img *mem.Image)
			wantErr    error
			wantEpoch  uint64
			wantDamage string
		}{
			name: "master radix corrupt at level " + levelName[lvl],
			mutate: func(t *testing.T, img *mem.Image) {
				commit := newestCommit(img, 0)
				if commit == nil {
					t.Fatal("clean image has no commit record")
				}
				slots := radixSlotAddrs(t, img, commit[4])
				img.FlipBit(slots[lvl], 5)
			},
			wantEpoch:  3,
			wantDamage: "table-digest",
		})
	}
	// Truncated mapping table: a whole interior pointer deleted, not just
	// flipped — the walk sees an empty subtree and the entry count shrinks.
	cases = append(cases, struct {
		name       string
		mutate     func(t *testing.T, img *mem.Image)
		wantErr    error
		wantEpoch  uint64
		wantDamage string
	}{
		name: "master mapping table truncated",
		mutate: func(t *testing.T, img *mem.Image) {
			commit := newestCommit(img, 0)
			if commit == nil {
				t.Fatal("clean image has no commit record")
			}
			img.Delete(radixSlotAddrs(t, img, commit[4])[0])
		},
		wantEpoch:  3,
		wantDamage: "table-digest",
	})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var img *mem.Image
			var goldenAt map[uint64]map[uint64]uint64
			if tc.name == "empty NVM image" {
				img = mem.NewImage()
			} else {
				img, goldenAt = buildSalvageImage(t)
			}
			tc.mutate(t, img)
			restored, rep, err := Salvage(img, nil)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v\nreport: %+v", err, tc.wantErr, rep)
				}
				if !rep.Refused || !rep.NonEmpty() {
					t.Fatalf("refusal must carry a non-empty report: %+v", rep)
				}
				if restored != nil {
					t.Fatal("refusal returned an image")
				}
			} else {
				if err != nil {
					t.Fatalf("salvage refused: %v\nreport: %+v", err, rep)
				}
				if rep.RestoredEpoch != tc.wantEpoch {
					t.Fatalf("restored epoch %d, want %d\nreport: %+v", rep.RestoredEpoch, tc.wantEpoch, rep)
				}
				if verr := Verify(restored, table(goldenAt[tc.wantEpoch])); verr != nil {
					t.Fatalf("restored image diverges from golden at epoch %d: %v", tc.wantEpoch, verr)
				}
				if rep.WalkedBack != (tc.wantEpoch < rep.ClaimedEpoch) {
					t.Fatalf("WalkedBack flag inconsistent: %+v", rep)
				}
			}
			if tc.wantDamage != "" {
				found := false
				for _, d := range rep.Damage {
					if d.Kind == tc.wantDamage {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("damage kind %q not reported: %+v", tc.wantDamage, rep.Damage)
				}
			}
		})
	}
}

// TestSalvageSealLogLoss covers the coverage cap: whole seal records gone
// while the commit record still promises them must never fold past the
// surviving prefix.
func TestSalvageSealLogLoss(t *testing.T) {
	img, _ := buildSalvageImage(t)
	// Also break the master fast path so salvage is forced onto the fold.
	commit := newestCommit(img, 0)
	if commit == nil {
		t.Fatal("clean image has no commit record")
	}
	img.FlipBit(radixSlotAddrs(t, img, commit[4])[0], 5)
	// Wipe partition 0's entire seal log: absent slots look like a natural
	// log tail, only the commit record's seal count betrays the loss.
	for seq := 0; seq < 64; seq++ {
		for i := 0; i < omc.SealWords; i++ {
			img.Delete(omc.SealRecAddr(0, seq) + uint64(i*8))
		}
	}
	restored, rep, err := Salvage(img, nil)
	if err == nil {
		t.Fatalf("salvage accepted an incomplete seal log: %+v (%d lines)", rep, restored.Len())
	}
	found := false
	for _, d := range rep.Damage {
		if d.Kind == "seal-log-lost" {
			found = true
		}
	}
	if !found {
		t.Fatalf("seal-log-lost not reported: %+v", rep.Damage)
	}
}
