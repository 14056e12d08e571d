package recovery

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/omc"
)

// Typed salvage errors. Salvage never panics and never silently succeeds:
// it either returns an image provably equal to a sealed epoch, or one of
// these wrapped errors plus a non-empty report saying exactly what was
// damaged.
var (
	// ErrTornEpoch: in-flight state was torn or lost and no fully-durable
	// sealed epoch below the damage could be reconstructed.
	ErrTornEpoch = errors.New("torn epoch")
	// ErrChecksum: persisted state failed checksum/digest validation and
	// no intact epoch below the corruption could be reconstructed.
	ErrChecksum = errors.New("checksum mismatch")
	// ErrUnrecoverable: the image's roots of trust (genesis record,
	// commit log) are missing or destroyed; nothing can be proven.
	ErrUnrecoverable = errors.New("unrecoverable image")
)

// Damage is one validated finding about the image, machine-readable.
type Damage struct {
	Kind  string `json:"kind"`  // e.g. "record-torn", "table-digest", "payload-checksum"
	OMC   int    `json:"omc"`   // owning partition (-1: global)
	Epoch uint64 `json:"epoch"` // epoch involved (0 when not epoch-specific)
	Addr  uint64 `json:"addr"`  // NVM address involved (0 when structural)
	Note  string `json:"note"`
}

// PartitionReport summarises one OMC partition's salvage.
type PartitionReport struct {
	ID            int    `json:"id"`
	CommitEpoch   uint64 `json:"commit_epoch"`   // newest valid committed epoch
	CommitRecords int    `json:"commit_records"` // valid commit records seen
	SealedEpochs  int    `json:"sealed_epochs"`  // valid seal-log prefix length
	UsedMaster    bool   `json:"used_master"`    // fast path: master matched its commit record
	RestoredEpoch uint64 `json:"restored_epoch"`
}

// SalvageReport is the machine-readable result of a salvage attempt.
type SalvageReport struct {
	GroupSize     int    `json:"group_size"`
	ClaimedEpoch  uint64 `json:"claimed_epoch"` // group-wide committed epoch (min over partitions)
	RestoredEpoch uint64 `json:"restored_epoch"`
	// StoreSealedEpoch is the newest epoch the on-disk manifest claimed
	// durable when salvage ran against a file-backed store directory
	// (SalvageDir); zero for in-memory salvage.
	StoreSealedEpoch uint64            `json:"store_sealed_epoch,omitempty"`
	WalkedBack       bool              `json:"walked_back"`
	Refused          bool              `json:"refused"`
	Reason           string            `json:"reason,omitempty"`
	LinesRestored    int               `json:"lines_restored"`
	Partitions       []PartitionReport `json:"partitions"`
	Damage           []Damage          `json:"damage"`
}

// JSON renders the report for machine consumption.
func (r *SalvageReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// NonEmpty reports whether the report carries actual findings — the
// harness requires every refusal to come with one.
func (r *SalvageReport) NonEmpty() bool {
	return r != nil && (len(r.Damage) > 0 || r.Reason != "")
}

func (r *SalvageReport) addDamage(kind string, id int, epoch, addr uint64, note string) {
	r.Damage = append(r.Damage, Damage{Kind: kind, OMC: id, Epoch: epoch, Addr: addr, Note: note})
}

// logRecord is one scanned slot of a commit or seal log.
type logRecord struct {
	seq   int
	words []uint64
	// absent: no word of the slot is persisted. torn: partially persisted
	// or checksum-invalid.
	absent bool
	valid  bool
}

// scanLog reads an append-only record log from the image: fixed 64-byte
// slots, each a magic-prefixed checksummed record. The scan stops after a
// run of fully-absent slots (the log's tail).
func scanLog(img *mem.Image, addrOf func(seq int) uint64, nwords int, magic uint64) []logRecord {
	const tailGap = 8 // consecutive absent slots ending the scan
	var out []logRecord
	gap := 0
	for seq := 0; gap < tailGap && seq < 1<<16; seq++ {
		base := addrOf(seq)
		words := make([]uint64, 0, nwords)
		present := 0
		for i := 0; i < nwords; i++ {
			w, ok := img.Word(base + uint64(i*8))
			if ok {
				present++
			}
			words = append(words, w)
		}
		r := logRecord{seq: seq, words: words}
		if present == 0 {
			r.absent = true
			gap++
			out = append(out, r)
			continue
		}
		gap = 0
		r.valid = present == nwords && mem.ValidRecord(words, magic)
		out = append(out, r)
	}
	return out
}

// sealInfo is one valid sealed-epoch record plus its lazily walked table.
type sealInfo struct {
	epoch   uint64
	root    uint64
	entries int
	digest  uint64

	walked  bool
	mapping *mem.Table[uint64]
	tableOK bool
}

// partition is the per-OMC salvage state.
type partition struct {
	id  int
	img *mem.Image
	rep *SalvageReport

	commitEpoch   uint64 // newest valid committed epoch
	commitRoot    uint64
	commitEntries int
	commitDigest  uint64
	commitSeals   int  // seal records the newest commit record promises
	commitValid   bool // at least one valid commit record
	commitRecords int

	seals []*sealInfo // valid seal-log prefix, ascending epochs

	// coverage is the highest epoch whose delta fold is provably complete.
	// When the valid seal prefix is shorter than the newest commit record's
	// promised seal count, records committed before the crash are missing —
	// folding past the prefix tip would silently drop their deltas.
	coverage uint64

	masterChecked bool
	masterImage   *mem.Table[uint64] // lineAddr -> data, validated
	masterOK      bool
}

// scanPartition reads partition id's logs out of the image.
func scanPartition(img *mem.Image, id int, rep *SalvageReport) *partition {
	p := &partition{id: id, img: img, rep: rep}

	commits := scanLog(img, func(seq int) uint64 { return omc.CommitRecAddr(p.id, seq) }, omc.CommitWords, omc.CommitMagic)
	for _, r := range commits {
		if r.seq == 0 {
			continue // genesis slot, validated separately
		}
		if r.absent {
			continue
		}
		if !r.valid {
			p.rep.addDamage("record-torn", p.id, 0, omc.CommitRecAddr(p.id, r.seq),
				fmt.Sprintf("commit record %d torn or corrupt", r.seq))
			continue
		}
		p.commitRecords++
		if e := r.words[1]; !p.commitValid || e >= p.commitEpoch {
			p.commitValid = true
			p.commitEpoch = e
			p.commitEntries = int(r.words[2])
			p.commitSeals = int(r.words[3])
			p.commitRoot = r.words[4]
			p.commitDigest = r.words[5]
		}
	}

	sealRecs := scanLog(img, func(seq int) uint64 { return omc.SealRecAddr(p.id, seq) }, omc.SealWords, omc.SealMagic)
	prefixOpen := true
	var lastEpoch uint64
	for _, r := range sealRecs {
		if r.absent {
			if prefixOpen {
				// Check whether anything follows: a valid record beyond a
				// gap means the gap is damage, not the log tail.
				prefixOpen = false
			}
			continue
		}
		if !prefixOpen {
			p.rep.addDamage("record-stranded", p.id, 0, omc.SealRecAddr(p.id, r.seq),
				fmt.Sprintf("seal record %d follows a damaged slot; epochs beyond the gap cannot be trusted", r.seq))
			continue
		}
		if !r.valid {
			p.rep.addDamage("record-torn", p.id, 0, omc.SealRecAddr(p.id, r.seq),
				fmt.Sprintf("seal record %d torn or corrupt", r.seq))
			prefixOpen = false
			continue
		}
		e := r.words[1]
		if e == 0 || (len(p.seals) > 0 && e <= lastEpoch) {
			p.rep.addDamage("record-order", p.id, e, omc.SealRecAddr(p.id, r.seq),
				"seal log epochs must be strictly ascending and non-zero")
			prefixOpen = false
			continue
		}
		lastEpoch = e
		p.seals = append(p.seals, &sealInfo{
			epoch:   e,
			root:    r.words[2],
			entries: int(r.words[3]),
			digest:  r.words[4],
		})
	}

	// Seal-log coverage: every seal record the newest commit record promises
	// (commitSeals of them, at seqs below it) must survive in the valid
	// prefix, or epochs past the prefix tip have silently lost deltas.
	p.coverage = ^uint64(0)
	if p.commitValid && len(p.seals) < p.commitSeals {
		p.coverage = 0
		if len(p.seals) > 0 {
			p.coverage = p.seals[len(p.seals)-1].epoch
		}
		p.rep.addDamage("seal-log-lost", p.id, p.coverage, 0,
			fmt.Sprintf("commit record promises %d seal records but only %d survive; restorable horizon capped at epoch %d",
				p.commitSeals, len(p.seals), p.coverage))
	}
	return p
}

// payloadAt validates a persisted payload record against its mapping.
func payloadAt(img *mem.Image, lineAddr, poolAddr uint64) (data, etag uint64, present, valid bool) {
	data, ok1 := img.Word(poolAddr)
	etag, ok2 := img.Word(poolAddr + 8)
	chk, ok3 := img.Word(poolAddr + 16)
	present = ok1 && ok2 && ok3
	if !present {
		return data, etag, false, false
	}
	return data, etag, true, chk == omc.LineCheck(lineAddr, etag, data)
}

// walkSeal walks (and caches) a sealed table from the image, proving it
// against the seal record's digest and entry count.
func (p *partition) walkSeal(s *sealInfo) bool {
	if s.walked {
		return s.tableOK
	}
	s.walked = true
	mapping, digest, structOK := omc.WalkImageTable(p.img, p.id, s.root)
	if !structOK || digest != s.digest || mapping.Len() != s.entries {
		p.rep.addDamage("table-digest", p.id, s.epoch, s.root,
			fmt.Sprintf("sealed table of epoch %d does not match its record (walk ok=%v, %d entries)",
				s.epoch, structOK, mapping.Len()))
		s.tableOK = false
		return false
	}
	s.mapping = mapping
	s.tableOK = true
	return true
}

// checkMaster validates the Master Table fast path once: the walked
// master must match the newest commit record exactly, and every mapped
// payload must validate with an epoch tag at or below the committed epoch.
func (p *partition) checkMaster() bool {
	if p.masterChecked {
		return p.masterOK
	}
	p.masterChecked = true
	if !p.commitValid {
		return false
	}
	mapping, digest, structOK := omc.WalkImageTable(p.img, p.id, p.commitRoot)
	if !structOK || digest != p.commitDigest || mapping.Len() != p.commitEntries {
		p.rep.addDamage("table-digest", p.id, p.commitEpoch, p.commitRoot,
			fmt.Sprintf("master table does not match commit record at epoch %d (walk ok=%v, %d entries, want %d)",
				p.commitEpoch, structOK, mapping.Len(), p.commitEntries))
		return false
	}
	img := mem.NewTable[uint64](mapping.Len())
	for _, line := range mapping.SortedKeys() {
		poolAddr, _ := mapping.Get(line)
		data, etag, present, valid := payloadAt(p.img, line, poolAddr)
		switch {
		case !present:
			p.rep.addDamage("payload-missing", p.id, p.commitEpoch, poolAddr,
				fmt.Sprintf("master-mapped payload of line %#x not fully persisted", line))
			return false
		case !valid:
			p.rep.addDamage("payload-checksum", p.id, etag, poolAddr,
				fmt.Sprintf("master-mapped payload of line %#x fails its checksum", line))
			return false
		case etag > p.commitEpoch:
			p.rep.addDamage("payload-epoch", p.id, etag, poolAddr,
				fmt.Sprintf("master-mapped payload of line %#x tagged epoch %d beyond committed epoch %d",
					line, etag, p.commitEpoch))
			return false
		}
		img.Put(line, data)
	}
	p.masterImage = img
	p.masterOK = true
	return true
}

// restoreAt returns the largest epoch e <= target this partition can
// restore exactly, with the restored partition image. It always succeeds
// at some e >= 0 (e = 0 is the empty pre-run image).
func (p *partition) restoreAt(target uint64) (uint64, *mem.Table[uint64]) {
	if p.commitValid && target == p.commitEpoch && p.checkMaster() {
		return target, p.masterImage
	}
	// Fold fallback: replay the valid seal-log prefix up to target,
	// newest epoch winning per line, then prove every winning payload.
	// Any damage lowers the target below the damaged epoch and re-folds.
	e := target
	if e > p.coverage {
		e = p.coverage
	}
	for e > 0 {
		// Every sealed table at or below e must prove out; one that does
		// not caps the restorable horizon below its epoch.
		bad := false
		for _, s := range p.seals {
			if s.epoch > e {
				break
			}
			if !p.walkSeal(s) {
				e = s.epoch - 1
				bad = true
				break
			}
		}
		if bad {
			continue
		}
		type winner struct {
			poolAddr uint64
			epoch    uint64
		}
		win := mem.NewTable[winner](0)
		for _, s := range p.seals {
			if s.epoch > e {
				break
			}
			s.mapping.ForEach(func(line, poolAddr uint64) {
				win.Put(line, winner{poolAddr: poolAddr, epoch: s.epoch})
			})
		}
		img := mem.NewTable[uint64](win.Len())
		damaged := false
		lowest := e
		for _, line := range win.SortedKeys() {
			w, _ := win.Get(line)
			data, etag, present, valid := payloadAt(p.img, line, w.poolAddr)
			switch {
			case !present:
				p.rep.addDamage("payload-missing", p.id, w.epoch, w.poolAddr,
					fmt.Sprintf("payload of line %#x (epoch %d) not fully persisted", line, w.epoch))
			case !valid:
				p.rep.addDamage("payload-checksum", p.id, w.epoch, w.poolAddr,
					fmt.Sprintf("payload of line %#x (epoch %d) fails its checksum", line, w.epoch))
			case etag != w.epoch:
				p.rep.addDamage("payload-epoch", p.id, w.epoch, w.poolAddr,
					fmt.Sprintf("payload of line %#x tagged epoch %d where table claims %d", line, etag, w.epoch))
			default:
				img.Put(line, data)
				continue
			}
			damaged = true
			if w.epoch-1 < lowest {
				lowest = w.epoch - 1
			}
		}
		if damaged {
			e = lowest
			continue
		}
		return e, img
	}
	return 0, mem.NewTable[uint64](0)
}

// Salvage reconstructs the newest provably-consistent memory image from a
// raw durable NVM image, with salvage-or-refuse semantics:
//
//   - success: the returned image equals the group's state at exactly
//     report.RestoredEpoch — either the committed tip (master fast path)
//     or an older sealed epoch when the tip was torn (report.WalkedBack).
//   - refusal: a typed error (ErrTornEpoch, ErrChecksum, ErrUnrecoverable)
//     wrapped with context, plus a non-empty report. No image is returned.
//
// Every partition must restore the same epoch; the global fixpoint walks
// all partitions back to the highest epoch they can all prove.
//
// A non-nil bus also narrates the decisions as KindSalvage events, in
// report order: one per damage finding (Note = the damage kind), one per
// partition verdict (Note = "restored", Arg = 1 when the master fast path
// applied), and one final group decision (Note = "refused", "walked-back"
// or "restored"). Recovery runs outside simulated time, so salvage events
// carry cycle 0.
func Salvage(img *mem.Image, bus *obs.Bus) (*mem.Table[uint64], *SalvageReport, error) {
	out, rep, err := salvage(img)
	if bus == nil {
		return out, rep, err
	}
	for _, d := range rep.Damage {
		bus.EmitNote(obs.KindSalvage, 0, d.OMC, d.Epoch, d.Addr, 0, 0, d.Kind)
	}
	for _, p := range rep.Partitions {
		var master uint64
		if p.UsedMaster {
			master = 1
		}
		bus.EmitNote(obs.KindSalvage, 0, p.ID, p.RestoredEpoch, 0, master, 0, "restored")
	}
	decision := "restored"
	switch {
	case rep.Refused:
		decision = "refused"
	case rep.WalkedBack:
		decision = "walked-back"
	}
	bus.EmitNote(obs.KindSalvage, 0, -1, rep.RestoredEpoch, 0,
		uint64(rep.LinesRestored), rep.ClaimedEpoch, decision)
	return out, rep, err
}

// salvage is Salvage without the narration; its report is never nil.
func salvage(img *mem.Image) (*mem.Table[uint64], *SalvageReport, error) {
	rep := &SalvageReport{Partitions: []PartitionReport{}, Damage: []Damage{}}
	if img.Len() == 0 {
		rep.Refused = true
		rep.Reason = "empty NVM image: no genesis record"
		rep.addDamage("genesis-missing", -1, 0, 0, "image holds no persisted words")
		return nil, rep, fmt.Errorf("recovery: empty NVM image: %w", ErrUnrecoverable)
	}

	// Genesis: partition 0's record is the root of trust for group shape.
	gwords := make([]uint64, 0, omc.GenesisWords)
	present := 0
	for i := 0; i < omc.GenesisWords; i++ {
		w, ok := img.Word(omc.GenesisAddr(0) + uint64(i*8))
		if ok {
			present++
		}
		gwords = append(gwords, w)
	}
	if present != omc.GenesisWords || !mem.ValidRecord(gwords, omc.GenesisMagic) {
		rep.Refused = true
		rep.Reason = "genesis record missing or corrupt"
		rep.addDamage("genesis-corrupt", 0, 0, omc.GenesisAddr(0),
			fmt.Sprintf("genesis record invalid (%d/%d words persisted)", present, omc.GenesisWords))
		return nil, rep, fmt.Errorf("recovery: genesis record missing or corrupt: %w", ErrUnrecoverable)
	}
	n := int(gwords[1])
	if n <= 0 || n > 64 {
		rep.Refused = true
		rep.Reason = fmt.Sprintf("genesis record claims implausible group size %d", n)
		rep.addDamage("genesis-corrupt", 0, 0, omc.GenesisAddr(0), rep.Reason)
		return nil, rep, fmt.Errorf("recovery: implausible group size %d: %w", n, ErrUnrecoverable)
	}
	rep.GroupSize = n

	parts := make([]*partition, n)
	anyCommit := false
	for i := 0; i < n; i++ {
		parts[i] = scanPartition(img, i, rep)
		if parts[i].commitValid {
			anyCommit = true
		}
	}

	// The group's claim is the minimum committed epoch across partitions
	// (Group.Seal raises all partitions together, so a partition whose
	// commit log lags — or was destroyed — drags the claim down).
	var claim uint64
	if anyCommit {
		claim = parts[0].commitEpoch
		claimKnown := parts[0].commitValid
		for _, p := range parts[1:] {
			switch {
			case !p.commitValid:
				claimKnown = false
			case !claimKnown:
				// A partition with no valid commit record caps the claim at 0:
				// nothing group-wide can be proven beyond the pre-run state.
			case p.commitEpoch < claim:
				claim = p.commitEpoch
			}
		}
		if !claimKnown {
			claim = 0
			rep.addDamage("commit-log-lost", -1, 0, 0,
				"at least one partition has no valid commit record; group claim capped at epoch 0")
		}
	}
	rep.ClaimedEpoch = claim

	// Global fixpoint: every partition must restore the same epoch.
	target := claim
	images := make([]*mem.Table[uint64], n)
	restored := make([]uint64, n)
	for {
		lowest := target
		for i, p := range parts {
			restored[i], images[i] = p.restoreAt(target)
			if restored[i] < lowest {
				lowest = restored[i]
			}
		}
		if lowest == target {
			break
		}
		target = lowest
	}

	for i, p := range parts {
		rep.Partitions = append(rep.Partitions, PartitionReport{
			ID:            p.id,
			CommitEpoch:   p.commitEpoch,
			CommitRecords: p.commitRecords,
			SealedEpochs:  len(p.seals),
			UsedMaster:    p.masterOK && restored[i] == p.commitEpoch,
			RestoredEpoch: restored[i],
		})
	}
	rep.RestoredEpoch = target
	rep.WalkedBack = target < claim

	if target == 0 && (claim > 0 || len(rep.Damage) > 0) {
		// Damage forced us all the way back to the empty pre-run image:
		// that is a refusal, not a salvage.
		rep.Refused = true
		kind := classifyRefusal(rep.Damage)
		rep.Reason = fmt.Sprintf("no fully-durable sealed epoch survives (claimed epoch %d)", claim)
		if !rep.NonEmpty() {
			rep.addDamage("refused", -1, 0, 0, rep.Reason)
		}
		return nil, rep, fmt.Errorf("recovery: %s: %w", rep.Reason, kind)
	}

	out := mem.NewTable[uint64](0)
	for _, part := range images {
		part.ForEach(out.Put) // partitions own disjoint address sets
	}
	rep.LinesRestored = out.Len()
	return out, rep, nil
}

// classifyRefusal picks the typed error matching the observed damage:
// checksum-class findings dominate torn/missing ones; an image whose roots
// of trust vanished entirely is unrecoverable.
func classifyRefusal(damage []Damage) error {
	torn := false
	for _, d := range damage {
		switch d.Kind {
		case "payload-checksum", "table-digest", "record-order", "payload-epoch":
			return ErrChecksum
		case "record-torn", "payload-missing", "record-stranded",
			"seal-log-lost", "commit-log-lost":
			torn = true
		}
	}
	if torn {
		return ErrTornEpoch
	}
	return ErrUnrecoverable
}
