package cache

import (
	"fmt"

	"repro/internal/sim"
)

// Reason classifies why a dirty line left a cache level, feeding the
// paper's Fig 15 evict-reason decomposition. NVOverlay's CST emits every
// reason; the MESI hierarchy of the baselines emits only Capacity and
// Coherence.
type Reason int

// Write-back reasons.
const (
	ReasonCapacity   Reason = iota // LRU victim on a fill
	ReasonCoherence                // invalidation or downgrade from another VD
	ReasonWalk                     // tag-walker write-back
	ReasonStoreEvict               // store-eviction displaced an old version out of L2
	ReasonDrain                    // end-of-run or epoch flush
	NumReasons
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonCapacity:
		return "capacity"
	case ReasonCoherence:
		return "coherence"
	case ReasonWalk:
		return "walk"
	case ReasonStoreEvict:
		return "storeevict"
	case ReasonDrain:
		return "drain"
	default:
		return fmt.Sprintf("reason%d", int(r))
	}
}

// Level is one tier of the hierarchy, top down.
type Level int

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
)

// AllVDs makes Walk visit every domain's caches.
const AllVDs = -1

// Levels is the machine both coherence protocols run on (paper Table II):
// per-core L1s, per-VD L2s, an address-interleaved sliced LLC and the
// directory. The MESI hierarchy of internal/coherence and NVOverlay's
// versioned hierarchy of internal/cst embed it by value and differ only in
// the protocol they run over it.
type Levels struct {
	Cfg *sim.Config
	Dir Directory
	l1  []*Cache // per core
	l2  []*Cache // per VD
	llc []*Cache // slices

	// SliceOf's index is (addr >> lineShift) & sliceMask when the line
	// size and the slice count are powers of two; otherwise sliceMask is 0
	// and SliceOf divides.
	lineShift uint
	sliceMask uint64
}

// NewLevels builds the cache arrays from the machine configuration. The
// directory is sized so it never grows: an entry exists only for a line
// some L2 holds, plus the one a miss creates before its fill evicts, so
// it holds at most VDs × (L2 lines) + 1 entries.
func NewLevels(cfg *sim.Config) Levels {
	l := Levels{
		Cfg: cfg,
		Dir: newDirectory(cfg.VDs()*(cfg.L2Size/cfg.LineSize) + 1),
		l1:  make([]*Cache, cfg.Cores),
		l2:  make([]*Cache, cfg.VDs()),
		llc: make([]*Cache, cfg.LLCSlices),
	}
	if sh := pow2Shift(uint64(cfg.LineSize)); sh != 0 && pow2Shift(uint64(cfg.LLCSlices)) != 0 {
		l.lineShift, l.sliceMask = sh, uint64(cfg.LLCSlices-1)
	}
	for i := range l.l1 {
		l.l1[i] = New(fmt.Sprintf("l1.%d", i), cfg.L1Size, cfg.L1Ways, cfg.LineSize)
	}
	for i := range l.l2 {
		l.l2[i] = New(fmt.Sprintf("l2.%d", i), cfg.L2Size, cfg.L2Ways, cfg.LineSize)
	}
	sliceSize := cfg.LLCSize / cfg.LLCSlices
	for i := range l.llc {
		l.llc[i] = NewStrided(fmt.Sprintf("llc.%d", i), sliceSize, cfg.LLCWays,
			cfg.LineSize, cfg.LLCSlices)
	}
	return l
}

// L1 returns core tid's L1.
func (l *Levels) L1(tid int) *Cache { return l.l1[tid] }

// L2 returns versioned domain vd's L2.
func (l *Levels) L2(vd int) *Cache { return l.l2[vd] }

// LLCSlice returns LLC slice i.
func (l *Levels) LLCSlice(i int) *Cache { return l.llc[i] }

// Slices returns the number of LLC slices.
func (l *Levels) Slices() int { return len(l.llc) }

// SliceOf returns the LLC slice that addr interleaves to.
func (l *Levels) SliceOf(addr uint64) *Cache {
	if l.sliceMask != 0 {
		return l.llc[(addr>>l.lineShift)&l.sliceMask]
	}
	return l.llc[int((addr/uint64(l.Cfg.LineSize))%uint64(len(l.llc)))]
}

// CoresOf returns the half-open range of cores in domain vd.
func (l *Levels) CoresOf(vd int) (lo, hi int) {
	return vd * l.Cfg.CoresPerVD, (vd + 1) * l.Cfg.CoresPerVD
}

// Entry resolves addr's directory entry, creating it when absent. The
// pointer is valid until the next directory insertion or deletion, so a
// caller that evicts lines (which deletes their entries) resolves its
// entry again afterwards.
func (l *Levels) Entry(addr uint64) *DirEntry { return l.Dir.GetOrCreate(addr) }

// DropVD records that vd no longer caches addr and deletes addr's entry
// once no domain does, which keeps the directory pruned to lines cached
// somewhere. It may move other entries, so no caller may hold an entry
// pointer across it.
func (l *Levels) DropVD(vd int, addr uint64) {
	l.Dir.Edit(addr, func(e *DirEntry) bool {
		e.Sharers.Remove(vd)
		if e.Owner == vd {
			e.Owner = -1
		}
		return e.Sharers.None() && e.Owner == -1
	})
}

// Walk calls fn on every cache array from the top of the hierarchy down to
// deepest: the L1s in core order, then the L2s in domain order, then the
// LLC slices. With vd >= 0 it visits only that domain's L1s and L2; the
// LLC is shared, so a one-domain walk never reaches it.
func (l *Levels) Walk(vd int, deepest Level, fn func(lv Level, c *Cache)) {
	l1, l2 := l.l1, l.l2
	if vd != AllVDs {
		lo, hi := l.CoresOf(vd)
		l1, l2 = l1[lo:hi], l2[vd:vd+1]
	}
	for _, c := range l1 {
		fn(LevelL1, c)
	}
	if deepest >= LevelL2 {
		for _, c := range l2 {
			fn(LevelL2, c)
		}
	}
	if deepest == LevelLLC && vd == AllVDs {
		for _, c := range l.llc {
			fn(LevelLLC, c)
		}
	}
}

// CheckShared validates the rules both protocols keep and returns the
// first violation: every L1 line is also in its domain's L2; no L1 holds a
// line writable while a sibling L1 caches it; every L2 line has a
// directory entry naming its domain as owner or sharer, and as owner when
// the line is writable; no owner is also listed as a sharer. extra, when
// non-nil, adds a protocol's own rule: it sees every L1 line (i = core)
// and every L2 line (i = domain) that passed the shared rules.
func (l *Levels) CheckShared(extra func(lv Level, i int, ln *Line) error) error {
	var err error
	for tid, c := range l.l1 {
		vd := l.Cfg.VDOf(tid)
		lo, hi := l.CoresOf(vd)
		c.ForEach(func(ln *Line) {
			if err != nil {
				return
			}
			if l.l2[vd].Peek(ln.Tag) == nil {
				err = fmt.Errorf("L1 %d holds %#x but L2 %d does not (inclusion)", tid, ln.Tag, vd)
				return
			}
			if ln.State.Writable() {
				for sib := lo; sib < hi; sib++ {
					if sib != tid && l.l1[sib].Peek(ln.Tag) != nil {
						err = fmt.Errorf("L1 %d holds %#x writable while sibling %d caches it", tid, ln.Tag, sib)
						return
					}
				}
			}
			if extra != nil {
				err = extra(LevelL1, tid, ln)
			}
		})
		if err != nil {
			return err
		}
	}
	for vd, c := range l.l2 {
		c.ForEach(func(ln *Line) {
			if err != nil {
				return
			}
			switch e := l.Dir.Ptr(ln.Tag); {
			case e == nil:
				err = fmt.Errorf("L2 %d holds %#x with no directory entry", vd, ln.Tag)
			case e.Owner != vd && !e.Sharers.Has(vd):
				err = fmt.Errorf("L2 %d holds %#x but directory disagrees (owner=%d sharers=%s)",
					vd, ln.Tag, e.Owner, e.Sharers)
			case ln.State.Writable() && e.Owner != vd:
				err = fmt.Errorf("L2 %d holds %#x writable but owner=%d", vd, ln.Tag, e.Owner)
			case extra != nil:
				err = extra(LevelL2, vd, ln)
			}
		})
		if err != nil {
			return err
		}
	}
	// Walk the directory in address order so the first violation reported
	// is stable across runs.
	for _, addr := range l.Dir.SortedKeys() {
		if e := l.Dir.Ptr(addr); e.Owner != -1 && e.Sharers.Has(e.Owner) {
			return fmt.Errorf("addr %#x: owner %d also listed as sharer", addr, e.Owner)
		}
	}
	return nil
}
