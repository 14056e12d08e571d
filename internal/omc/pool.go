package omc

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// NVM address-space layout for MNM structures. Each OMC owns a disjoint
// region keyed by its id, so multi-OMC configurations never collide.
const (
	// PoolBase is the base NVM address of overlay data pages.
	PoolBase uint64 = 1 << 40
	// MetaBase is the base NVM address of persistent mapping-table nodes.
	MetaBase uint64 = 1 << 41
	// ContextBase is where per-VD processor context dumps land.
	ContextBase uint64 = 1 << 42
	// RecEpochAddr is the well-known location of the persisted rec-epoch.
	RecEpochAddr uint64 = 1<<42 - 8
	// omcRegion is the per-OMC stride within each base region.
	omcRegion uint64 = 1 << 36
)

type pageInfo struct {
	epoch uint64 // epoch whose versions the page stores
	live  int    // live (mapped) versions on the page
}

// openPage is an epoch's append cursor: the page index versions of the
// epoch are appended to, and how many of its lines are used.
type openPage struct {
	idx  int
	used int
}

// Pool is the OMC-managed NVM page buffer pool (paper §V-C). Pages are
// allocated from a bitmap; versions are appended to the open page of their
// epoch; a per-page live count supports garbage collection once the Master
// Table unmaps versions (§V-D). Page state is a slice indexed by page
// number, valid where the page's bitmap bit is set.
type Pool struct {
	base         uint64
	pageSize     int
	lineSize     int
	linesPerPage int
	quota        int // pages; 0 = unbounded

	bitmap []uint64             // 1 bit per page index; set = allocated
	cursor int                  // rotating scan start for find-first-zero
	pages  []pageInfo           // per page index, len(bitmap)*64
	open   *mem.Table[openPage] // epoch -> append cursor

	allocated int
	// Frees counts pages returned to the bitmap (GC effectiveness stat).
	Frees int
}

// NewPool creates a pool whose pages live at base. quota caps the page
// count (0 for unbounded); the OMC triggers version compaction when the
// pool exceeds it.
func NewPool(base uint64, pageSize, lineSize, quota int) *Pool {
	return &Pool{
		base:         base,
		pageSize:     pageSize,
		lineSize:     lineSize,
		linesPerPage: pageSize / lineSize,
		quota:        quota,
		open:         mem.NewTable[openPage](0),
	}
}

// allocPageIndex finds a free page index in the bitmap, growing it when the
// pool is unbounded or under quota.
func (p *Pool) allocPageIndex() int {
	nbits := len(p.bitmap) * 64
	for off := 0; off < nbits; off++ {
		i := (p.cursor + off) % nbits
		w, b := i/64, uint(i%64)
		if p.bitmap[w]&(1<<b) == 0 {
			p.bitmap[w] |= 1 << b
			p.cursor = i + 1
			return i
		}
	}
	// Grow the bitmap (doubling, starting at one word).
	grow := len(p.bitmap)
	if grow == 0 {
		grow = 1
	}
	p.bitmap = append(p.bitmap, make([]uint64, grow)...)
	p.pages = append(p.pages, make([]pageInfo, grow*64)...)
	i := nbits
	p.bitmap[i/64] |= 1 << uint(i%64)
	p.cursor = i + 1
	return i
}

// Alloc returns the NVM address of a fresh version slot for the given
// epoch. newPage reports whether a page had to be allocated.
func (p *Pool) Alloc(epoch uint64) (nvmAddr uint64, newPage bool) {
	op, open := p.open.Upsert(epoch)
	if !open || op.used == p.linesPerPage {
		idx := p.allocPageIndex()
		p.pages[idx] = pageInfo{epoch: epoch}
		*op = openPage{idx: idx}
		p.allocated++
		newPage = true
	}
	addr := p.pageBase(op.idx) + uint64(op.used*p.lineSize)
	op.used++
	p.pages[op.idx].live++
	return addr, newPage
}

// pageBase returns the NVM address of page idx.
func (p *Pool) pageBase(idx int) uint64 { return p.base + uint64(idx)*uint64(p.pageSize) }

// pageIndex returns the index of the page holding nvmAddr and whether
// that page is allocated.
func (p *Pool) pageIndex(nvmAddr uint64) (int, bool) {
	idx := (nvmAddr - p.base) / uint64(p.pageSize)
	if nvmAddr < p.base || idx >= uint64(len(p.pages)) {
		return 0, false
	}
	return int(idx), p.isAllocated(int(idx))
}

// isAllocated reports whether page idx's bitmap bit is set.
func (p *Pool) isAllocated(idx int) bool { return p.bitmap[idx/64]&(1<<uint(idx%64)) != 0 }

// freePage returns page idx to the bitmap.
func (p *Pool) freePage(idx int) {
	p.bitmap[idx/64] &^= 1 << uint(idx%64)
	p.allocated--
	p.Frees++
}

// Release unmaps one version; when its page's live count reaches zero the
// page returns to the bitmap. Returns whether a page was freed.
func (p *Pool) Release(nvmAddr uint64) bool {
	idx, ok := p.pageIndex(nvmAddr)
	if !ok {
		panic(fmt.Sprintf("omc: Release of unallocated address %#x", nvmAddr))
	}
	info := &p.pages[idx]
	info.live--
	if info.live > 0 {
		return false
	}
	// Keep the epoch's open page allocated even if momentarily empty: its
	// append cursor is still active.
	if op, ok := p.open.Get(info.epoch); ok && op.idx == idx && op.used < p.linesPerPage {
		return false
	}
	p.freePage(idx)
	return true
}

// CloseEpoch retires the epoch's open page cursor (no more appends), letting
// a fully dead page be reclaimed.
func (p *Pool) CloseEpoch(epoch uint64) {
	op, ok := p.open.Get(epoch)
	if !ok {
		return
	}
	p.open.Delete(epoch)
	if p.isAllocated(op.idx) && p.pages[op.idx].live == 0 {
		p.freePage(op.idx)
	}
}

// OverQuota reports whether the pool exceeds its configured quota.
func (p *Pool) OverQuota() bool { return p.quota > 0 && p.allocated > p.quota }

// OldestEpochWithPages returns the smallest epoch that still owns allocated
// pages, for the compaction policy ("start from the oldest epoch still
// having versions mapped", §V-D).
func (p *Pool) OldestEpochWithPages() (uint64, bool) {
	var oldest uint64
	found := false
	p.eachPage(func(idx int) {
		if e := p.pages[idx].epoch; !found || e < oldest {
			oldest, found = e, true
		}
	})
	return oldest, found
}

// PagesOfEpoch returns the bases of pages holding the given epoch's
// versions, ascending, so compaction visits pages deterministically.
func (p *Pool) PagesOfEpoch(epoch uint64) []uint64 {
	var out []uint64
	p.eachPage(func(idx int) {
		if p.pages[idx].epoch == epoch {
			out = append(out, p.pageBase(idx))
		}
	})
	return out
}

// eachPage calls f with the index of every allocated page, ascending.
func (p *Pool) eachPage(f func(idx int)) {
	for w, set := range p.bitmap {
		for ; set != 0; set &= set - 1 {
			f(w*64 + bits.TrailingZeros64(set))
		}
	}
}
