package omc

import (
	"testing"
	"testing/quick"
)

func newPool(quota int) *Pool { return NewPool(PoolBase, 4096, 64, quota) }

// epochOf returns the epoch owning the page containing nvmAddr.
func epochOf(p *Pool, nvmAddr uint64) (uint64, bool) {
	idx, ok := p.pageIndex(nvmAddr)
	if !ok {
		return 0, false
	}
	return p.pages[idx].epoch, true
}

func TestPoolAllocSequentialWithinPage(t *testing.T) {
	p := newPool(0)
	a1, new1 := p.Alloc(1)
	a2, new2 := p.Alloc(1)
	if !new1 || new2 {
		t.Fatalf("newPage flags = %v,%v", new1, new2)
	}
	if a2 != a1+64 {
		t.Fatalf("allocations not appended: %#x then %#x", a1, a2)
	}
	if p.allocated != 1 {
		t.Fatalf("pages = %d", p.allocated)
	}
}

func TestPoolSeparateEpochsSeparatePages(t *testing.T) {
	p := newPool(0)
	a1, _ := p.Alloc(1)
	a2, _ := p.Alloc(2)
	if a1&^4095 == a2&^4095 {
		t.Fatal("distinct epochs share a page")
	}
	if p.allocated != 2 {
		t.Fatalf("pages = %d", p.allocated)
	}
	if e, ok := epochOf(p, a1); !ok || e != 1 {
		t.Fatalf("epochOf = %d,%v", e, ok)
	}
	if e, ok := epochOf(p, a2); !ok || e != 2 {
		t.Fatalf("epochOf = %d,%v", e, ok)
	}
	if _, ok := epochOf(p, PoolBase+1<<30); ok {
		t.Fatal("epochOf hit unallocated page")
	}
}

func TestPoolPageRollover(t *testing.T) {
	p := newPool(0)
	for i := 0; i < 64; i++ { // fill one page
		p.Alloc(1)
	}
	_, newPage := p.Alloc(1)
	if !newPage {
		t.Fatal("65th allocation did not open a new page")
	}
	if p.allocated != 2 {
		t.Fatalf("pages = %d", p.allocated)
	}
}

func TestPoolReleaseAndReuse(t *testing.T) {
	p := newPool(0)
	var addrs []uint64
	for i := 0; i < 64; i++ {
		a, _ := p.Alloc(1)
		addrs = append(addrs, a)
	}
	// Page is full (cursor moved on after 64); next alloc opens page 2.
	p.Alloc(1)
	// Release all of page 1: it must be reclaimed.
	freed := false
	for _, a := range addrs {
		if p.Release(a) {
			freed = true
		}
	}
	if !freed {
		t.Fatal("fully dead page not reclaimed")
	}
	if p.Frees != 1 {
		t.Fatalf("frees = %d", p.Frees)
	}
	if p.allocated != 1 {
		t.Fatalf("pages = %d", p.allocated)
	}
	// The freed page index is reused by a later allocation.
	before := p.allocated
	for i := 0; i < 64; i++ {
		p.Alloc(2)
	}
	if p.allocated > before+1 {
		t.Fatalf("freed page not reused: %d pages", p.allocated)
	}
}

func TestPoolOpenPageNotReclaimedWhileAppendable(t *testing.T) {
	p := newPool(0)
	a, _ := p.Alloc(1)
	if p.Release(a) {
		t.Fatal("open page with active cursor reclaimed")
	}
	if p.allocated != 1 {
		t.Fatalf("pages = %d", p.allocated)
	}
	// Closing the epoch reclaims the now-dead page.
	p.CloseEpoch(1)
	if p.allocated != 0 {
		t.Fatalf("pages after CloseEpoch = %d", p.allocated)
	}
}

func TestPoolCloseEpochKeepsLivePages(t *testing.T) {
	p := newPool(0)
	p.Alloc(1)
	p.CloseEpoch(1)
	if p.allocated != 1 {
		t.Fatal("live page reclaimed by CloseEpoch")
	}
	p.CloseEpoch(99) // no-op for unknown epoch
}

func TestPoolQuota(t *testing.T) {
	p := newPool(2)
	p.Alloc(1)
	if p.OverQuota() {
		t.Fatal("under-quota pool reported over quota")
	}
	p.Alloc(2)
	p.Alloc(3)
	if !p.OverQuota() {
		t.Fatal("3 pages with quota 2 not over quota")
	}
	if newPool(0).OverQuota() {
		t.Fatal("unbounded pool reported over quota")
	}
}

func TestPoolOldestEpochAndPagesOf(t *testing.T) {
	p := newPool(0)
	if _, ok := p.OldestEpochWithPages(); ok {
		t.Fatal("empty pool reported an oldest epoch")
	}
	p.Alloc(5)
	p.Alloc(3)
	p.Alloc(9)
	if e, ok := p.OldestEpochWithPages(); !ok || e != 3 {
		t.Fatalf("oldest = %d,%v", e, ok)
	}
	if got := p.PagesOfEpoch(3); len(got) != 1 {
		t.Fatalf("pages of epoch 3 = %d", len(got))
	}
	if got := p.PagesOfEpoch(77); len(got) != 0 {
		t.Fatalf("pages of unknown epoch = %d", len(got))
	}
	if p.allocated != 3 {
		t.Fatalf("pages = %d", p.allocated)
	}
}

func TestPoolReleaseUnallocatedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newPool(0).Release(PoolBase + 64)
}

// Property: allocations never overlap (every returned address is unique
// until released) and page accounting matches the bitmap.
func TestPoolNoOverlapProperty(t *testing.T) {
	f := func(epochs []uint8) bool {
		p := newPool(0)
		seen := map[uint64]bool{}
		live := map[uint64]bool{}
		for i, e := range epochs {
			addr, _ := p.Alloc(uint64(e%4) + 1)
			if live[addr] {
				return false
			}
			seen[addr] = true
			live[addr] = true
			// Release roughly every third allocation.
			if i%3 == 0 {
				p.Release(addr)
				delete(live, addr)
			}
		}
		// Bitmap population equals allocated page count.
		bits := 0
		for _, w := range p.bitmap {
			for ; w != 0; w &= w - 1 {
				bits++
			}
		}
		return bits == p.allocated
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
