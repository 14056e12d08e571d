package sim

// Clocks tracks per-thread simulated time. The trace driver always steps the
// thread whose clock is smallest (conservative parallel-discrete-event
// interleaving), which both serialises the hierarchy and yields a realistic
// interleaving of the worker threads.
//
// The smallest-clock query is served by a tournament tree: O(log n) per
// changed thread instead of the old O(n) scan per driver step, which
// dominated the profile at 256 cores. Ties select the lowest thread id —
// each internal node prefers its left child on equal clocks and every left
// subtree holds strictly lower ids, so the tree reproduces the old linear
// scan's choice exactly. A mutation only marks its thread and MinLive
// fixes the tree, so trace replay, which never asks, does no tree work.
type Clocks struct {
	now  []uint64
	tree []int32 // tree[1] is the overall winner once fixed; -1 marks retired/padding
	base int     // leaf offset: smallest power of two >= len(now)
	// pend lists the threads changed since the last fixup, each at most
	// once (marked[tid] is 1 while tid is listed), so it never outgrows n.
	pend   []int32
	marked []int32
}

// NewClocks returns n thread clocks, all at zero.
func NewClocks(n int) *Clocks {
	base := 1
	for base < n {
		base <<= 1
	}
	// One allocation holds the tree, the mark list and the mark flags.
	buf := make([]int32, 2*base+2*n)
	c := &Clocks{now: make([]uint64, n), tree: buf[:2*base], base: base,
		pend: buf[2*base : 2*base : 2*base+n], marked: buf[2*base+n:]}
	for i := range c.tree {
		c.tree[i] = -1
	}
	for i := 0; i < n; i++ {
		c.tree[base+i] = int32(i)
	}
	for i := base - 1; i >= 1; i-- {
		c.tree[i] = c.winner(c.tree[2*i], c.tree[2*i+1])
	}
	return c
}

// winner picks the smaller-clock contender; a is always from the left
// subtree (lower ids), so returning a on ties breaks them by lowest id.
func (c *Clocks) winner(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if c.now[b] < c.now[a] {
		return b
	}
	return a
}

// mark records that tid's clock or liveness changed since the last fixup.
func (c *Clocks) mark(tid int) {
	if c.marked[tid] == 0 {
		c.marked[tid] = 1
		c.pend = append(c.pend, int32(tid))
	}
}

// Len returns the number of threads tracked.
func (c *Clocks) Len() int { return len(c.now) }

// Now returns thread tid's local time.
func (c *Clocks) Now(tid int) uint64 { return c.now[tid] }

// Advance moves thread tid forward by delta cycles.
func (c *Clocks) Advance(tid int, delta uint64) {
	c.now[tid] += delta
	c.mark(tid)
}

// Retire marks thread tid finished: it no longer contends for the minimum.
func (c *Clocks) Retire(tid int) {
	c.tree[c.base+tid] = -1
	c.mark(tid)
}

// MinLive returns the non-retired thread with the smallest clock (ties
// broken by lowest id), or -1 when every thread has retired. It first
// replays each marked thread's matches up to the root; replaying the paths
// in any order rebuilds the tree, as a node's last replay follows every
// change below it.
func (c *Clocks) MinLive() int {
	for _, tid := range c.pend {
		c.marked[tid] = 0
		for i := (c.base + int(tid)) >> 1; i >= 1; i >>= 1 {
			c.tree[i] = c.winner(c.tree[2*i], c.tree[2*i+1])
		}
	}
	c.pend = c.pend[:0]
	return int(c.tree[1])
}

// MinAmong returns the live thread with the smallest clock, or -1 when no
// thread is live.
func (c *Clocks) MinAmong(live []bool) int {
	best := -1
	for i := range c.now {
		if !live[i] {
			continue
		}
		if best == -1 || c.now[i] < c.now[best] {
			best = i
		}
	}
	return best
}

// Max returns the largest clock value; this is the run's wall-clock cycle
// count (all threads join at the end).
func (c *Clocks) Max() uint64 {
	var m uint64
	for _, t := range c.now {
		if t > m {
			m = t
		}
	}
	return m
}

// StallGroup advances every thread in [lo,hi) to at least t plus cost. It
// models a versioned domain draining and stalling its pipelines, e.g. during
// a coherence-driven epoch advance.
func (c *Clocks) StallGroup(lo, hi int, cost uint64) {
	var t uint64
	for i := lo; i < hi; i++ {
		if c.now[i] > t {
			t = c.now[i]
		}
	}
	t += cost
	for i := lo; i < hi; i++ {
		c.now[i] = t
		c.mark(i)
	}
}
