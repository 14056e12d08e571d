package workload

import (
	"math"
	"sort"

	"repro/internal/ds"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Zipf samples ranks 0..n-1 with P(k) proportional to 1/(k+1)^s via a
// precomputed CDF and binary search — deterministic given the caller's RNG,
// unlike math/rand's rejection-based zipf generator. The big-machine scale
// sweeps use it to shape multi-tenant OLTP and social-graph hot-key
// traffic, where a handful of hot tenants/keys dominate (production skew,
// not uniform microkernel traffic).
type Zipf struct {
	cdf []float64
	s   float64
}

// NewZipf builds a sampler over n ranks with exponent s (s=0 is uniform;
// s around 0.99 is the YCSB-style default).
func NewZipf(n int, s float64) *Zipf {
	z := &Zipf{cdf: make([]float64, n), s: s}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

// Sample draws one rank.
func (z *Zipf) Sample(rng *sim.RNG) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Share returns the probability mass of the top k ranks (skew-sanity
// tests check the configured traffic concentration against it).
func (z *Zipf) Share(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k >= len(z.cdf) {
		return 1
	}
	return z.cdf[k-1]
}

// OLTP skew and shape parameters, exported so tests can assert the
// configured concentration.
const (
	OLTPTenants   = 16
	OLTPRows      = 4096
	OLTPTenantS   = 1.1  // a few hot tenants dominate
	OLTPRowS      = 0.99 // YCSB-style per-tenant row skew
	oltpLogSlots  = 1 << 14
	socialUsers   = 64 << 10
	SocialHotS    = 1.2 // celebrity skew over authors/posts
	socialFanCap  = 48  // fan-out writes per post (bounded timeline push)
	socialPostCap = 1 << 15
)

// OLTP is the zipfian multi-tenant transaction mix: each tenant owns a
// hash-table index plus a row region; transactions pick a tenant by
// zipfian skew (hot tenants take most traffic), read a few zipfian-hot
// rows through the index, update one, and append a commit record to the
// shared log — the redo-log tail every tenant contends on.
type OLTP struct {
	th      *threads
	tenantZ *Zipf
	rowZ    *Zipf
	tables  []*ds.HashTable
	rowsA   []uint64
	logA    uint64
	logOff  int
}

// NewOLTP builds the benchmark.
func NewOLTP() *OLTP { return &OLTP{th: newThreads(opBudget)} }

// Name implements trace.Workload.
func (w *OLTP) Name() string { return "oltp" }

// Setup implements trace.Workload: build each tenant's index and rows.
func (w *OLTP) Setup(h *trace.Heap, rng *sim.RNG) {
	w.tenantZ = NewZipf(OLTPTenants, OLTPTenantS)
	w.rowZ = NewZipf(OLTPRows, OLTPRowS)
	w.tables = make([]*ds.HashTable, OLTPTenants)
	w.rowsA = make([]uint64, OLTPTenants)
	for t := range w.tables {
		w.tables[t] = ds.NewHashTable(h, 1024)
		for k := 0; k < OLTPRows/2; k++ {
			w.tables[t].Insert(rng.Uint64()%OLTPRows, rng.Uint64())
		}
		w.rowsA[t] = h.Alloc(OLTPRows * 64)
	}
	w.logA = h.Alloc(oltpLogSlots * 64)
}

// Step implements trace.Workload: one transaction.
func (w *OLTP) Step(tid int, h *trace.Heap, rng *sim.RNG) bool {
	if !w.th.next(tid) {
		return false
	}
	t := w.tenantZ.Sample(rng)
	// Reads: 2-4 index probes plus the row payloads.
	nr := 2 + rng.Intn(3)
	for i := 0; i < nr; i++ {
		k := w.rowZ.Sample(rng)
		w.tables[t].Get(uint64(k))
		h.LoadRange(w.rowsA[t]+uint64(k*64), 64)
	}
	// Update: read-modify-write one hot row.
	k := w.rowZ.Sample(rng)
	h.LoadRange(w.rowsA[t]+uint64(k*64), 64)
	h.StoreRange(w.rowsA[t]+uint64(k*64), 64)
	// Occasionally grow the index (new order row).
	if rng.Intn(16) == 0 {
		w.tables[t].Insert(rng.Uint64()%OLTPRows, rng.Uint64())
	}
	// Commit: append to the shared redo-log tail (all tenants contend).
	h.StoreRange(w.logA+uint64(w.logOff%oltpLogSlots)*64, 64)
	w.logOff++
	return true
}

// Social is the social-graph hot-key kernel: a power-law follower graph
// (CSR) where zipfian-selected authors post — writing the post record and
// push-fanning into their followers' timeline heads — while like traffic
// performs read-modify-writes on zipfian-hot per-post counters. Celebrity
// authors and viral posts concentrate writes on a few lines, producing
// the inter-VD hot-key coherence storm the scale sweep exercises.
type Social struct {
	th   *threads
	hotZ *Zipf

	// Real CSR follower graph (rank-skewed in-degree: celebrities).
	index []int32
	edges []int32

	indexA, edgesA uint64
	feedA, likesA  uint64
	postsA         uint64
	posted         int
	cursor         []int // per-author fan-out cursor into the follower list
}

// NewSocial builds the benchmark.
func NewSocial() *Social { return &Social{th: newThreads(opBudget)} }

// Name implements trace.Workload.
func (w *Social) Name() string { return "social" }

// Setup implements trace.Workload: generate the follower graph.
func (w *Social) Setup(h *trace.Heap, rng *sim.RNG) {
	w.hotZ = NewZipf(socialUsers, SocialHotS)
	deg := make([]int32, socialUsers)
	var edges int32
	for u := range deg {
		// Follower counts fall off with rank: the head of the zipf order
		// holds the celebrities, the tail mostly leaves.
		d := int32(1 + rng.Intn(4))
		switch {
		case u < socialUsers/1024: // top ~0.1%: celebrities
			d += int32(256 + rng.Intn(256))
		case u < socialUsers/64: // next tier: popular accounts
			d += int32(16 + rng.Intn(48))
		}
		deg[u] = d
		edges += d
	}
	w.index = make([]int32, socialUsers+1)
	for u := 0; u < socialUsers; u++ {
		w.index[u+1] = w.index[u] + deg[u]
	}
	w.edges = make([]int32, edges)
	for i := range w.edges {
		w.edges[i] = int32(rng.Intn(socialUsers))
	}
	w.indexA = h.Alloc((socialUsers + 1) * 4)
	w.edgesA = h.Alloc(int(edges) * 4)
	w.feedA = h.Alloc(socialUsers * 64)
	w.likesA = h.Alloc(socialPostCap * 8)
	w.postsA = h.Alloc(socialPostCap * 64)
	w.cursor = make([]int, socialUsers)
}

// Step implements trace.Workload: one post (with fan-out) or like burst.
func (w *Social) Step(tid int, h *trace.Heap, rng *sim.RNG) bool {
	if !w.th.next(tid) {
		return false
	}
	if rng.Intn(4) == 0 {
		// Post: a hot author writes the post record and pushes it to a
		// bounded window of followers' timeline heads.
		author := w.hotZ.Sample(rng)
		post := w.posted % socialPostCap
		w.posted++
		h.StoreRange(w.postsA+uint64(post*64), 64)
		h.Load(w.indexA + uint64(author*4))
		lo, hi := int(w.index[author]), int(w.index[author+1])
		n := hi - lo
		if n > socialFanCap {
			n = socialFanCap
		}
		start := lo
		if hi-lo > socialFanCap {
			// Rotate through the follower list so repeated posts by the
			// same celebrity touch different timeline segments.
			start = lo + (w.cursor[author] % (hi - lo - socialFanCap + 1))
			w.cursor[author] += socialFanCap
		}
		h.LoadRange(w.edgesA+uint64(start*4), n*4)
		for i := 0; i < n; i++ {
			fo := w.edges[start+i]
			h.Store(w.feedA + uint64(fo)*64)
		}
		return true
	}
	// Likes: read a hot user's feed head, then read-modify-write the hot
	// post's like counter — the shared line every domain hammers.
	reader := rng.Intn(socialUsers)
	h.Load(w.feedA + uint64(reader)*64)
	post := w.hotZ.Sample(rng) % socialPostCap
	h.Load(w.likesA + uint64(post*8))
	h.Store(w.likesA + uint64(post*8))
	return true
}

var _ = []trace.Workload{(*OLTP)(nil), (*Social)(nil)}
