package workload

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// KMeans re-implements STAMP kmeans: threads stream over a large point
// array (thrashes the small L2s, fits the LLC — the regime behind the
// paper's kmeans discussion in §VII-B), compute the nearest of k centroids
// with real squared-distance arithmetic, and accumulate into shared
// per-cluster sums, causing inter-VD coherence on the hot accumulators.
type KMeans struct {
	th        *threads
	n, k, dim int
	// Real data (mirrored at the heap addresses below).
	points    []float64
	centroids []float64
	sums      []float64
	counts    []int64

	pointsA, centroidsA, sumsA, countsA, assignA uint64
	cursor                                       []int
	pass                                         int
}

// NewKMeans builds the benchmark (64K points x 8 dims = 4 MB stream).
func NewKMeans() *KMeans {
	return &KMeans{th: newThreads(opBudget), n: 64 << 10, k: 16, dim: 8}
}

// Name implements trace.Workload.
func (w *KMeans) Name() string { return "kmeans" }

// Setup implements trace.Workload.
func (w *KMeans) Setup(h *trace.Heap, rng *sim.RNG) {
	w.points = make([]float64, w.n*w.dim)
	for i := range w.points {
		w.points[i] = rng.Float64()
	}
	w.centroids = make([]float64, w.k*w.dim)
	for i := range w.centroids {
		w.centroids[i] = rng.Float64()
	}
	w.sums = make([]float64, w.k*w.dim)
	w.counts = make([]int64, w.k)
	w.pointsA = h.Alloc(w.n * w.dim * 8)
	w.centroidsA = h.Alloc(w.k * w.dim * 8)
	w.sumsA = h.Alloc(w.k * w.dim * 8)
	w.countsA = h.Alloc(w.k * 8)
	w.assignA = h.Alloc(w.n * 8)
	w.cursor = make([]int, 64)
}

// Step implements trace.Workload: assign one point and accumulate it.
func (w *KMeans) Step(tid int, h *trace.Heap, rng *sim.RNG) bool {
	if !w.th.next(tid) {
		return false
	}
	w.cursor = growTids(w.cursor, tid)
	p := (w.cursor[tid]*16 + tid) % w.n // strided per-thread partition
	w.cursor[tid]++
	h.LoadRange(w.pointsA+uint64(p*w.dim*8), w.dim*8)
	// Real nearest-centroid search: squared Euclidean distance.
	best, bestD := 0, 1e300
	for c := 0; c < w.k; c++ {
		h.LoadRange(w.centroidsA+uint64(c*w.dim*8), w.dim*8)
		var d float64
		for j := 0; j < w.dim; j++ {
			diff := w.points[p*w.dim+j] - w.centroids[c*w.dim+j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	h.Store(w.assignA + uint64(p*8))
	// Shared accumulators: the winning cluster's sums.
	for j := 0; j < w.dim; j++ {
		w.sums[best*w.dim+j] += w.points[p*w.dim+j]
	}
	w.counts[best]++
	h.StoreRange(w.sumsA+uint64(best*w.dim*8), w.dim*8)
	h.Store(w.countsA + uint64(best*8))
	// End of a pass: thread 0 recomputes the centroids (a write burst).
	if tid == 0 && w.cursor[0]%(w.n/16) == 0 {
		w.pass++
		for c := 0; c < w.k; c++ {
			if w.counts[c] == 0 {
				continue
			}
			for j := 0; j < w.dim; j++ {
				w.centroids[c*w.dim+j] = w.sums[c*w.dim+j] / float64(w.counts[c])
				w.sums[c*w.dim+j] = 0
			}
			w.counts[c] = 0
		}
		h.LoadRange(w.sumsA, w.k*w.dim*8)
		h.StoreRange(w.centroidsA, w.k*w.dim*8)
		h.StoreRange(w.sumsA, w.k*w.dim*8) // reset
	}
	return true
}

// SSCA2 re-implements the SSCA2 graph kernel over a *real* generated
// graph: Setup builds a CSR adjacency structure with power-law-ish degree
// skew; Step walks a vertex's actual neighbour list and performs the
// scattered per-neighbour weight updates characteristic of kernel 4
// (betweenness-style accumulation).
type SSCA2 struct {
	th *threads
	v  int
	// Real CSR graph.
	index []int32
	edges []int32

	indexA, edgesA, workA uint64
}

// NewSSCA2 builds the benchmark (128K vertices, ~8 average degree).
func NewSSCA2() *SSCA2 {
	return &SSCA2{th: newThreads(opBudget), v: 128 << 10}
}

// Name implements trace.Workload.
func (w *SSCA2) Name() string { return "ssca2" }

// Setup implements trace.Workload: generate the graph.
func (w *SSCA2) Setup(h *trace.Heap, rng *sim.RNG) {
	deg := make([]int32, w.v)
	var edges int32
	for i := range deg {
		// Skewed degrees: mostly small, a heavy tail (cliques + chains as
		// in the SSCA2 generator's clustered structure).
		d := int32(1 + rng.Intn(8))
		if rng.Intn(64) == 0 {
			d += int32(rng.Intn(56))
		}
		deg[i] = d
		edges += d
	}
	w.index = make([]int32, w.v+1)
	for i := 0; i < w.v; i++ {
		w.index[i+1] = w.index[i] + deg[i]
	}
	w.edges = make([]int32, edges)
	for i := 0; i < w.v; i++ {
		for e := w.index[i]; e < w.index[i+1]; e++ {
			// Clustered endpoints: neighbours near i with occasional long
			// jumps, as in SSCA2's inter-clique edges.
			if rng.Intn(4) == 0 {
				w.edges[e] = int32(rng.Intn(w.v))
			} else {
				w.edges[e] = int32((i + rng.Intn(512) - 256 + w.v) % w.v)
			}
		}
	}
	w.indexA = h.Alloc((w.v + 1) * 4)
	w.edgesA = h.Alloc(int(edges) * 4)
	w.workA = h.Alloc(w.v * 8)
}

// Step implements trace.Workload: process one vertex's real neighbourhood.
func (w *SSCA2) Step(tid int, h *trace.Heap, rng *sim.RNG) bool {
	if !w.th.next(tid) {
		return false
	}
	u := rng.Intn(w.v)
	h.Load(w.indexA + uint64(u*4))
	lo, hi := w.index[u], w.index[u+1]
	h.LoadRange(w.edgesA+uint64(lo*4), int(hi-lo)*4)
	// Per-neighbour accumulation: read-modify-write the neighbour's cell.
	for e := lo; e < hi; e++ {
		nb := w.edges[e]
		h.Load(w.workA + uint64(nb)*8)
		h.Store(w.workA + uint64(nb)*8)
	}
	return true
}

// Labyrinth re-implements STAMP labyrinth with a real router: each
// operation runs a bounded breadth-first wavefront expansion from a random
// source over the shared occupancy grid (reading actual cell states),
// then traces a real path toward the target and claims its cells with
// stores — the long read phase followed by a write burst that makes the
// workload bursty.
type Labyrinth struct {
	th   *threads
	dim  int
	grid []uint8 // real occupancy state
	base uint64

	// BFS scratch, reused by every routed connection.
	frontier []cell
	seen     visitSet
}

// cell is a grid coordinate.
type cell struct{ x, y, z int }

// maxExpanded bounds one connection's wavefront: it expands at most this
// many cells and so visits at most 1 + 6*maxExpanded.
const maxExpanded = 256

// NewLabyrinth builds the benchmark (128x128x128 grid).
func NewLabyrinth() *Labyrinth {
	const visits = 1 + 6*maxExpanded
	return &Labyrinth{
		th:       newThreads(opBudget),
		dim:      128,
		frontier: make([]cell, 0, visits),
		seen:     newVisitSet(visits),
	}
}

// Name implements trace.Workload.
func (w *Labyrinth) Name() string { return "labyrinth" }

// Setup implements trace.Workload.
func (w *Labyrinth) Setup(h *trace.Heap, rng *sim.RNG) {
	w.grid = make([]uint8, w.dim*w.dim*w.dim)
	// Pre-place obstacles on ~10% of cells.
	for i := 0; i < len(w.grid)/10; i++ {
		w.grid[rng.Intn(len(w.grid))] = 0xFF
	}
	w.base = h.Alloc(len(w.grid) * 4)
}

func (w *Labyrinth) idx(x, y, z int) int { return (z*w.dim+y)*w.dim + x }

func (w *Labyrinth) cellAddr(i int) uint64 { return w.base + uint64(i*4) }

// Step implements trace.Workload: route one source->target connection.
func (w *Labyrinth) Step(tid int, h *trace.Heap, rng *sim.RNG) bool {
	if !w.th.next(tid) {
		return false
	}
	sx, sy, sz := rng.Intn(w.dim), rng.Intn(w.dim), rng.Intn(w.dim)
	tx, ty := (sx+16+rng.Intn(32))%w.dim, (sy+16+rng.Intn(32))%w.dim

	// Expansion: a bounded BFS wavefront reading real cell occupancy.
	w.seen.reset()
	w.seen.add(w.idx(sx, sy, sz))
	frontier := append(w.frontier[:0], cell{sx, sy, sz})
	for head := 0; head < len(frontier) && head < maxExpanded; head++ {
		cur := frontier[head]
		for _, d := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
			nx, ny, nz := (cur.x+d[0]+w.dim)%w.dim, (cur.y+d[1]+w.dim)%w.dim, (cur.z+d[2]+w.dim)%w.dim
			i := w.idx(nx, ny, nz)
			if !w.seen.add(i) {
				continue
			}
			h.Load(w.cellAddr(i)) // real occupancy check
			if w.grid[i] == 0 {
				frontier = append(frontier, cell{nx, ny, nz})
			}
		}
	}
	w.frontier = frontier

	// Traceback: claim a straight-ish path from source toward target,
	// marking real grid cells (the write burst).
	cx, cy, cz := sx, sy, sz
	for steps := 0; steps < 96 && (cx != tx || cy != ty); steps++ {
		switch {
		case cx != tx:
			cx = (cx + 1) % w.dim
		case cy != ty:
			cy = (cy + 1) % w.dim
		default:
			cz = (cz + 1) % w.dim
		}
		i := w.idx(cx, cy, cz)
		if w.grid[i] == 0 {
			// tid%255+1 keeps the claim marker non-zero for every thread id
			// (identical to tid+1 for the historical <=254-thread runs).
			w.grid[i] = uint8(tid%255 + 1)
			h.Store(w.cellAddr(i))
		} else {
			h.Load(w.cellAddr(i)) // blocked: reroute reads around it
			cz = (cz + 1) % w.dim
		}
	}
	return true
}

var _ = []trace.Workload{(*KMeans)(nil), (*SSCA2)(nil), (*Labyrinth)(nil)}

// visitSet is a set of grid cell indices, open-addressed and stamped with
// a generation: reset empties it by bumping the generation, so one table
// serves every connection a Labyrinth routes. It is only queried, never
// iterated.
type visitSet struct {
	slots []visitSlot
	shift uint // 32 - log2(len(slots)): hashes take the product's top bits
	gen   uint32
}

// visitSlot holds a cell index; it is occupied only while its gen is the
// set's.
type visitSlot struct {
	gen  uint32
	cell int32
}

// newVisitSet returns an empty set that holds up to bound cells at a load
// factor of at most one half.
func newVisitSet(bound int) visitSet {
	bits := uint(1)
	for 1<<bits < 2*bound {
		bits++
	}
	return visitSet{slots: make([]visitSlot, 1<<bits), shift: 32 - bits, gen: 1}
}

// reset empties the set.
func (s *visitSet) reset() {
	s.gen++
	if s.gen == 0 { // wrapped: a slot stamped 2^32 resets ago would read as live
		clear(s.slots)
		s.gen = 1
	}
}

// add inserts cell i and reports whether it was absent.
func (s *visitSet) add(i int) bool {
	mask := len(s.slots) - 1
	for j := int(uint32(i) * 0x9e3779b1 >> s.shift); ; j = (j + 1) & mask {
		sl := &s.slots[j]
		if sl.gen != s.gen {
			*sl = visitSlot{gen: s.gen, cell: int32(i)}
			return true
		}
		if sl.cell == int32(i) {
			return false
		}
	}
}
