package workload

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// refRoute is Labyrinth.Step's routing with a fresh Go map and frontier
// per connection: the oracle the reused visited set must match.
func refRoute(w *Labyrinth, grid []uint8, tid int, h *trace.Heap, rng *sim.RNG) {
	sx, sy, sz := rng.Intn(w.dim), rng.Intn(w.dim), rng.Intn(w.dim)
	tx, ty := (sx+16+rng.Intn(32))%w.dim, (sy+16+rng.Intn(32))%w.dim
	frontier := []cell{{sx, sy, sz}}
	seen := map[int]bool{w.idx(sx, sy, sz): true}
	expanded := 0
	for len(frontier) > 0 && expanded < 256 {
		cur := frontier[0]
		frontier = frontier[1:]
		expanded++
		for _, d := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
			nx, ny, nz := (cur.x+d[0]+w.dim)%w.dim, (cur.y+d[1]+w.dim)%w.dim, (cur.z+d[2]+w.dim)%w.dim
			i := w.idx(nx, ny, nz)
			if seen[i] {
				continue
			}
			seen[i] = true
			h.Load(w.cellAddr(i))
			if grid[i] == 0 {
				frontier = append(frontier, cell{nx, ny, nz})
			}
		}
	}
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
		if grid[i] == 0 {
			grid[i] = uint8(tid%255 + 1)
			h.Store(w.cellAddr(i))
		} else {
			h.Load(w.cellAddr(i))
			cz = (cz + 1) % w.dim
		}
	}
}

// TestLabyrinthMatchesMapBFS routes connections on a 16^3 grid, where
// every wavefront overlaps the cells earlier ones visited, and requires
// each Step to emit exactly the accesses of the map-based oracle: a
// visited set that leaks cells from one connection into the next skips
// their loads.
func TestLabyrinthMatchesMapBFS(t *testing.T) {
	cfg := wlCfg()
	w := NewLabyrinth()
	w.dim = 16
	h := trace.NewHeap(cfg)
	w.Setup(h, sim.NewRNG(3))
	grid := append([]uint8(nil), w.grid...)
	refHeap := trace.NewHeap(cfg)

	var got, want []trace.Op
	h.SetConsumer(func(op trace.Op) { got = append(got, op) })
	refHeap.SetConsumer(func(op trace.Op) { want = append(want, op) })
	r, refR := sim.NewRNG(4), sim.NewRNG(4)
	for step := 0; step < 200; step++ {
		tid := step % 16
		got, want = got[:0], want[:0]
		w.Step(tid, h, r)
		refRoute(w, grid, tid, refHeap, refR)
		if len(got) != len(want) {
			t.Fatalf("step %d: %d accesses, oracle %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d access %d: %+v, oracle %+v", step, i, got[i], want[i])
			}
		}
	}
}

// TestLabyrinthStepAllocatesNothing guards the router's scratch: after a
// warm-up step, routing a connection allocates nothing.
func TestLabyrinthStepAllocatesNothing(t *testing.T) {
	w := NewLabyrinth()
	h := trace.NewHeap(wlCfg())
	w.Setup(h, sim.NewRNG(1))
	loads := 0
	h.SetConsumer(func(op trace.Op) {
		if !op.Write {
			loads++
		}
	})
	r := sim.NewRNG(2)
	w.Step(0, h, r)
	if n := testing.AllocsPerRun(50, func() { w.Step(1, h, r) }); n != 0 {
		t.Fatalf("Labyrinth.Step made %v allocations per connection", n)
	}
	if loads == 0 {
		t.Fatal("no wavefront loads")
	}
}

// TestVisitSetGenerationWrap checks that emptying the set survives the
// generation counter wrapping: a cell stamped before the wrap must not read
// as present after it.
func TestVisitSetGenerationWrap(t *testing.T) {
	s := newVisitSet(8)
	s.gen = 0
	s.reset() // gen 1
	if !s.add(7) || s.add(7) {
		t.Fatal("add(7) twice in one generation")
	}
	s.gen = ^uint32(0)
	if !s.add(9) {
		t.Fatal("cell 9 present in a fresh generation")
	}
	s.reset() // wraps
	for _, c := range []int{7, 9} {
		if !s.add(c) {
			t.Fatalf("cell %d survived the wrap", c)
		}
	}
}
