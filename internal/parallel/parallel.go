// Package parallel is the deterministic sweep engine: it fans independent
// simulation cells out across worker goroutines and merges their results in
// canonical (pre-assigned index) order, so a parallel sweep is byte-identical
// to the serial one. The engine owns no simulation state and no randomness —
// determinism rests on two contracts the callers uphold and the engine
// enforces structurally:
//
//  1. Cells share no mutable state. Every cell constructs its own scheme,
//     workload, golden model and PRNGs from its own parameters (the run seed
//     plus the cell index); the engine only ever hands a cell its index.
//  2. Results are merged by cell index, never by completion order.
//     ForEachOrdered buffers out-of-order completions and releases them to
//     the consumer strictly in index order, exactly as a serial loop would
//     have produced them; Map is ForEachOrdered writing each result into a
//     pre-assigned slot.
//
// With jobs <= 1 the engine degenerates to a plain serial loop on the
// calling goroutine — the legacy path, trivially identical to the pre-engine
// behaviour — which is what `-j 1` on the CLIs selects.
package parallel

import (
	"runtime"
	"sync"
)

// cursor hands out cell indices to workers and carries the early-stop
// signal. It is the one piece of state the workers share, so both fields
// are read and written only under mu. A mutex rather than atomics makes
// the claim of an index and the stop check one critical section: a worker
// can never claim a cell after stop() returned.
type cursor struct {
	mu      sync.Mutex
	next    int
	stopped bool
}

// take claims the next cell index. ok is false when the sweep is exhausted
// or stopped; the worker exits without computing anything.
func (c *cursor) take(n int) (idx int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || c.next >= n {
		return 0, false
	}
	idx = c.next
	c.next++
	return idx, true
}

// stop prevents any further take from succeeding. Cells already claimed
// finish normally and are discarded by the consumer loop.
func (c *cursor) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
}

// Jobs normalises a -j flag value: non-positive means "one worker per
// available CPU" (runtime.GOMAXPROCS(0)), anything else is taken as given.
func Jobs(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// Map runs n independent cells on up to jobs workers and returns their
// results indexed by cell. cell(i) must be a pure function of i and of
// state the caller guarantees immutable for the duration of the call; it
// must not touch any other cell's state. The returned slice is identical to
// {cell(0), cell(1), ..., cell(n-1)} computed serially: it is
// ForEachOrdered with a consumer that writes each result into its slot.
func Map[T any](jobs, n int, cell func(idx int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	ForEachOrdered(jobs, n, cell, func(i int, v T) bool {
		out[i] = v
		return true
	})
	return out
}

// ForEachOrdered runs n independent cells on up to jobs workers and feeds
// their results to consume strictly in index order on the calling
// goroutine, buffering out-of-order completions. consume returning false
// stops the sweep: no cell with a higher index is consumed, and workers
// stop picking up new cells (cells already in flight finish and are
// discarded). This mirrors a serial `for i { if !consume(i, cell(i)) break }`
// loop exactly — including which results the consumer observes before an
// early stop — which is what lets soak CLIs stream progress and abort on
// the first divergence without perturbing the reported output.
func ForEachOrdered[T any](jobs, n int, cell func(idx int) T, consume func(idx int, v T) bool) {
	if n <= 0 {
		return
	}
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if !consume(i, cell(i)) {
				return
			}
		}
		return
	}
	type item struct {
		idx int
		v   T
	}
	ch := make(chan item, jobs)
	var cur cursor
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := cur.take(n)
				if !ok {
					return
				}
				ch <- item{idx: i, v: cell(i)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	// Reorder buffer: results enter in completion order, leave in index
	// order. Map access here is by key only (no iteration), so delivery
	// order cannot leak into the consumer.
	pending := make(map[int]T, jobs)
	nextOut := 0
	stopped := false
	for it := range ch {
		if stopped {
			continue // draining so blocked workers can exit
		}
		pending[it.idx] = it.v
		for {
			v, ok := pending[nextOut]
			if !ok {
				break
			}
			delete(pending, nextOut)
			if !consume(nextOut, v) {
				stopped = true
				cur.stop()
				break
			}
			nextOut++
		}
	}
}
