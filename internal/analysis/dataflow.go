package analysis

// Forward dataflow over the CFGs of cfg.go: a small worklist fixpoint
// framework. An analyzer describes its lattice as a Flow — entry fact, join,
// equality, a per-node transfer and an optional per-edge transfer — and gets
// back the fact holding at the entry of every reachable block. Facts must be
// treated as immutable: Transfer and Edge return fresh values (copy-on-write
// is fine) and never mutate their argument, because one fact may be the
// stored in-state of several blocks at once.
//
// Termination is the analyzer's contract: Join must be monotone over a
// lattice of finite height (both shipped analyzers use small maps keyed by
// objects or rendered expressions, joined pointwise).

import "go/ast"

// Flow describes one forward dataflow problem.
type Flow[F any] struct {
	// Entry is the fact in force at function entry.
	Entry F
	// Join merges the facts of two converging paths.
	Join func(a, b F) F
	// Equal reports whether two facts are indistinguishable (fixpoint test).
	Equal func(a, b F) bool
	// Transfer applies one block node to a fact.
	Transfer func(n ast.Node, f F) F
	// Edge, when non-nil, refines the fact flowing along one outgoing edge:
	// branch indexes from.Succs, so with from.Cond != nil branch 0 is the
	// condition-true edge and branch 1 the condition-false edge. Analyzers
	// use it for condition-sensitive facts (`err != nil` proving a variable
	// nil on the false edge).
	Edge func(from *Block, branch int, f F) F
}

// Forward computes the fixpoint and returns the fact at the entry of every
// reachable block. Unreachable blocks have no entry in the result.
func (fl Flow[F]) Forward(g *CFG) map[*Block]F {
	in := map[*Block]F{g.Entry: fl.Entry}
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		f := in[b]
		for _, n := range b.Nodes {
			f = fl.Transfer(n, f)
		}
		for i, s := range b.Succs {
			ef := f
			if fl.Edge != nil {
				ef = fl.Edge(b, i, ef)
			}
			cur, ok := in[s]
			if ok {
				joined := fl.Join(cur, ef)
				if fl.Equal(joined, cur) {
					continue
				}
				in[s] = joined
			} else {
				in[s] = ef
			}
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// Replay re-applies Transfer across every reachable block in index order,
// invoking visit with the fact in force immediately before each node. It is
// the reporting pass: Forward finds the fixpoint, Replay walks it once more
// so analyzers can diagnose with exact per-node facts.
func (fl Flow[F]) Replay(g *CFG, in map[*Block]F, visit func(b *Block, n ast.Node, f F)) {
	for _, b := range g.Blocks {
		f, ok := in[b]
		if !ok {
			continue
		}
		for _, n := range b.Nodes {
			visit(b, n, f)
			f = fl.Transfer(n, f)
		}
	}
}

// walkShallow visits n's subtree in source order without descending into
// function literals (their bodies are separate functions with their own
// CFGs) and without re-entering nested statements behind the cfg wrapper
// nodes: a RangeHead visits only the range operand and key/value targets.
func walkShallow(n ast.Node, visit func(ast.Node) bool) {
	switch w := n.(type) {
	case *RangeHead:
		if w.Key != nil {
			walkShallow(w.Key, visit)
		}
		if w.Value != nil {
			walkShallow(w.Value, visit)
		}
		walkShallow(w.X, visit)
		return
	case *DeferRun:
		walkShallow(w.CallExpr, visit)
		return
	case *EndMarker:
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		return visit(m)
	})
}
