package analysis

// PersistOrder enforces the durable-path ordering discipline of the
// file-backed plane: data is written, then fsynced, and only then published
// by rename — and a rename is not durable until the parent directory is
// fsynced. The crash-consistency sweep checks this dynamically for the
// schedules it happens to execute; this analyzer proves it for every path
// of every function that opts in with `nvlint:durable` in its doc comment,
// inside internal/store.
//
// The dataflow fact is a per-file-handle state machine
//
//	clean → written → synced
//
// advanced by operations the analyzer recognises (handles are tracked by
// their rendered expression, so fields like p.seg work alongside locals):
//
//   - os.OpenFile / os.Create / os.Open results start a handle at clean, as
//     do Open/Create/CreateExcl/OpenFile method calls on a VFS value (any
//     expression whose static type is named FS or *…FS — the fault.FS seam);
//   - a Write/WriteString/WriteAt/Flush call on a handle, a write through a
//     bufio.Writer wrapping it (bufio.NewWriter aliases are followed, as is
//     a struct literal capturing the handle — the retryFile adapter shape),
//     or the handle escaping into any unrecognised call marks it written;
//   - Sync() moves it to synced; Close() preserves whatever state it had —
//     closing does not sync, so written-then-closed is still unpublishable;
//   - os.Rename — or Rename on a VFS value — demands every tracked handle
//     be clean or synced: a handle
//     still written means data is being published before it is durable.
//     The rename also arms a pending-rename obligation that only a
//     parent-directory fsync discharges: a call to a function named
//     syncDir/SyncDir, or Sync() on a handle that was never written (the
//     open-the-directory-and-sync idiom);
//   - reaching a return with the obligation still armed is a finding —
//     unless the path is an error abort (it passed through the true edge
//     of an `err != nil` test), where durability is not being claimed.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PersistOrder is the durability-ordering analyzer.
var PersistOrder = &Analyzer{
	Name:  "persistorder",
	Doc:   "nvlint:durable functions must write → fsync → rename → fsync parent dir, on every path",
	Match: persistScope,
	Run:   runPersistOrder,
}

// Handle states. Absence from the fact map means the expression is not a
// tracked handle.
const (
	hClean   = iota // opened, nothing unflushed
	hWritten        // data written since the last fsync
	hSynced         // fsynced; contents durable under the current name
)

// poFact is the persistorder dataflow fact. Facts are immutable: every
// transfer that changes anything clones first.
type poFact struct {
	handles map[string]int // rendered handle expr -> hClean/hWritten/hSynced
	aliases map[string]string
	// pendingRename: an os.Rename happened and no parent-dir fsync has yet
	// made it durable. renamePos is the arming call, for the report.
	pendingRename bool
	renamePos     ast.Node
	// aborted: this path took the error edge of a nil test; it is an abort
	// path and durability claims are off.
	aborted bool
}

func (f poFact) clone() poFact {
	g := f
	g.handles = make(map[string]int, len(f.handles))
	for k, v := range f.handles {
		g.handles[k] = v
	}
	g.aliases = make(map[string]string, len(f.aliases))
	for k, v := range f.aliases {
		g.aliases[k] = v
	}
	return g
}

// resolve follows writer aliases (w := bufio.NewWriter(f)) to the handle.
func (f poFact) resolve(key string) string {
	for i := 0; i < 8 && key != ""; i++ { // alias chains are short
		next, ok := f.aliases[key]
		if !ok {
			return key
		}
		key = next
	}
	return key
}

// joinHandleState merges the states a handle has on two converging paths:
// written on either path dominates (the merge must still forbid a rename),
// synced survives only when proven on both.
func joinHandleState(a, b int) int {
	if a == hWritten || b == hWritten {
		return hWritten
	}
	if a == hSynced && b == hSynced {
		return hSynced
	}
	return hClean
}

func poJoin(a, b poFact) poFact {
	out := poFact{
		handles:       make(map[string]int, len(a.handles)+len(b.handles)),
		aliases:       make(map[string]string, len(a.aliases)+len(b.aliases)),
		pendingRename: a.pendingRename || b.pendingRename,
		aborted:       a.aborted && b.aborted,
	}
	for k, v := range a.handles {
		if bv, ok := b.handles[k]; ok {
			out.handles[k] = joinHandleState(v, bv)
		} else {
			out.handles[k] = v
		}
	}
	for k, v := range b.handles {
		if _, ok := a.handles[k]; !ok {
			out.handles[k] = v
		}
	}
	for k, v := range a.aliases {
		out.aliases[k] = v
	}
	for k, v := range b.aliases {
		out.aliases[k] = v
	}
	out.renamePos = a.renamePos
	if out.renamePos == nil {
		out.renamePos = b.renamePos
	}
	return out
}

func poEqual(a, b poFact) bool {
	if a.pendingRename != b.pendingRename || a.aborted != b.aborted ||
		len(a.handles) != len(b.handles) || len(a.aliases) != len(b.aliases) {
		return false
	}
	for k, v := range a.handles {
		if bv, ok := b.handles[k]; !ok || bv != v {
			return false
		}
	}
	for k, v := range a.aliases {
		if bv, ok := b.aliases[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func runPersistOrder(pass *Pass) {
	eachFuncCFG(pass, func(fn ast.Node, g *CFG) {
		fd, ok := fn.(*ast.FuncDecl)
		if !ok || !commentHas(fd.Doc, directiveDurable) {
			return
		}
		po := &persistOrder{pass: pass}
		flow := Flow[poFact]{
			Entry:    poFact{handles: map[string]int{}, aliases: map[string]string{}},
			Join:     poJoin,
			Equal:    poEqual,
			Transfer: po.transfer,
			Edge:     errAbortEdge(pass),
		}
		in := flow.Forward(g)
		// The replay re-applies the same transfer with reporting armed; the
		// diagnostics land exactly where the fixpoint facts say they must.
		po.report = true
		flow.Replay(g, in, func(*Block, ast.Node, poFact) {})
	})
}

// errAbortEdge marks the condition-true edge of an `X != nil` (or the
// false edge of an `X == nil`) test on an error-typed X as an abort path.
// Shared with any fact type carrying the aborted bit via the poFact shape.
func errAbortEdge(pass *Pass) func(from *Block, branch int, f poFact) poFact {
	return func(from *Block, branch int, f poFact) poFact {
		if from.Cond == nil {
			return f
		}
		nonNil, _, ok := errNilTest(pass, from.Cond)
		if !ok {
			return f
		}
		// branch 0 is the condition-true edge.
		errPath := (branch == 0) == nonNil
		if errPath && !f.aborted {
			g := f.clone()
			g.aborted = true
			return g
		}
		return f
	}
}

// errNilTest recognises `X != nil` / `nil != X` (nonNil=true) and
// `X == nil` / `nil == X` (nonNil=false) where X is error-typed, returning
// the non-nil operand.
func errNilTest(pass *Pass, cond ast.Expr) (nonNil bool, x ast.Expr, ok bool) {
	be, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (be.Op != token.NEQ && be.Op != token.EQL) {
		return false, nil, false
	}
	if isNilIdent(be.Y) {
		x = be.X
	} else if isNilIdent(be.X) {
		x = be.Y
	} else {
		return false, nil, false
	}
	tv, found := pass.Info.Types[x]
	if !found || tv.Type == nil || !types.Identical(tv.Type, errorType) {
		return false, nil, false
	}
	return be.Op == token.NEQ, x, true
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

type persistOrder struct {
	pass   *Pass
	report bool
}

// transfer folds one node into the fact. With report set (the replay pass)
// it also emits diagnostics.
func (po *persistOrder) transfer(n ast.Node, f poFact) poFact {
	switch n.(type) {
	case *ast.ReturnStmt, *EndMarker:
		// Calls in the return expression (`return syncDir(dir)`) discharge
		// the obligation before the exit check.
		out := po.applyNode(n, f)
		if po.report && out.pendingRename && !out.aborted {
			pos := n.Pos()
			if out.renamePos != nil {
				pos = out.renamePos.Pos()
			}
			po.pass.Reportf(pos, "rename is published without an fsync of the parent directory on some path to return; sync the directory before claiming durability")
		}
		return out
	}
	return po.applyNode(n, f)
}

// applyNode folds the assignments and calls of one node, in source order.
func (po *persistOrder) applyNode(n ast.Node, f poFact) poFact {
	out := f
	if as, ok := n.(*ast.AssignStmt); ok {
		out = po.applyAssign(as, out)
	}
	walkShallow(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			out = po.applyCall(call, out)
		}
		return true
	})
	return out
}

// applyAssign tracks handle creation (`f, err := os.OpenFile(...)` and the
// VFS form `f, err := p.fsys.Create(...)`), writer aliasing
// (`w := bufio.NewWriter(f)`), and adapter aliasing through a struct
// literal capturing a tracked handle (`rf := &retryFile{f: f, p: p}`).
func (po *persistOrder) applyAssign(as *ast.AssignStmt, f poFact) poFact {
	if len(as.Rhs) != 1 {
		return f
	}
	if lit := compositeLit(as.Rhs[0]); lit != nil && len(as.Lhs) == 1 {
		dst := exprKey(as.Lhs[0])
		if dst == "" || dst == "_" {
			return f
		}
		for _, elt := range lit.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			src := f.resolve(exprKey(v))
			if _, tracked := f.handles[src]; tracked {
				out := f.clone()
				out.aliases[dst] = src
				return out
			}
		}
		return f
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return f
	}
	pkg, name := calleePkgFunc(po.pass, call)
	switch {
	case pkg == "os" && (name == "OpenFile" || name == "Create" || name == "Open"),
		isVFSCall(po.pass, call, "Open", "OpenFile", "Create", "CreateExcl"):
		if len(as.Lhs) >= 1 {
			if key := exprKey(as.Lhs[0]); key != "" && key != "_" {
				out := f.clone()
				out.handles[key] = hClean
				return out
			}
		}
	case pkg == "bufio" && (name == "NewWriter" || name == "NewWriterSize"):
		if len(as.Lhs) == 1 && len(call.Args) >= 1 {
			dst := exprKey(as.Lhs[0])
			src := f.resolve(exprKey(call.Args[0]))
			if dst != "" && src != "" {
				out := f.clone()
				out.aliases[dst] = src
				return out
			}
		}
	}
	return f
}

// compositeLit unwraps `T{...}` and `&T{...}` assignment sources.
func compositeLit(e ast.Expr) *ast.CompositeLit {
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ue.X
	}
	if lit, ok := e.(*ast.CompositeLit); ok {
		return lit
	}
	return nil
}

// applyCall advances the state machine for one call expression.
func (po *persistOrder) applyCall(call *ast.CallExpr, f poFact) poFact {
	pkg, name := calleePkgFunc(po.pass, call)
	if (pkg == "os" && name == "Rename") || isVFSCall(po.pass, call, "Rename") {
		out := f.clone()
		if po.report && !f.aborted {
			var dirty []string
			for h, st := range f.handles {
				if st == hWritten {
					dirty = append(dirty, h)
				}
			}
			sort.Strings(dirty)
			for _, h := range dirty {
				po.pass.Reportf(call.Pos(), "rename while %s is written but not fsynced; sync before publishing (rename makes un-fsynced data reachable)", h)
			}
		}
		out.pendingRename = true
		out.renamePos = call
		return out
	}
	switch pkg {
	case "os":
		if name == "OpenFile" || name == "Create" || name == "Open" {
			return f // handle creation is handled at the assignment
		}
	case "bufio":
		if name == "NewWriter" || name == "NewWriterSize" {
			return f // aliasing, not a write; handled at the assignment
		}
	}
	if isVFSCall(po.pass, call, "Open", "OpenFile", "Create", "CreateExcl") {
		return f // handle creation is handled at the assignment
	}

	// Method calls on tracked handles / writer aliases.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		key := f.resolve(exprKey(sel.X))
		if st, tracked := f.handles[key]; tracked {
			switch sel.Sel.Name {
			case "Sync":
				out := f.clone()
				if st == hClean && f.pendingRename {
					// Sync on a never-written handle is the
					// open-directory-and-sync idiom: the rename is durable.
					out.pendingRename = false
					out.renamePos = nil
				}
				out.handles[key] = hSynced
				return out
			case "Close":
				return f // state survives: close does not sync
			case "Write", "WriteString", "WriteAt", "Flush":
				out := f.clone()
				out.handles[key] = hWritten
				return out
			}
		}
	}

	// A syncDir-style helper discharges the parent-fsync obligation.
	if isSyncDirCall(call) {
		if f.pendingRename {
			out := f.clone()
			out.pendingRename = false
			out.renamePos = nil
			return out
		}
		return f
	}

	// Any unrecognised call that a handle (or an alias of one) escapes
	// into is assumed to write: putWord(w, v) dirties the file behind w.
	out := f
	cloned := false
	for _, arg := range call.Args {
		key := f.resolve(exprKey(arg))
		if _, tracked := out.handles[key]; tracked {
			if !cloned {
				out = f.clone()
				cloned = true
			}
			out.handles[key] = hWritten
		}
	}
	return out
}

// isSyncDirCall recognises a call to a function named syncDir (package
// local or selected), the repository's parent-directory fsync helper shape.
func isSyncDirCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "syncDir"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "SyncDir" || fun.Sel.Name == "syncDir"
	}
	return false
}

// isVFSCall reports whether call is a method call with one of the given
// names on a VFS value: an expression whose static type (pointer stripped)
// is a named type called FS or ending in FS — the fault.FS seam and its
// implementations. Matching on the type name rather than the package path
// keeps the analyzer decoupled from the seam's import path (and lets the
// fixture tests declare their own FS).
func isVFSCall(pass *Pass, call *ast.CallExpr, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	found := false
	for _, n := range names {
		if sel.Sel.Name == n {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "FS" || strings.HasSuffix(name, "FS")
}

// calleePkgFunc resolves a call to (package path, function name) when the
// callee is a package-level function accessed through a package name
// (os.Rename, bufio.NewWriter). Returns "" otherwise.
func calleePkgFunc(pass *Pass, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path(), sel.Sel.Name
	}
	return "", ""
}

// exprKey renders an expression as a stable tracking key: identifiers and
// dotted selector paths only ("f", "p.seg"); anything else is untrackable
// and returns "".
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	}
	return ""
}
