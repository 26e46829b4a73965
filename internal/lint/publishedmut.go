package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"maps"
)

// PublishedMut enforces the RCU discipline the dnsblplane snapshot
// design rests on: a value handed to atomic.Pointer.Store (or
// CompareAndSwap) is published — other goroutines may already be
// reading it — so every write to it after the publish point is a data
// race waiting for the right interleaving. The chaos race suite can
// only catch the interleavings it happens to provoke; this analyzer
// catches the pattern structurally.
//
// Within a function, writes after the Store through the published
// variable (or any local alias taken from it) are findings, and so are
// writes through a value returned by atomic.Pointer.Load — a
// copy-on-write update that forgets to copy. So is passing a frozen
// value into a callee whose fact-store mutation mask says it writes
// through that operand — the interprocedural half, so hiding the
// write in a helper (the shape of the original symtab bug) does not
// hide it from the analyzer.
var PublishedMut = &Analyzer{
	Name: "publishedmut",
	Doc: "forbid writes to a value after it is published via atomic.Pointer.Store/CompareAndSwap, " +
		"or loaded via Load, in engine packages; published snapshots are frozen (RCU) — build fully, then publish",
	Run: runPublishedMut,
}

func runPublishedMut(pass *Pass) error {
	if Classify(pass.Pkg.Path()) < ClassEngine {
		return nil
	}
	if pass.Inter == nil {
		return nil
	}
	for _, node := range pass.Inter.Graph.Nodes() {
		// Literals are scanned inside their enclosing declaration's
		// walk (they need its frozen set); only roots start one.
		if node.Decl != nil && node.Body != nil {
			checkPublishes(pass, node.Body)
		}
	}
	return nil
}

// pointerMethod returns the method name when call is a method call on
// a sync/atomic.Pointer[T], or "". Store on the scalar atomics (Int64,
// Value) publishes a copy, not shared structure, so only Pointer
// counts.
func pointerMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return ""
	}
	t := recvType(fn.Origin())
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); !ok || named.Obj().Name() != "Pointer" {
		return ""
	}
	return fn.Name()
}

// atomicPublish returns the published-value argument of an
// atomic.Pointer[T].Store or CompareAndSwap call, or nil.
func atomicPublish(info *types.Info, call *ast.CallExpr) ast.Expr {
	switch args := call.Args; pointerMethod(info, call) {
	case "Store":
		if len(args) == 1 {
			return args[0]
		}
	case "CompareAndSwap":
		if len(args) == 2 {
			return args[1]
		}
	}
	return nil
}

// atomicLoad reports whether e is an atomic.Pointer[T].Load call, or a
// selector, index or dereference chain rooted at one.
func atomicLoad(info *types.Info, e ast.Expr) bool {
	call, ok := chainBase(e).(*ast.CallExpr)
	return ok && pointerMethod(info, call) == "Load"
}

// isScope reports whether n opens a block: an explicit one, a switch
// or select clause, or the implicit block of an if, for or switch.
func isScope(n ast.Node) bool {
	switch n.(type) {
	case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause, *ast.IfStmt,
		*ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return true
	}
	return false
}

// checkPublishes scans one body in source order. A value passed to
// atomic.Pointer.Store or CompareAndSwap, or returned by Load (someone
// published it), is frozen, and so is every local alias derived from
// it; writes through a frozen name are reported until the name is
// rebound to a fresh value. The scan follows no control flow, so it
// errs toward reporting: a freeze made inside a nested block persists
// after the block (some path took it), while a rebind there thaws the
// name only to the end of that block (some path skipped it). A rebind
// in the block that made the freeze thaws it for good.
func checkPublishes(pass *Pass, body *ast.BlockStmt) {
	// frozen maps a published object (or alias) to the name it was
	// published or loaded under, for the diagnostic.
	frozen := make(map[types.Object]string)

	objOf := func(id *ast.Ident) types.Object {
		if obj := pass.Info.Uses[id]; obj != nil {
			return obj
		}
		return pass.Info.Defs[id]
	}
	// frozenAt returns the frozen name e reaches state through: a
	// frozen variable, or an atomic.Pointer.Load written through
	// directly.
	frozenAt := func(e ast.Expr) (string, bool) {
		if root := rootIdent(e); root != nil {
			name, ok := frozen[objOf(root)]
			return name, ok
		}
		return types.ExprString(e), atomicLoad(pass.Info, e)
	}
	reportWrite := func(lhs ast.Expr) {
		if writeRoot(lhs) == nil && !atomicLoad(pass.Info, lhs) {
			return // a plain rebinding x = v only changes the variable
		}
		if name, ok := frozenAt(lhs); ok {
			pass.Report(Diagnostic{
				Pos: lhs.Pos(),
				Message: fmt.Sprintf("write to %s after it was published via atomic.Pointer; "+
					"published snapshots are frozen — apply the change to a fresh copy and re-publish", name),
			})
		}
	}

	var scope ast.Node // the block whose walk is under way
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if isScope(n) && n != scope {
			// Walk the block, then bring back whatever it thawed of
			// the set frozen at its entry: a path may skip the block.
			entry, outer := maps.Clone(frozen), scope
			scope = n
			ast.Inspect(n, walk)
			scope = outer
			for obj, name := range entry {
				if _, ok := frozen[obj]; !ok {
					frozen[obj] = name
				}
			}
			return false
		}
		switch v := n.(type) {
		case *ast.FuncLit:
			// A literal's body may run before OR after the publish; a
			// deferred or spawned closure mutating the snapshot is
			// exactly the race. Keep scanning with the current frozen
			// set but do not let its rebinds unfreeze the outer walk.
			saved := frozen
			frozen = maps.Clone(frozen)
			ast.Inspect(v.Body, walk)
			frozen = saved
			return false
		case *ast.AssignStmt:
			// Writes through frozen roots; then rebinds and aliases.
			for _, lhs := range v.Lhs {
				reportWrite(lhs)
			}
			for i, lhs := range v.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := objOf(id)
				if obj == nil {
					continue
				}
				// Alias: q := frozenRoot[.f][i]... freezes q too, and
				// so does q := p.Load().
				if i < len(v.Rhs) {
					if name, ok := frozenAt(v.Rhs[i]); ok {
						if rootIdent(v.Rhs[i]) == nil {
							name = id.Name
						}
						frozen[obj] = name
						continue
					}
				}
				// Plain rebind to something un-frozen thaws the name.
				delete(frozen, obj)
			}
		case *ast.IncDecStmt:
			reportWrite(v.X)
		case *ast.CallExpr:
			if arg := atomicPublish(pass.Info, v); arg != nil {
				if root := rootIdent(arg); root != nil {
					if obj := objOf(root); obj != nil {
						frozen[obj] = root.Name
					}
				}
				return false
			}
			// delete(frozen.m, k) and append-into both mutate.
			if bi, ok := pass.Info.Uses[identOf(v.Fun)].(*types.Builtin); ok && bi.Name() == "delete" && len(v.Args) > 0 {
				if name, ok := frozenAt(v.Args[0]); ok {
					pass.Report(Diagnostic{
						Pos: v.Pos(),
						Message: fmt.Sprintf("delete from %s after it was published via atomic.Pointer; "+
							"published snapshots are frozen", name),
					})
				}
				return true
			}
			// Interprocedural: the published value passed into an
			// operand slot the callee's mutation mask marks written.
			callee := ResolveCallee(pass.Info, v.Fun)
			if callee == nil {
				return true
			}
			cf := pass.Inter.FactsFor(callee)
			if cf.MutMask == 0 {
				return true
			}
			for bit, operand := range calleeOperands(pass.Info, v, callee) {
				if bit >= 16 || cf.MutMask&(1<<bit) == 0 {
					continue
				}
				if name, ok := frozenAt(operand); ok {
					pass.Report(Diagnostic{
						Pos: operand.Pos(),
						Message: fmt.Sprintf("%s escapes to %s.%s, which writes through it, after %s was published "+
							"via atomic.Pointer; published snapshots are frozen",
							name, callee.Pkg().Name(), ObjectKey(callee), name),
					})
				}
			}
		}
		return true
	}
	for _, stmt := range body.List {
		ast.Inspect(stmt, walk)
	}
}
