package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// The transitive-taint engine. Leaf facts are read straight off each
// function body (an unsanctioned time.Now, a channel receive, a
// wg.Done); the fixpoint then folds callee facts into callers over the
// package call graph, consulting the fact store for callees that live
// in already-analyzed packages. The result — one Inter per package —
// is what lets wallclock and globalrand see through helper
// indirection, lockscope see a blocking helper called under a mutex,
// and goroleak see that a spawned method defers wg.Done three calls
// down.

// Inter carries one package's interprocedural results into analyzers.
type Inter struct {
	// Graph is the package call graph.
	Graph *CallGraph
	// Store resolves facts for functions of other packages.
	Store *FactStore
	// facts holds this package's per-node results (declared funcs and
	// literals both).
	facts map[*CallNode]FuncFacts
}

// FactsFor returns the computed facts for a declared function —
// this package's if fn is local, the store's otherwise.
func (in *Inter) FactsFor(fn *types.Func) FuncFacts {
	if fn == nil {
		return FuncFacts{}
	}
	if node := in.Graph.NodeFor(fn); node != nil {
		return in.facts[node]
	}
	return in.Store.Lookup(fn)
}

// FactsForLit returns the facts of a function literal in this package.
func (in *Inter) FactsForLit(lit *ast.FuncLit) FuncFacts {
	if node := in.Graph.LitNode(lit); node != nil {
		return in.facts[node]
	}
	return FuncFacts{}
}

// ComputeInter builds the call graph, seeds leaf facts, runs the
// propagation fixpoint, and records the package's facts in the store
// for downstream packages.
func ComputeInter(pass *Pass, allows AllowSet, store *FactStore) *Inter {
	g := BuildCallGraph(pass.Files, pass.Info)
	in := &Inter{Graph: g, Store: store, facts: make(map[*CallNode]FuncFacts)}

	// Leaf pass: per-body facts with no call edges considered.
	for _, node := range g.Nodes() {
		in.facts[node] = leafFacts(pass, node, allows)
	}

	// Fixpoint: fold callee facts into callers until stable. Taint
	// bits flow over every edge kind (a spawned or deferred or merely
	// stored tainted function still taints the world the caller
	// builds); Blocking flows over plain calls only (a go statement
	// does not block its spawner, a deferred call blocks after the
	// body); Tracked flows over call edges so a spawned method may
	// delegate its wg.Done to a helper.
	for changed := true; changed; {
		changed = false
		for _, node := range g.Nodes() {
			f := in.facts[node]
			for _, e := range node.Edges {
				var cf FuncFacts
				if e.Lit != nil {
					cf = in.facts[g.LitNode(e.Lit)]
				} else if local := g.NodeFor(e.Callee); local != nil {
					cf = in.facts[local]
				} else {
					cf = in.Store.Lookup(e.Callee)
				}
				add := cf.Set & (FactWallClock | FactGlobalRand)
				if add != 0 {
					// An allow at the call site cleanses the chain,
					// exactly as it would cleanse a direct use: the
					// annotation vouches for everything behind it.
					p := pass.Fset.Position(e.Pos.Pos())
					if add.Has(FactWallClock) && allows.Suppresses(p, WallClock.Name) {
						add &^= FactWallClock
					}
					if add.Has(FactGlobalRand) && allows.Suppresses(p, GlobalRand.Name) {
						add &^= FactGlobalRand
					}
				}
				if e.Kind == EdgeCall {
					add |= cf.Set & (FactBlocking | FactTracked)
				}
				if f.Set|add != f.Set {
					f.Set |= add
					changed = true
				}
			}
			in.facts[node] = f
		}
	}

	// Parameter-mutation masks: direct writes through parameters, then
	// one more fixpoint for arguments forwarded to mutating callees.
	computeMutMasks(pass, in)

	// Publish this package's declared-function facts for dependents.
	for fn, node := range g.Funcs {
		store.put(fn, in.facts[node])
	}
	return in
}

// leafFacts reads the directly visible facts off one body.
func leafFacts(pass *Pass, node *CallNode, allows AllowSet) FuncFacts {
	var f FuncFacts
	if node.Body == nil {
		return f
	}
	// Params that are context.Context make the function Tracked.
	var ft *ast.FuncType
	if node.Decl != nil {
		ft = node.Decl.Type
	} else if node.Lit != nil {
		ft = node.Lit.Type
	}
	if ft != nil && ft.Params != nil {
		for _, p := range ft.Params.List {
			if t := pass.Info.TypeOf(p.Type); t != nil && t.String() == "context.Context" {
				f.Set |= FactTracked
			}
		}
	}

	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // its own node owns its facts
		case *ast.SelectStmt:
			// A select is cancellable by construction for Blocking
			// purposes: its comm clauses contribute every fact EXCEPT
			// Blocking (so `case <-ctx.Done():` still marks the
			// function Tracked). The case bodies run unguarded and
			// contribute everything.
			for _, cl := range v.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm != nil {
					var comm FuncFacts
					ast.Inspect(cc.Comm, func(n ast.Node) bool {
						leafInspect(pass, n, allows, &comm)
						_, isLit := n.(*ast.FuncLit)
						return !isLit
					})
					f.Set |= comm.Set &^ FactBlocking
					f.MutMask |= comm.MutMask
				}
				for _, s := range cc.Body {
					ast.Inspect(s, func(n ast.Node) bool {
						leafInspect(pass, n, allows, &f)
						_, isLit := n.(*ast.FuncLit)
						return !isLit
					})
				}
			}
			return false
		default:
			leafInspect(pass, n, allows, &f)
		}
		return true
	})
	return f
}

// leafInspect folds one node's contribution into f.
func leafInspect(pass *Pass, n ast.Node, allows AllowSet, f *FuncFacts) {
	switch v := n.(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[v]
		if obj == nil {
			return
		}
		// context.Context flowing through the body (captured from an
		// enclosing scope, stored in a struct) tracks the goroutine.
		if vr, ok := obj.(*types.Var); ok && vr.Type() != nil && vr.Type().String() == "context.Context" {
			f.Set |= FactTracked
		}
		pkg := obj.Pkg()
		if pkg == nil {
			return
		}
		switch pkg.Path() {
		case "time":
			if wallClockFuncs[v.Name] && !allows.Suppresses(pass.Fset.Position(v.Pos()), WallClock.Name) {
				f.Set |= FactWallClock
			}
		case "math/rand", "math/rand/v2":
			fn, isFunc := obj.(*types.Func)
			if isFunc && fn.Type().(*types.Signature).Recv() == nil &&
				!globalRandConstructors[v.Name] &&
				!allows.Suppresses(pass.Fset.Position(v.Pos()), GlobalRand.Name) {
				f.Set |= FactGlobalRand
			}
		case modulePrefix + "internal/lifecycle":
			// Any lifecycle use (Run, Stack) counts as structured
			// registration.
			f.Set |= FactTracked
		}
	case *ast.SendStmt:
		f.Set |= FactBlocking
	case *ast.UnaryExpr:
		if v.Op == token.ARROW {
			f.Set |= FactBlocking
		}
	case *ast.RangeStmt:
		if t := pass.Info.TypeOf(v.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				f.Set |= FactBlocking
			}
		}
	case *ast.CallExpr:
		if what := blockingNetCall(pass.Info, v); what != "" {
			f.Set |= FactBlocking
		}
		if fn := syncMethod(pass.Info, v); fn != "" {
			switch fn {
			case "WaitGroup.Wait":
				f.Set |= FactBlocking | FactTracked
			case "WaitGroup.Done":
				f.Set |= FactTracked
			}
		}
	}
}

// syncMethod identifies calls to methods of sync types, returned as
// "Type.Method" ("WaitGroup.Wait"), or "".
func syncMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	rt := recvType(fn)
	if rt == nil {
		return ""
	}
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name() + "." + fn.Name()
}

// computeMutMasks fills each node's mutation mask: a bit set when the
// function may write through that operand (field store, element store,
// or forwarding it to a mutating operand of a local or
// already-analyzed callee). Bit layout: methods carry the receiver at
// bit 0 with parameters shifted up one; plain functions and literals
// carry parameter i at bit i. calleeOperands lays call-site operands
// out in the same order.
func computeMutMasks(pass *Pass, in *Inter) {
	paramObjs := make(map[*CallNode]map[types.Object]int)
	for _, node := range in.Graph.Nodes() {
		var ft *ast.FuncType
		var recv *ast.FieldList
		if node.Decl != nil {
			ft = node.Decl.Type
			recv = node.Decl.Recv
		} else if node.Lit != nil {
			ft = node.Lit.Type
		}
		if ft == nil {
			continue
		}
		m := make(map[types.Object]int)
		i := 0
		if recv != nil {
			for _, field := range recv.List {
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						m[obj] = 0
					}
				}
			}
			i = 1
		}
		if ft.Params != nil {
			for _, field := range ft.Params.List {
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil && i < 16 {
						m[obj] = i
					}
					i++
				}
				if len(field.Names) == 0 {
					i++
				}
			}
		}
		paramObjs[node] = m
	}

	for changed := true; changed; {
		changed = false
		for _, node := range in.Graph.Nodes() {
			if node.Body == nil {
				continue
			}
			params := paramObjs[node]
			if len(params) == 0 {
				continue
			}
			f := in.facts[node]
			// owner maps each parameter, and each local holding a
			// pointer, slice or map taken from one (sl := &b[i]), to
			// the operand bit a write through it sets.
			owner := maps.Clone(params)
			mark := func(root *ast.Ident) {
				if i, ok := owner[pass.Info.Uses[root]]; ok {
					f.MutMask |= 1 << i
				}
			}
			ast.Inspect(node.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range v.Lhs {
						mark(writeRoot(lhs))
					}
					for i, lhs := range v.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || i >= len(v.Rhs) || !isReference(pass.Info.TypeOf(v.Rhs[i])) {
							continue
						}
						if bit, ok := owner[pass.Info.Uses[rootIdent(v.Rhs[i])]]; ok && pass.Info.ObjectOf(id) != nil {
							owner[pass.Info.ObjectOf(id)] = bit
						}
					}
				case *ast.IncDecStmt:
					mark(writeRoot(v.X))
				case *ast.CallExpr:
					// delete(m, k) mutates its map operand.
					if bi, ok := pass.Info.Uses[identOf(v.Fun)].(*types.Builtin); ok && bi.Name() == "delete" && len(v.Args) > 0 {
						mark(rootIdent(v.Args[0]))
					}
					// Forwarding: an operand passed into a mutating
					// operand slot of a resolvable callee.
					callee := ResolveCallee(pass.Info, v.Fun)
					if callee == nil {
						return true
					}
					cf := in.FactsFor(callee)
					if cf.MutMask == 0 {
						return true
					}
					for bit, arg := range calleeOperands(pass.Info, v, callee) {
						if bit >= 16 || cf.MutMask&(1<<bit) == 0 {
							continue
						}
						mark(rootIdent(arg))
					}
				}
				return true
			})
			if f.MutMask != in.facts[node].MutMask {
				in.facts[node] = f
				changed = true
			}
		}
	}
}

// isReference reports whether a value of type t refers to storage it
// does not hold itself: a pointer, slice or map.
func isReference(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// calleeOperands lays a resolved call's operand expressions out in the
// callee's MutMask bit order: for a method value call x.M(a, b) that
// is [x, a, b]; for a method expression T.M(x, a, b) the receiver is
// already explicit argument 0; for plain functions it is the argument
// list itself.
func calleeOperands(info *types.Info, call *ast.CallExpr, callee *types.Func) []ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if s, found := info.Selections[sel]; found && s.Kind() == types.MethodVal {
				return append([]ast.Expr{sel.X}, call.Args...)
			}
		}
	}
	return call.Args
}

// writeRoot returns the base identifier of a write that mutates
// pointed-to state — x.f = v, x[i] = v, *x = v — but NOT a plain
// rebinding x = v, which only changes the local variable.
func writeRoot(lhs ast.Expr) *ast.Ident {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return rootIdent(v)
	case *ast.IndexExpr:
		return rootIdent(v)
	case *ast.StarExpr:
		return rootIdent(v.X)
	}
	return nil
}

// rootIdent walks selectors, indexes, unary &/* and parens down to the
// base identifier, or nil (a chain derived through a call is lost).
func rootIdent(e ast.Expr) *ast.Ident {
	id, _ := chainBase(e).(*ast.Ident)
	return id
}

// chainBase walks selectors, indexes, slices, unary &/* and parens
// down to the expression they start from.
func chainBase(e ast.Expr) ast.Expr {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return v
		}
	}
}

// identOf returns the expression's identifier when it is one (after
// unwrapping parens), else nil.
func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// reportEscalations reports every call, spawn, defer or value
// reference whose target lives in ANOTHER module-internal package and
// carries the given taint bit — the transitive escalation of a leaf
// check through helper indirection. Local targets are skipped: their
// own leaf use was already reported at its line (or cleansed by an
// allow, in which case the taint never propagated here). The describe
// callback renders the finding for one tainted callee.
func reportEscalations(pass *Pass, bit FactSet, describe func(fn *types.Func) string) {
	in := pass.Inter
	if in == nil {
		return
	}
	for _, node := range in.Graph.Nodes() {
		for _, e := range node.Edges {
			if e.Callee == nil || in.Graph.NodeFor(e.Callee) != nil {
				continue // a literal, or a local function: leaf reports cover it
			}
			pkg := e.Callee.Pkg()
			if pkg == nil || !strings.HasPrefix(canonicalPath(pkg.Path()), modulePrefix+"internal/") {
				continue
			}
			if in.Store.Lookup(e.Callee).Set.Has(bit) {
				pass.Report(Diagnostic{Pos: e.Pos.Pos(), Message: describe(e.Callee)})
			}
		}
	}
}
