package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockScope forbids blocking while holding a mutex in engine and
// deterministic packages. A channel park, a net dial, a WaitGroup.Wait
// or a call into a helper that does any of those between mu.Lock() and
// mu.Unlock() turns one slow peer into a plane-wide stall: every other
// goroutine needing the lock convoys behind the blocked holder. The
// overload queue's shape — unlock, then park on the channel, then
// relock — is the sanctioned pattern.
//
// The check is interprocedural through the fact store: a call to a
// local helper or an already-analyzed internal package's function that
// carries the Blocking fact is a finding just like a literal channel
// receive. sync.Cond.Wait is exempt (it releases the mutex while
// parked); select statements with a default case never block.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc: "forbid blocking operations (channel send/recv, net I/O, Wait, blocking helpers) " +
		"while a sync.Mutex/RWMutex is held in engine packages; unlock before parking",
	Run: runLockScope,
}

func runLockScope(pass *Pass) error {
	if Classify(pass.Pkg.Path()) < ClassEngine {
		return nil
	}
	if pass.Inter == nil {
		return nil
	}
	for _, node := range pass.Inter.Graph.Nodes() {
		if node.Decl != nil && node.Body != nil {
			checkLockScopes(pass, node.Body)
		}
	}
	return nil
}

// mutexMethod classifies a call on a sync.Mutex/RWMutex: it returns
// the lock path key (the dotted receiver expression, "s.mu"), the
// method name, and ok. Non-mutex calls and receivers too complex to
// key (index expressions, call results) return !ok — an unkeyable lock
// is simply not tracked, which under-reports rather than misfires.
func mutexMethod(info *types.Info, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	rt := recvType(fn)
	if rt == nil {
		return "", "", false
	}
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", "", false
	}
	key = exprPath(sel.X)
	if key == "" {
		return "", "", false
	}
	return key, fn.Name(), true
}

// exprPath renders a pure selector chain ("s.mu", "sh.state.mu") for
// lock identity, or "" when the expression involves calls, indexes or
// anything else whose identity a string cannot carry.
func exprPath(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		base := exprPath(v.X)
		if base == "" {
			return ""
		}
		return base + "." + v.Sel.Name
	case *ast.StarExpr:
		return exprPath(v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return exprPath(v.X)
		}
	}
	return ""
}

// checkLockScopes walks one declared function body in source order,
// tracking which mutexes are held, and reports blocking operations
// inside a held region.
func checkLockScopes(pass *Pass, body *ast.BlockStmt) {
	held := make(map[string]token.Pos) // lock key -> Lock() position

	report := func(pos token.Pos, what string) {
		// One finding per site, named for the first-sorted held lock
		// so output is deterministic when several are held.
		var key string
		for k := range held {
			if key == "" || k < key {
				key = k
			}
		}
		if key == "" {
			return
		}
		pass.Report(Diagnostic{
			Pos: pos,
			Message: fmt.Sprintf("%s while holding %s; blocking under a lock convoys every other "+
				"goroutine needing it — unlock before parking", what, key),
		})
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// The literal runs on its own stack at its own time; its
			// body gets a fresh held set via its own scan only when
			// invoked synchronously — conservatively skip.
			return false
		case *ast.SelectStmt:
			// select {..., default:} polls; without default it parks.
			hasDefault := false
			for _, cl := range v.Body.List {
				if cc, isComm := cl.(*ast.CommClause); isComm && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault && len(held) > 0 {
				report(v.Pos(), "select with no default case parks")
			}
			// Case bodies execute with the lock still held.
			for _, cl := range v.Body.List {
				if cc, isComm := cl.(*ast.CommClause); isComm {
					for _, s := range cc.Body {
						ast.Inspect(s, walk)
					}
				}
			}
			return false
		case *ast.SendStmt:
			if len(held) > 0 {
				report(v.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && len(held) > 0 {
				report(v.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if len(held) > 0 {
				if t := pass.Info.TypeOf(v.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						report(v.Pos(), "ranging over a channel")
					}
				}
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() scopes the lock to the whole function:
			// the region never closes during this walk, which is the
			// point — everything after the Lock runs under it.
			return false
		case *ast.CallExpr:
			if key, method, isMutex := mutexMethod(pass.Info, v); isMutex {
				switch method {
				case "Lock", "RLock":
					held[key] = v.Pos()
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return false
			}
			if len(held) == 0 {
				return true
			}
			if what := blockingNetCall(pass.Info, v); what != "" {
				report(v.Pos(), what)
				return true
			}
			if sm := syncMethod(pass.Info, v); sm != "" {
				if sm == "WaitGroup.Wait" {
					report(v.Pos(), "sync.WaitGroup.Wait")
				}
				// Cond.Wait releases the mutex while parked: exempt.
				return true
			}
			// Interprocedural: a call to a function whose computed
			// facts say it can block its caller.
			if callee := ResolveCallee(pass.Info, v.Fun); callee != nil {
				if pass.Inter.FactsFor(callee).Set.Has(FactBlocking) {
					pkgName := ""
					if callee.Pkg() != nil && callee.Pkg() != pass.Pkg {
						pkgName = callee.Pkg().Name() + "."
					}
					report(v.Pos(), fmt.Sprintf("call to %s%s, which can block", pkgName, ObjectKey(callee)))
				}
			}
		}
		return true
	}
	for _, stmt := range body.List {
		ast.Inspect(stmt, walk)
	}
}
