package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CtxBlocking enforces the Context-variant convention on the network
// edge (feedsync, dnsbl, smtpd, dnsblplane) and on sweep, whose
// RunLocal blocks for a whole sweep: an exported API that blocks —
// dials, accepts, or parks on a channel — must either take a
// context.Context itself or have a sibling that does
// (Listed/ListedContext, Close/Shutdown), so callers can always bound
// the wait. Only the function's own body is inspected (blocking inside
// a spawned goroutine does not block the caller), and select
// statements are treated as cancellable by construction.
var CtxBlocking = &Analyzer{
	Name: "ctxblocking",
	Doc: "exported blocking APIs in feedsync/dnsbl/smtpd/dnsblplane/sweep must take a context.Context " +
		"or offer a <Name>Context (for Close: Shutdown) variant",
	Run: runCtxBlocking,
}

// netDialFuncs are the blocking package-level dialers of net.
var netDialFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialTCP": true,
	"DialUDP": true, "DialIP": true, "DialUnix": true,
}

func runCtxBlocking(pass *Pass) error {
	if !NeedsCtxContract(pass.Pkg.Path()) {
		return nil
	}

	// Index the package's declared names so sibling lookups see every
	// file: plain function names, and method names per receiver type.
	funcNames := make(map[string]bool)
	methodNames := make(map[string]map[string]bool)
	forEachFuncDecl(pass, func(fd *ast.FuncDecl, file *ast.File) {
		if fd.Recv == nil {
			funcNames[fd.Name.Name] = true
			return
		}
		recv := receiverTypeName(fd)
		if recv == "" {
			return
		}
		if methodNames[recv] == nil {
			methodNames[recv] = make(map[string]bool)
		}
		methodNames[recv][fd.Name.Name] = true
	})

	hasSibling := func(fd *ast.FuncDecl, name string) bool {
		if fd.Recv == nil {
			return funcNames[name]
		}
		return methodNames[receiverTypeName(fd)][name]
	}

	forEachFuncDecl(pass, func(fd *ast.FuncDecl, file *ast.File) {
		if !fd.Name.IsExported() || fd.Body == nil {
			return
		}
		if fd.Recv != nil && !ast.IsExported(receiverTypeName(fd)) {
			return
		}
		// The API convention binds exported source, not test helpers.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			return
		}
		if takesContext(pass.Info, fd) {
			return
		}
		if hasSibling(fd, fd.Name.Name+"Context") ||
			(fd.Name.Name == "Close" && hasSibling(fd, "Shutdown")) {
			return
		}
		blockingCalls(pass, fd.Body, func(pos ast.Node, what string) {
			pass.Report(Diagnostic{
				Pos: pos.Pos(),
				Message: fmt.Sprintf("exported %s blocks on %s but takes no context.Context "+
					"and has no %sContext variant; callers cannot bound the wait",
					fd.Name.Name, what, fd.Name.Name),
			})
		})
	})
	return nil
}

func forEachFuncDecl(pass *Pass, fn func(*ast.FuncDecl, *ast.File)) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn(fd, f)
			}
		}
	}
}

// receiverTypeName returns T for receivers (t T) and (t *T).
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// takesContext reports whether any parameter's type is
// context.Context.
func takesContext(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, p := range fd.Type.Params.List {
		if t := info.TypeOf(p.Type); t != nil && t.String() == "context.Context" {
			return true
		}
	}
	return false
}

// blockingCalls walks a function body reporting each directly blocking
// operation. It does not descend into function literals (their bodies
// run elsewhere) or select statements (cancellable by construction).
func blockingCalls(pass *Pass, body *ast.BlockStmt, report func(ast.Node, string)) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit, *ast.SelectStmt:
			return false
		case *ast.SendStmt:
			report(v, "a channel send")
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				report(v, "a channel receive")
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(v, "ranging over a channel")
				}
			}
		case *ast.CallExpr:
			if what := blockingNetCall(pass.Info, v); what != "" {
				report(v, what)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// blockingNetCall identifies net dials and listener accepts.
func blockingNetCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "net" {
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	name := fn.Name()
	recv := fn.Type().(*types.Signature).Recv()
	switch {
	case recv == nil && netDialFuncs[name]:
		return "net." + name
	case recv != nil && name == "Dial": // (*net.Dialer).Dial
		return "(net.Dialer).Dial"
	case recv != nil && strings.HasPrefix(name, "Accept"):
		return "Listener." + name
	}
	return ""
}
