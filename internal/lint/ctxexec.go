package lint

import (
	"go/ast"
	"strings"

	"hyperq/internal/lint/analysis"
)

// CtxExec reports dropped context propagation on the request path.
//
// Per-request deadlines (PR 2) and trace propagation (PR 3) both ride the
// context. Inside the request-path packages (internal/hyperq and the
// internal/odbc stack) two shapes silently discard them: calling a
// context-free Exec/Connect where the receiver offers ExecContext/
// ConnectContext, and minting a fresh context.Background()/TODO() instead
// of threading the request context through. Either one makes a query
// un-cancellable and invisible to its trace the moment it crosses that
// call.
//
// Exempt by construction: _test.go files, package main (process-lifetime
// roots are legitimate there), the context-free adapter shims themselves
// (an Exec method forwarding to ExecContext must call Background), and
// forwarding shims where a method named Exec/Connect delegates to the inner
// driver's method of the same name.
var CtxExec = &analysis.Analyzer{
	Name: "ctxexec",
	Doc:  "checks that request-path code uses ExecContext/ConnectContext and never mints context.Background/TODO",
	Run:  runCtxExec,
}

// ctxShimNames are the context-free interface methods whose implementations
// are allowed to bridge via context.Background.
func ctxShimName(name string) bool {
	switch name {
	case "Exec", "Connect", "Dial":
		return true
	}
	return false
}

func runCtxExec(pass *analysis.Pass) error {
	if !strings.Contains(pass.PkgPath, "internal/hyperq") &&
		!strings.Contains(pass.PkgPath, "internal/odbc") {
		return nil
	}
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, fn := range functionsIn(file) {
			checkCtxIn(pass, fn)
		}
	}
	return nil
}

func checkCtxIn(pass *analysis.Pass, fn funcBody) {
	inspectSkipFuncLits(fn.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeFunc(pass.Info, call)
		if callee == nil {
			return true
		}
		name := callee.Name()
		switch {
		case analysis.FuncPkgName(callee) == "context" && (name == "Background" || name == "TODO"):
			// The adapter shims themselves (Exec forwarding to ExecContext)
			// are the one place a fresh root context is correct.
			if !ctxShimName(fn.name) {
				pass.Reportf(call.Pos(),
					"context.%s() on the request path drops the caller's deadline and trace; thread the request context instead", name)
			}
		case analysis.IsMethod(callee) && (name == "Exec" || name == "Connect"):
			sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !selOK {
				return true
			}
			recv, recvOK := pass.Info.Types[sel.X]
			if !recvOK || !analysis.HasMethod(recv.Type, name+"Context") {
				return true
			}
			// A method named Exec forwarding to the inner driver's Exec is a
			// deliberate context-free shim, not a dropped deadline.
			if fn.name == name {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s() used where %sContext exists; the request deadline and trace are silently dropped", name, name)
		case !analysis.IsMethod(callee) && name == "Dial":
			if callee.Pkg() == nil || callee.Pkg().Scope().Lookup("DialContext") == nil {
				return true
			}
			if fn.name == name {
				return true
			}
			pass.Reportf(call.Pos(),
				"Dial() used where DialContext exists; the request deadline is silently dropped")
		}
		return true
	})
}
