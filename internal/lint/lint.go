// Package lint is hyperqlint: the gateway's project-specific static
// analyzers. Each analyzer machine-checks one invariant that go vet cannot
// see and that the test suite does not catch when it breaks: a trace span
// left open on some path, blocking I/O under a mutex, a field read plainly
// where it is written atomically, a request context dropped on the request
// path. An analyzer is kept only while a mutation that changes observable
// behaviour is caught by it and by no test (EXPERIMENTS.md, "Mutation audit
// of hyperqlint").
//
// The suite runs as cmd/hyperqlint under `go vet -vettool`, which
// scripts/check.sh invokes; DESIGN.md §10 documents the invariant behind
// each analyzer. Suppressions use
//
//	//hyperqlint:ignore <analyzer> <reason>
//
// on (or directly above) the offending line; the reason is mandatory so
// every deviation stays auditable.
package lint

import (
	"go/ast"

	"hyperq/internal/lint/analysis"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		SpanEnd,
		LockIO,
		CtxExec,
		AtomicField,
	}
}

// funcBody is one function's body with its declared name ("" for literals).
type funcBody struct {
	name string
	body *ast.BlockStmt
}

// functionsIn collects every function body in the file: declarations and
// function literals. Literals get an empty name — analyzers that exempt
// named API shims must not exempt closures nested inside them. Each body is
// analyzed on its own; statement-level walks use inspectSkipFuncLits so a
// nested literal is never double-counted as part of its parent.
func functionsIn(file *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcBody{name: fn.Name.Name, body: fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{name: "", body: fn.Body})
		}
		return true
	})
	return out
}

// cfgNodeScope returns the subtrees a per-CFG-node walk should visit. A
// RangeStmt appears in the CFG as a loop-head dispatch node while its body
// lives in separate blocks, so walking the whole statement would visit the
// body twice; the head covers only the range binding (X, Key, Value).
// Every other construct is already decomposed by the builder.
func cfgNodeScope(n ast.Node) []ast.Node {
	s, ok := n.(*ast.RangeStmt)
	if !ok {
		return []ast.Node{n}
	}
	out := []ast.Node{s.X}
	if s.Key != nil {
		out = append(out, s.Key)
	}
	if s.Value != nil {
		out = append(out, s.Value)
	}
	return out
}

// inspectSkipFuncLits walks the subtree in source order but does not
// descend into nested function literals: statement-level analyses treat a
// closure as a separate function with its own control flow.
func inspectSkipFuncLits(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return fn(n)
	})
}
