package lint

import (
	"path/filepath"
	"testing"

	"hyperq/internal/lint/analysistest"
)

func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestSpanEnd(t *testing.T) {
	analysistest.Run(t, fixtureRoot(t), SpanEnd, "spanend")
}

func TestLockIO(t *testing.T) {
	analysistest.Run(t, fixtureRoot(t), LockIO, "lockio")
}

func TestFrontCode(t *testing.T) {
	// The tdp fixture is the registry itself: loading it as a target proves
	// codes.go is the sanctioned location for the enforced literals.
	analysistest.Run(t, fixtureRoot(t), FrontCode, "frontcode", "tdp")
}

func TestCtxExec(t *testing.T) {
	analysistest.Run(t, fixtureRoot(t), CtxExec, "ctxexec/internal/odbc")
}

func TestWireErr(t *testing.T) {
	analysistest.Run(t, fixtureRoot(t), WireErr, "wireerr/internal/wire/x")
}

func TestLeakPair(t *testing.T) {
	// The pool fixture carries the PR 4 warm-up leak in single-slot essence;
	// hyperq and wstats cover the bool-acquire and handoff-store shapes;
	// leakpair covers cross-package stream leases.
	analysistest.Run(t, fixtureRoot(t), LeakPair, "leakpair", "pool", "hyperq", "wstats")
}

func TestErrSentinel(t *testing.T) {
	// bareeof.go carries the PR 7 bug (bare io.EOF delivered as a stream's
	// clean-end sentinel) in pre-fix and post-fix shape.
	analysistest.Run(t, fixtureRoot(t), ErrSentinel, "errsentinel")
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, fixtureRoot(t), AtomicField, "atomicfield")
}

func TestSQLTaint(t *testing.T) {
	analysistest.Run(t, fixtureRoot(t), SQLTaint, "sqltaint")
}

// TestCtxExecOutOfScope proves the analyzer ignores packages off the
// request path: a package whose import path names neither internal/hyperq
// nor internal/odbc produces nothing.
func TestCtxExecOutOfScope(t *testing.T) {
	analysistest.Run(t, fixtureRoot(t), CtxExec, "cwp")
}
