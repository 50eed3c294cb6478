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

func TestCtxExec(t *testing.T) {
	analysistest.Run(t, fixtureRoot(t), CtxExec, "ctxexec/internal/odbc")
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, fixtureRoot(t), AtomicField, "atomicfield")
}

// TestCtxExecOutOfScope proves the analyzer ignores packages off the
// request path: a package whose import path names neither internal/hyperq
// nor internal/odbc produces nothing.
func TestCtxExecOutOfScope(t *testing.T) {
	analysistest.Run(t, fixtureRoot(t), CtxExec, "cwp")
}
