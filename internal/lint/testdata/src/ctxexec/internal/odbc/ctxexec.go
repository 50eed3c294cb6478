// Fixtures for the ctxexec analyzer. The package path deliberately
// contains "internal/odbc": ctxexec only patrols the request-path
// packages.
package odbc

import (
	"context"
	"cwp"
)

// Exer offers both spellings; callers must use the context one.
type Exer struct{}

func (e *Exer) Exec(q string) error                          { return nil }
func (e *Exer) ExecContext(ctx context.Context, q string) error { return nil }

// Plain has no context variant, so Exec is all there is.
type Plain struct{}

func (p *Plain) Exec(q string) error { return nil }

// Calling the context-free spelling where a context one exists drops the
// deadline.
func dropDeadline(e *Exer) error {
	return e.Exec("SELECT 1") // want `Exec\(\) used where ExecContext exists`
}

// Minting a fresh root context on the request path severs the trace.
func mintBackground(e *Exer) error {
	return e.ExecContext(context.Background(), "SELECT 1") // want `context\.Background\(\) on the request path drops the caller's deadline and trace`
}

func mintTODO(e *Exer) error {
	return e.ExecContext(context.TODO(), "SELECT 1") // want `context\.TODO\(\) on the request path drops the caller's deadline and trace`
}

// Dial where DialContext exists is the same dropped deadline at connect
// time.
func dropDialDeadline() error {
	return cwp.Dial("backend:1025") // want `Dial\(\) used where DialContext exists`
}

// threadedOK: the caller's context flows through.
func threadedOK(ctx context.Context, e *Exer) error {
	return e.ExecContext(ctx, "SELECT 1")
}

// plainOK: no context variant exists, nothing is being dropped.
func plainOK(p *Plain) error {
	return p.Exec("SELECT 1")
}

// Wrapper's context-free Exec is an adapter shim: forwarding to the inner
// Exec under the same name, or bridging to ExecContext with a fresh root,
// is the one sanctioned place for both shapes.
type Wrapper struct{ inner *Exer }

func (w *Wrapper) Exec(q string) error {
	return w.inner.Exec(q)
}

type Bridge struct{ inner *Exer }

func (b *Bridge) Exec(q string) error {
	return b.inner.ExecContext(context.Background(), q)
}

// A closure inside a non-shim function gets no shim exemption.
func closureMint(e *Exer) func() error {
	return func() error {
		return e.ExecContext(context.Background(), "SELECT 1") // want `context\.Background\(\) on the request path drops the caller's deadline and trace`
	}
}

// suppressedOK: a directive with a recorded reason silences the finding.
func suppressedOK(e *Exer) error {
	//hyperqlint:ignore ctxexec fixture demonstrating an audited suppression
	return e.ExecContext(context.Background(), "SELECT 1")
}
