package pool

import (
	"context"
	"sync"

	"hyperq/internal/odbc"
	"hyperq/internal/wire/cwp"
)

// SessionConn is the per-frontend-session view of the pool: a virtual
// backend connection that leases a real one per statement (acquire → exec →
// release) and, when the gateway pins it, holds one dedicated connection
// across statements. It implements odbc.Executor so gateway sessions use it
// exactly like a dedicated connection, and odbc.ReconnectAware so the
// session-state replay hook installed by the gateway follows the pinned
// connection through transparent reconnects.
//
// Like every Executor, a SessionConn serves one frontend session and is not
// safe for concurrent statements; the mutex only guards the pin/close state
// against the gateway's teardown path running concurrently with a statement
// (abrupt frontend disconnect).
type SessionConn struct {
	p *Pool

	mu      sync.Mutex
	pinConn odbc.StreamExecutor       // non-nil while pinned
	restore func(odbc.Executor) error // replay hook to install on the pinned conn
	closed  bool

	// stream is the in-flight leased stream's (ExecStream).
	stream leasedStream
}

// Session returns a new multiplexing session view of the pool.
func (p *Pool) Session() *SessionConn {
	return &SessionConn{p: p}
}

var (
	_ odbc.Executor       = (*SessionConn)(nil)
	_ odbc.ReconnectAware = (*SessionConn)(nil)
)

// ExecContext runs the request on the pinned connection if one is held,
// otherwise under a statement-level lease: acquire (queueing behind other
// sessions when the pool is full), execute, release. A connection whose
// transport failed is discarded rather than returned, so a broken backend
// session never reaches another frontend session.
func (sc *SessionConn) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	c, pinned, err := sc.connection(ctx)
	if err != nil {
		return nil, err
	}
	if pinned {
		return c.ExecContext(ctx, sql)
	}
	// Pessimistic release: anything that escapes before the clean
	// classification below (including a panic in the executor) discards the
	// connection instead of leaking a possibly-wedged backend session.
	broken := true
	defer func() { sc.p.release(c, broken) }()
	results, err := c.ExecContext(ctx, sql)
	broken = err != nil && odbc.ConnectionError(err)
	return results, err
}

// connection is the preamble both request methods share: the pinned connection
// when one is held (pinned true: session-owned, the pin/unpin lifecycle
// decides when it goes back), otherwise a fresh statement-level lease the
// caller must release.
func (sc *SessionConn) connection(ctx context.Context) (c odbc.StreamExecutor, pinned bool, err error) {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil, false, ErrClosed
	}
	c = sc.pinConn
	sc.mu.Unlock()
	if c != nil {
		return c, true, nil
	}
	c, err = sc.p.acquire(ctx)
	return c, false, err
}

// Pin dedicates one backend connection to this session until Unpin or
// Close. The gateway pins before executing session-scoped state (volatile
// or global-temporary DDL, emulation work tables, BEGIN) so that state and
// every later statement land on the same backend session. The restore hook
// registered via OnReconnect is installed on the pinned connection, so a
// resilient connection that reconnects mid-pin replays the session state.
// Pinning an already-pinned session is a no-op.
func (sc *SessionConn) Pin(ctx context.Context) error {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return ErrClosed
	}
	if sc.pinConn != nil {
		sc.mu.Unlock()
		return nil
	}
	sc.mu.Unlock()
	c, err := sc.p.acquire(ctx)
	if err != nil {
		return err
	}
	sc.mu.Lock()
	if sc.closed {
		// Teardown raced the pin: hand the connection straight back.
		sc.mu.Unlock()
		sc.p.release(c, false)
		return ErrClosed
	}
	sc.pinConn = c
	restore := sc.restore
	sc.mu.Unlock()
	if ra, ok := c.(odbc.ReconnectAware); ok && restore != nil {
		ra.OnReconnect(restore)
	}
	sc.p.notePin()
	return nil
}

// Unpin releases the pinned connection back to the pool. The gateway calls
// it once the session's backend state is gone (replay log empty, no open
// transaction), returning the — now clean — connection to general service.
// No-op when not pinned.
func (sc *SessionConn) Unpin() {
	sc.mu.Lock()
	c := sc.pinConn
	sc.pinConn = nil
	sc.mu.Unlock()
	if c == nil {
		return
	}
	sc.p.noteUnpin()
	sc.p.release(c, false)
}

// Pinned reports whether the session currently holds a dedicated
// connection.
func (sc *SessionConn) Pinned() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.pinConn != nil
}

// OnReconnect registers the session-state replay hook. If a connection is
// already pinned the hook is (re)installed on it immediately; otherwise it
// is installed at the next Pin. Statement-level leases never carry the
// hook: an unpinned session has no backend state to replay.
func (sc *SessionConn) OnReconnect(restore func(odbc.Executor) error) {
	sc.mu.Lock()
	sc.restore = restore
	c := sc.pinConn
	sc.mu.Unlock()
	if c == nil {
		return
	}
	if ra, ok := c.(odbc.ReconnectAware); ok {
		ra.OnReconnect(restore)
	}
}

// Close ends the frontend session's use of the pool. A still-pinned
// connection is destroyed rather than returned: it carries session state
// (volatile tables, an open transaction) that must not leak into another
// frontend session, and dropping it frees the slot for a fresh dial. This
// is the abrupt-disconnect path — the tdp handler's deferred session close
// lands here, so a client that vanishes mid-lease cannot strand pool
// capacity. Idempotent.
func (sc *SessionConn) Close() error {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil
	}
	sc.closed = true
	c := sc.pinConn
	sc.pinConn = nil
	sc.restore = nil
	sc.mu.Unlock()
	if c != nil {
		sc.p.noteUnpin()
		sc.p.release(c, true) // dirty: destroy, never reuse
	}
	return nil
}
