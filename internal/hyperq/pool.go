package hyperq

// Session pinning: with a pooled backend driver a frontend session normally
// holds no backend connection at all — each statement runs under a
// statement-level lease. Gateway-side emulation state breaks that model:
// volatile tables, global-temporary instances, emulation work tables, and
// open transactions live in one particular backend session, so every later
// statement must land on the same connection. The session pins its backend
// before establishing such state and unpins once the state is gone (replay
// log empty, no open transaction) — the same replay log that drives
// post-reconnect session restoration doubles as the pinning signal.

import (
	"context"

	"hyperq/internal/sqlast"
)

// backendPinner is implemented by pooled backend connections
// (pool.SessionConn). Dedicated-connection drivers don't implement it, so on
// them every pinning call degrades to a no-op and sessions behave exactly as
// before the pool existed.
type backendPinner interface {
	Pin(ctx context.Context) error
	Unpin()
	Pinned() bool
}

// pinBackend dedicates a backend connection to this session. Called before
// the statement that establishes session-scoped backend state executes, so
// the state and all subsequent statements share one connection — pinning
// after the fact could dedicate a different connection than the one that
// ran the DDL.
func (s *Session) pinBackend() error {
	bp, ok := s.be.(backendPinner)
	if !ok {
		return nil
	}
	if err := bp.Pin(s.ctx); err != nil {
		return mapBackendError(err)
	}
	return nil
}

// maybeUnpinBackend returns a pinned connection to general service once the
// session's backend state is gone: nothing left to replay and no open
// transaction. Runs at the end of every request, so dropping the last
// volatile table (or COMMIT/ROLLBACK) releases the dedicated connection.
func (s *Session) maybeUnpinBackend() {
	bp, ok := s.be.(backendPinner)
	if !ok || !bp.Pinned() {
		return
	}
	if len(s.replayLog) == 0 && !s.txnOpen {
		bp.Unpin()
	}
}

// execTxn handles BT/ET/COMMIT/ROLLBACK. Transactions are backend-session
// state: BEGIN pins the backend connection so every statement inside the
// transaction — and the eventual COMMIT — reaches the same backend session.
func (s *Session) execTxn(t *sqlast.TxnStmt, e env) ([]*FrontResult, error) {
	if t.Kind == "BEGIN" {
		if err := s.pinBackend(); err != nil {
			return nil, err
		}
		s.txnOpen = true
		results, _, err := s.translateAndRun(t, e)
		if err != nil {
			// The transaction never opened on the backend.
			s.txnOpen = false
		}
		return results, err
	}
	results, _, err := s.translateAndRun(t, e)
	if err == nil {
		s.txnOpen = false
	}
	// On failure (deadline, ErrMaybeApplied, transport error) the transaction
	// may still be open on the backend session, so txnOpen stays set: the
	// session stays pinned and the connection cannot return to the shared
	// pool carrying uncommitted state. A later ET/COMMIT/ROLLBACK — or the
	// dirty-pin destroy at session close — resolves it.
	return results, err
}
