package odbc

import (
	"context"
	"errors"
	"fmt"
	"io"

	"hyperq/internal/wire/cwp"
)

// ExecStream opens a fault-tolerant result stream. Retry semantics are
// deliberately asymmetric around the first event: until something has been
// received, no result has been observed by anyone, so the usual ExecContext
// rules apply (transient failures retried with backoff, sent writes never
// re-executed, breaker accounting identical). From the first event on, rows
// may already have left the gateway toward the frontend — a re-execution
// would silently duplicate or reorder delivered data — so mid-stream
// failures are NEVER retried: they surface to the caller, the dead
// connection is discarded, and the breaker records the connection failure.
func (e *resilientExecutor) ExecStream(ctx context.Context, sql string) (ResultStream, error) {
	e.d.init()
	// The cancel is owned by the returned stream (released in Close); a
	// deferred cancel here would kill the stream before it is consumed.
	rctx, cancel := e.d.reqContext(ctx)
	rs := &e.stream
	*rs = resilientStream{e: e, cancel: cancel}
	err := e.retry(rctx, sql, "exec-stream", func() error {
		st, err := e.inner.ExecStream(rctx, sql)
		if err != nil {
			return err
		}
		// Peek the first event so pre-result failures (backend rejected the
		// request, connection died before any data) keep buffered retry
		// semantics.
		ev, err := st.Next(rctx)
		switch {
		case err == nil:
			rs.inner, rs.peeked, rs.hasPeek, rs.real = st, ev, true, realStream(st)
			return nil
		case errors.Is(err, io.EOF):
			// Empty request (no statements): clean immediate end.
			_ = st.Close()
			rs.done, rs.err = true, io.EOF
			return nil
		}
		_ = st.Close()
		return err
	})
	if err != nil {
		cancel()
		return nil, err
	}
	return rs, nil
}

// realStream reports whether st is backed by a live connection (as opposed
// to a slice-backed buffered stream, which has no connection to poison).
func realStream(st ResultStream) bool {
	_, buffered := st.(*bufferedStream)
	return !buffered
}

// resilientStream forwards an inner stream while keeping the driver's
// breaker and connection bookkeeping correct at termination. It never
// retries: by construction it exists only after the first event arrived.
// The executor keeps one and hands it out for each ExecStream, as its
// connection serves one request at a time.
type resilientStream struct {
	e       *resilientExecutor
	inner   ResultStream
	cancel  context.CancelFunc
	peeked  cwp.StreamEvent
	hasPeek bool
	real    bool

	done bool
	err  error
}

func (s *resilientStream) Next(ctx context.Context) (cwp.StreamEvent, error) {
	if s.hasPeek {
		ev := s.peeked
		s.peeked, s.hasPeek = cwp.StreamEvent{}, false
		return ev, nil
	}
	if s.done {
		if s.err != nil {
			return cwp.StreamEvent{}, s.err
		}
		return cwp.StreamEvent{}, io.EOF
	}
	ev, err := s.inner.Next(ctx)
	if err == nil {
		return ev, nil
	}
	s.done = true
	s.err = err
	d := s.e.d
	switch {
	case errors.Is(err, io.EOF):
		d.brk.Success()
	case ConnectionError(err):
		// Mid-stream connection death. Rows may already be with the
		// frontend, so this is terminal — no retry — but the breaker and
		// pool must learn the connection is gone.
		d.brk.Failure()
		s.dropInner()
	case ctx.Err() != nil && err == ctx.Err():
		// Consumer cancellation (client disconnect): not a backend fault —
		// the breaker is untouched — but aborting mid-result broke the
		// connection's protocol state.
		if s.real {
			s.dropInner()
		}
	default:
		// Backend SQL failure mid-request: the connection answered and
		// stays healthy.
		d.brk.Success()
	}
	return cwp.StreamEvent{}, err
}

// dropInner discards the executor's dead connection so the next request
// reconnects instead of reusing a broken session.
func (s *resilientStream) dropInner() {
	if s.e.inner != nil {
		_ = s.e.inner.Close()
		s.e.inner = nil
	}
}

// Close releases the stream. Closing before the terminal event abandons the
// in-flight request: a live connection cannot be re-synchronized mid-result,
// so it is discarded (the breaker is untouched — abandonment is a consumer
// decision, not a backend failure).
func (s *resilientStream) Close() error {
	defer s.cancel()
	if !s.done {
		s.done = true
		s.err = fmt.Errorf("odbc: stream abandoned")
		if s.real {
			if s.inner != nil {
				_ = s.inner.Close()
			}
			s.dropInner()
			return nil
		}
	}
	if s.inner != nil {
		return s.inner.Close()
	}
	return nil
}

var _ StreamExecutor = (*resilientExecutor)(nil)
