package pool

import (
	"context"
	"errors"
	"io"
	"sync"

	"hyperq/internal/odbc"
	"hyperq/internal/wire/cwp"
)

var _ odbc.StreamExecutor = (*SessionConn)(nil)

// ExecStream opens a result stream under this session's connection
// discipline: the pinned connection when one is held, otherwise a
// statement-level lease that stays out until the stream terminates. Lease
// release is pessimistic like ExecContext — only a stream that ended
// cleanly (io.EOF after the final statement, or a backend SQL failure on a
// healthy connection) returns its connection to the pool; an abandoned or
// transport-broken stream's connection is destroyed, so a desynchronized
// backend session can never reach another frontend session.
func (sc *SessionConn) ExecStream(ctx context.Context, sql string) (odbc.ResultStream, error) {
	c, pinned, err := sc.connection(ctx)
	if err != nil {
		return nil, err
	}
	st, err := c.ExecStream(ctx, sql)
	if pinned {
		return st, err
	}
	if err != nil {
		sc.p.release(c, odbc.ConnectionError(err))
		return nil, err
	}
	ls := &sc.stream
	ls.mu.Lock()
	ls.p, ls.c, ls.inner = sc.p, c, st
	ls.done, ls.connErr, ls.released = false, false, false
	ls.mu.Unlock()
	return ls, nil
}

// leasedStream holds a pool lease open for the lifetime of a result stream
// and classifies the connection's health exactly once at release. A
// SessionConn keeps one and hands it out for each leased stream, as its
// session runs one request at a time.
type leasedStream struct {
	p     *Pool
	c     odbc.StreamExecutor
	inner odbc.ResultStream

	// mu guards only the terminal flags; it is never held around inner
	// calls, so Close (the frontend-teardown path) can run while a Next is
	// blocked on the backend — closing the inner stream is what unblocks it.
	mu       sync.Mutex
	done     bool // terminal event observed
	connErr  bool // terminal error was connection-level
	released bool
}

func (s *leasedStream) Next(ctx context.Context) (cwp.StreamEvent, error) {
	ev, err := s.inner.Next(ctx)
	if err != nil {
		s.mu.Lock()
		s.done = true
		if !errors.Is(err, io.EOF) {
			s.connErr = odbc.ConnectionError(err)
		}
		s.mu.Unlock()
	}
	return ev, err
}

func (s *leasedStream) Close() error {
	err := s.inner.Close()
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return err
	}
	s.released = true
	broken := s.connErr || !s.done
	s.mu.Unlock()
	s.p.release(s.c, broken)
	return err
}
