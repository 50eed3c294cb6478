package cwp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire"
)

// StreamEventKind discriminates the events a streaming execute yields.
type StreamEventKind int

const (
	// StreamMeta announces the current statement's result columns.
	StreamMeta StreamEventKind = iota
	// StreamBatch carries one decoded TDF batch of result rows.
	StreamBatch
	// StreamComplete ends the current statement (command tag + activity).
	StreamComplete
)

// StreamEvent is one protocol event of an in-flight request. Exactly one of
// the kind-specific fields is populated, per Kind.
type StreamEvent struct {
	Kind     StreamEventKind
	Cols     []tdf.ColumnMeta // StreamMeta
	Batch    *tdf.Batch       // StreamBatch
	Command  string           // StreamComplete
	Affected int64            // StreamComplete
}

// streamDepth bounds the reader-to-consumer channel. Keeping it small is the
// point: when the consumer stalls, the reader goroutine blocks within a
// couple of batches and stops draining the socket, so TCP flow control
// pushes back on the backend's blocking writes (§4.5 retrieval on demand).
const streamDepth = 2

type streamMsg struct {
	ev  StreamEvent
	err error // terminal: io.EOF for a clean end, else transport/backend error
}

// Stream is one in-flight streaming request. It is pull-based: Next yields
// events in wire order and returns io.EOF after the request's final
// statement. A Stream is owned by one goroutine; only the internal reader
// runs concurrently with the consumer.
//
// Abandoning a stream (Close before Next returned a terminal error)
// desynchronizes the request/response protocol, so it forcibly closes the
// connection; the Client is unusable afterwards (Broken reports true).
type Stream struct {
	c      *Client
	events chan streamMsg
	abort  chan struct{}

	aborted bool // abort already closed (consumer side)
	done    bool // terminal result consumed
	err     error
	// restoreDeadline: a ctx deadline was armed on the socket at start and
	// must be cleared when the stream finishes cleanly.
	restoreDeadline bool
}

// ExecStreamContext sends one SQL request and returns a Stream yielding its
// results incrementally instead of materializing them. The context's
// deadline (when present) bounds every socket read and write of the stream;
// cancelling the context from inside Next tears the stream down.
func (c *Client) ExecStreamContext(ctx context.Context, sql string) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.broken {
		return nil, fmt.Errorf("cwp: connection desynchronized by abandoned stream: %w", net.ErrClosed)
	}
	restore := false
	if dl, ok := ctx.Deadline(); ok {
		if err := c.conn.SetDeadline(dl); err != nil {
			return nil, err
		}
		restore = true
	}
	var b wire.Buffer
	b.PutString(sql)
	if err := wire.WriteMessage(c.conn, MsgQuery, b.Bytes()); err != nil {
		// The request may be partially written: the protocol state is gone.
		c.broken = true
		return nil, err
	}
	s := &Stream{
		c:               c,
		events:          make(chan streamMsg, streamDepth),
		abort:           make(chan struct{}),
		restoreDeadline: restore,
	}
	go s.read()
	return s, nil
}

// read is the stream's reader goroutine: it decodes wire messages into the
// bounded events channel until the request ends or the consumer aborts.
// Because sends select on the abort channel, the goroutine can never leak:
// either the consumer drains it or Close releases it.
func (s *Stream) read() {
	defer close(s.events)
	for {
		ev, err := s.c.readEvent()
		if err != nil {
			s.send(streamMsg{err: err})
			return
		}
		if !s.send(streamMsg{ev: ev}) {
			return
		}
	}
}

func (s *Stream) send(m streamMsg) bool {
	select {
	case s.events <- m:
		return true
	case <-s.abort:
		return false
	}
}

// Next returns the next event. It returns io.EOF once the request completed
// cleanly, a *BackendError if the backend failed the request (the
// connection stays usable), or a transport error (the connection is
// broken). Cancelling ctx abandons the stream: the connection is closed and
// ctx's error returned.
func (s *Stream) Next(ctx context.Context) (StreamEvent, error) {
	if s.done {
		if s.err != nil {
			return StreamEvent{}, s.err
		}
		return StreamEvent{}, io.EOF
	}
	select {
	case m, ok := <-s.events:
		if !ok {
			// Reader exited after an abort raced a previous Next.
			s.finish(net.ErrClosed)
			return StreamEvent{}, s.err
		}
		if m.err != nil {
			s.finish(m.err)
			return StreamEvent{}, m.err
		}
		return m.ev, nil
	case <-ctx.Done():
		s.abortConn()
		s.finish(ctx.Err())
		return StreamEvent{}, ctx.Err()
	}
}

// finish records the terminal outcome and settles the connection state:
// clean end and backend errors leave the connection healthy (deadline
// cleared); transport failures mark it broken.
func (s *Stream) finish(err error) {
	if s.done {
		return
	}
	s.done = true
	s.err = err
	var be *BackendError
	healthy := errors.Is(err, io.EOF) || errors.As(err, &be)
	if healthy {
		if s.restoreDeadline {
			_ = s.c.conn.SetDeadline(time.Time{})
		}
		return
	}
	s.c.broken = true
}

// abortConn forcibly closes the connection so the blocked reader goroutine
// unblocks; the protocol state is unrecoverable afterwards.
func (s *Stream) abortConn() {
	s.c.broken = true
	_ = s.c.conn.Close()
	if !s.aborted {
		s.aborted = true
		close(s.abort)
	}
}

// Close releases the stream. Closing before the terminal event abandons the
// in-flight request: the connection is closed (it cannot be re-synchronized)
// and the Client reports Broken. Close waits for the reader goroutine to
// exit, so no goroutine outlives the stream. Idempotent.
func (s *Stream) Close() error {
	if !s.done {
		s.abortConn()
		s.done = true
		s.err = net.ErrClosed
	}
	if !s.aborted {
		s.aborted = true
		close(s.abort)
	}
	// Drain until the reader's deferred close; returns immediately when the
	// reader already exited.
	for range s.events {
	}
	return nil
}

// Err returns the stream's terminal error (io.EOF after a clean end, nil
// while still live).
func (s *Stream) Err() error {
	if !s.done {
		return nil
	}
	return s.err
}

// decodeMeta parses a MsgMeta payload (shared by the buffered and streaming
// readers).
func decodeMeta(payload []byte) ([]tdf.ColumnMeta, error) {
	r := wire.NewReader(payload)
	n := int(r.U32())
	if n > len(payload)/10 { // a column is at least 10 bytes
		return nil, fmt.Errorf("cwp: %d columns in a %d-byte meta message", n, len(payload))
	}
	cols := make([]tdf.ColumnMeta, n)
	for i := 0; i < n; i++ {
		name := r.String()
		kind := types.Kind(r.U8())
		scale := int(r.U32())
		elem := types.Kind(r.U8())
		t := types.T{Kind: kind, Scale: scale, Elem: elem}
		if kind == types.KindDecimal {
			t.Precision = 18
		}
		cols[i] = tdf.ColumnMeta{Name: name, Type: t}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return cols, nil
}
