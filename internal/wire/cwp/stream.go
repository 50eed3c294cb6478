package cwp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire"
)

// StreamEventKind discriminates the events a streaming execute yields.
type StreamEventKind int

const (
	// StreamMeta announces the current statement's result columns.
	StreamMeta StreamEventKind = iota
	// StreamBatch carries one TDF batch of result rows. A batch read off a
	// connection is raw (tdf.Batch.Raw) and owned by the receiver.
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

// Stream is one in-flight streaming request. It is pull-based: Next reads
// the next event off the socket in the caller's goroutine and returns io.EOF
// after the request's final statement. Nothing reads ahead beyond the
// connection's read buffer, so backpressure is immediate: while the consumer
// is not in Next the socket is not drained, and TCP flow control pushes back
// on the backend's blocking writes (§4.5 retrieval on demand). A Stream is
// owned by one goroutine at a time; it may be handed to another, as the
// gateway's fetch stage does at a result's second batch.
//
// Abandoning a stream (Close before Next returned a terminal error)
// desynchronizes the request/response protocol, so it forcibly closes the
// connection; the Client is unusable afterwards (Broken reports true).
type Stream struct {
	c *Client
	// ctx is the context the cancel hook watches: the one the latest Next was
	// called with. stop unregisters the hook and reports whether it had not
	// run yet.
	ctx  context.Context
	stop func() bool

	done bool // terminal result consumed
	err  error
}

// ExecStreamContext sends one SQL request and returns a Stream yielding its
// results incrementally instead of materializing them. The context's
// deadline, or none, is armed on the socket for the whole request;
// cancelling the context Next is called with tears the stream down. The
// Stream is the Client's own, as the connection is: it serves this request
// and must not be used once the next one is sent.
func (c *Client) ExecStreamContext(ctx context.Context, sql string) (*Stream, error) {
	if err := c.arm(ctx); err != nil {
		return nil, err
	}
	if err := c.send(sql); err != nil {
		// The request may be partially written: the protocol state is gone.
		c.broken = true
		return nil, err
	}
	c.stream = Stream{c: c}
	return &c.stream, nil
}

// Next returns the next event. It returns io.EOF once the request completed
// cleanly, a *BackendError if the backend failed the request (the
// connection stays usable), or a transport error (the connection is
// broken). Cancelling ctx abandons the stream: a read blocked in Next
// returns at once, the connection is closed and ctx's error returned. A
// cancel that lands before the end was read does the same, even when the
// rest of the reply is already buffered.
func (s *Stream) Next(ctx context.Context) (StreamEvent, error) {
	if s.done {
		return StreamEvent{}, s.err
	}
	if ctx != s.ctx {
		if err := s.watch(ctx); err != nil {
			return StreamEvent{}, s.abort(err)
		}
	}
	ev, err := s.c.readEvent()
	if err == nil {
		return ev, nil
	}
	// A failed read under an ended context is the hook's doing. A hook that
	// fired after a clean last read has still poisoned the deadline, so the
	// connection cannot be handed on either: both end the stream with ctx's
	// error, which tells every layer above to drop the connection.
	if fired := s.unhook(); fired || !healthy(err) {
		if cerr := ctx.Err(); cerr != nil {
			return StreamEvent{}, s.abort(cerr)
		}
	}
	s.finish(err)
	return StreamEvent{}, err
}

// watch moves the cancel hook to ctx: once ctx ends, the socket deadline is
// pushed into the past, so the read Next is blocked in fails at once. It
// returns the error of a context that already ended: the new one, or the old
// one whose hook has already poisoned the deadline. A deadline-only context
// gets no hook (see deadlineOnly).
func (s *Stream) watch(ctx context.Context) error {
	if s.unhook() {
		return s.ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.ctx = ctx
	if _, ok := ctx.(deadlineOnly); !ok {
		s.stop = context.AfterFunc(ctx, s.c.interrupt)
	}
	return nil
}

// deadlineOnly is implemented by a context that, while a request reads under
// it, ends only when its deadline passes — the gateway's request context. A
// stream needs no cancel hook on one: the request's socket deadline (arm)
// is that deadline, so a read blocked past it fails by itself, and Next then
// ends the stream with the context's error as a fired hook would have.
type deadlineOnly interface{ DeadlineOnly() }

// unhook unregisters the cancel hook and reports whether it had already run.
func (s *Stream) unhook() (fired bool) {
	if s.stop == nil {
		return false
	}
	fired = !s.stop()
	s.stop = nil
	return fired
}

// healthy reports whether a terminal error leaves the connection in sync:
// the clean end and a backend failure do, anything else does not.
func healthy(err error) bool {
	if errors.Is(err, io.EOF) {
		return true
	}
	var be *BackendError
	return errors.As(err, &be)
}

// finish records the terminal outcome and settles the connection state:
// clean end and backend errors leave the connection usable, transport
// failures mark it broken.
func (s *Stream) finish(err error) {
	s.done, s.err = true, err
	s.unhook()
	if !healthy(err) {
		s.c.broken = true
	}
}

// abort ends the stream with err and closes the connection: the request is
// still in flight and the protocol state is unrecoverable.
func (s *Stream) abort(err error) error {
	s.finish(err)
	s.c.broken = true
	_ = s.c.conn.Close()
	return err
}

// Close releases the stream. Closing before the terminal event abandons the
// in-flight request: the connection is closed (it cannot be re-synchronized)
// and the Client reports Broken. Idempotent.
func (s *Stream) Close() error {
	if !s.done {
		s.abort(net.ErrClosed)
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
