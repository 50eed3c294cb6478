// Package cwp implements the Cloud Wire Protocol (WP-B): the backend
// protocol between Hyper-Q's ODBC Server abstraction and the cloud engine
// substrate. A session authenticates once, then issues SQL requests; query
// results stream back as TDF-encoded batches so large result sets can be
// "retrieved on demand in one or more batches depending on the result size"
// (§4.5).
package cwp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"hyperq/internal/engine"
	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire"
	"hyperq/internal/xtra"
)

// Message kinds.
const (
	MsgLogon     byte = 0x01 // c->s: user, password
	MsgLogonOK   byte = 0x02 // s->c: session id
	MsgQuery     byte = 0x03 // c->s: sql text
	MsgMeta      byte = 0x04 // s->c: result column metadata
	MsgBatch     byte = 0x05 // s->c: TDF batch
	MsgComplete  byte = 0x06 // s->c: command tag, activity count
	MsgError     byte = 0x07 // s->c: code, message
	MsgEnd       byte = 0x08 // s->c: end of request
	MsgLogoff    byte = 0x09 // c->s
	MsgLogonFail byte = 0x0A // s->c
)

// BatchRows is the number of rows per streamed batch.
const BatchRows = 1024

// Serve accepts connections until the listener closes. Transient Accept
// failures (aborted handshakes, fd exhaustion) back off briefly and keep
// the loop alive; only a closed listener or another permanent error exits.
func Serve(ln net.Listener, eng *engine.Engine) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if wire.TransientAcceptError(err) {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return err
		}
		go handleConn(conn, eng)
	}
}

func handleConn(conn net.Conn, eng *engine.Engine) {
	defer conn.Close()
	// One backend session's panic must not take down the other sessions.
	defer func() {
		if r := recover(); r != nil {
			log.Printf("cwp: session handler panic: %v", r)
		}
	}()
	kind, payload, err := wire.ReadMessage(conn)
	if err != nil {
		return
	}
	if kind != MsgLogon {
		_ = wire.WriteMessage(conn, MsgLogonFail, []byte("expected logon"))
		return
	}
	r := wire.NewReader(payload)
	user := r.String()
	_ = r.String() // password: any accepted by the substrate
	if r.Err() != nil || user == "" {
		_ = wire.WriteMessage(conn, MsgLogonFail, []byte("bad logon"))
		return
	}
	sess := eng.NewSession()
	sess.SetUser(user)
	var ok wire.Buffer
	ok.PutString("session")
	if err := wire.WriteMessage(conn, MsgLogonOK, ok.Bytes()); err != nil {
		return
	}
	for {
		kind, payload, err := wire.ReadMessage(conn)
		if err != nil {
			return
		}
		switch kind {
		case MsgQuery:
			r := wire.NewReader(payload)
			sql := r.String()
			if err := runQuery(conn, sess, sql); err != nil {
				return
			}
		case MsgLogoff:
			return
		default:
			_ = writeError(conn, 1000, fmt.Sprintf("unexpected message 0x%02x", kind))
			return
		}
	}
}

func writeError(conn net.Conn, code uint32, msg string) error {
	var b wire.Buffer
	b.PutU32(code)
	b.PutString(msg)
	if err := wire.WriteMessage(conn, MsgError, b.Bytes()); err != nil {
		return err
	}
	return wire.WriteMessage(conn, MsgEnd, nil)
}

func runQuery(conn net.Conn, sess *engine.Session, sql string) error {
	results, err := sess.ExecSQL(sql)
	if err != nil {
		return writeError(conn, 3706, err.Error())
	}
	for _, res := range results {
		if err := writeResult(conn, res); err != nil {
			return err
		}
	}
	return wire.WriteMessage(conn, MsgEnd, nil)
}

func writeResult(conn net.Conn, res *engine.Result) error {
	if res.Cols != nil {
		meta := metaFromCols(res.Cols)
		var mb wire.Buffer
		mb.PutU32(uint32(len(meta)))
		for _, c := range meta {
			mb.PutString(c.Name)
			mb.PutU8(uint8(c.Type.Kind))
			mb.PutU32(uint32(c.Type.Scale))
			mb.PutU8(uint8(c.Type.Elem))
		}
		if err := wire.WriteMessage(conn, MsgMeta, mb.Bytes()); err != nil {
			return err
		}
		for off := 0; off < len(res.Rows); off += BatchRows {
			end := off + BatchRows
			if end > len(res.Rows) {
				end = len(res.Rows)
			}
			batch := &tdf.Batch{Cols: meta, Rows: res.Rows[off:end]}
			var buf bytes.Buffer
			if err := batch.Encode(&buf); err != nil {
				return writeError(conn, 1001, err.Error())
			}
			if err := wire.WriteMessage(conn, MsgBatch, buf.Bytes()); err != nil {
				return err
			}
		}
	}
	var cb wire.Buffer
	cb.PutString(res.Command)
	cb.PutI64(res.RowsAffected)
	return wire.WriteMessage(conn, MsgComplete, cb.Bytes())
}

func metaFromCols(cols []xtra.Col) []tdf.ColumnMeta {
	out := make([]tdf.ColumnMeta, len(cols))
	for i, c := range cols {
		out[i] = tdf.ColumnMeta{Name: c.Name, Type: c.Type}
	}
	return out
}

// --- client ---------------------------------------------------------------

// Client is a CWP connection (the driver the ODBC Server abstraction loads).
type Client struct {
	conn net.Conn
	// in buffers every read of the session: a message's header and payload,
	// and a run of small messages, cost one read syscall instead of two each.
	in *bufio.Reader
	// payload is the backing array readEvent reads each message into; a batch
	// takes it over and leaves a recycled one in its place. See
	// maxRetainedPayload.
	payload []byte
	// broken marks the connection protocol-desynchronized: an abandoned
	// stream or a partially written request left responses in flight that no
	// reader will consume. Every subsequent request fails fast.
	broken bool
	// interrupt is a Stream's cancel hook, made once per connection: it
	// pushes the socket deadline into the past, so a blocked read returns.
	interrupt func()
	// query and frame are the payload and the frame of the request being
	// sent, kept for the next one.
	query wire.Buffer
	frame []byte
	// metas maps the MsgMeta payloads read to their columns: a repeated
	// query's metadata repeats its payload byte for byte and shares the
	// columns, and so does every batch whose header describes them (cols,
	// the last metadata read). metas holds at most metaShapes payloads.
	metas map[string][]tdf.ColumnMeta
	cols  []tdf.ColumnMeta
	// stream is the in-flight streaming request's (ExecStreamContext).
	stream Stream
	// command is the last command tag read: a repeated one is not copied
	// again.
	command string
}

// Broken reports whether the connection's request/response protocol has been
// desynchronized (e.g. by abandoning a Stream mid-result). A broken client
// must be discarded; it cannot serve further requests.
func (c *Client) Broken() bool { return c.broken }

// Dial connects and authenticates.
func Dial(addr, user, password string) (*Client, error) {
	return DialContext(context.Background(), addr, user, password)
}

// DialContext connects and authenticates, honouring the context's deadline
// for both the TCP connect and the logon handshake. Reconnecting drivers
// use it so a dead backend cannot hang session establishment.
func DialContext(ctx context.Context, addr, user, password string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(dl); err != nil {
			conn.Close()
			return nil, err
		}
	}
	var b wire.Buffer
	b.PutString(user)
	b.PutString(password)
	if err := wire.WriteMessage(conn, MsgLogon, b.Bytes()); err != nil {
		conn.Close()
		return nil, err
	}
	in := bufio.NewReaderSize(conn, 32<<10)
	kind, payload, err := wire.ReadMessage(in)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if kind != MsgLogonOK {
		conn.Close()
		return nil, fmt.Errorf("cwp: logon failed: %s", payload)
	}
	// Handshake deadline no longer applies to the session's lifetime.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{conn: conn, in: in}
	c.interrupt = func() { _ = conn.SetDeadline(time.Unix(1, 0)) }
	return c, nil
}

// StatementResult is the outcome of one statement within a request.
type StatementResult struct {
	Cols     []tdf.ColumnMeta
	Batches  []*tdf.Batch
	Command  string
	Affected int64
}

// Rows flattens the batches, decoding any that are raw: every batch read off
// a connection is.
func (r *StatementResult) Rows() [][]types.Datum {
	var out [][]types.Datum
	for _, b := range r.Batches {
		b.DecodeRows()
		out = append(out, b.Rows...)
	}
	return out
}

// Exec sends one SQL request (possibly multi-statement) and collects all
// statement results.
func (c *Client) Exec(sql string) ([]*StatementResult, error) {
	return c.ExecContext(context.Background(), sql)
}

// ExecContext is Exec with the context's deadline wired into the socket:
// every read and write of the request observes it, so a stalled or dead
// backend surfaces as a timeout instead of blocking the session forever.
func (c *Client) ExecContext(ctx context.Context, sql string) ([]*StatementResult, error) {
	if err := c.arm(ctx); err != nil {
		return nil, err
	}
	if err := c.send(sql); err != nil {
		return nil, err
	}
	var out []*StatementResult
	cur := &StatementResult{}
	for {
		ev, err := c.readEvent()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, err
		}
		switch ev.Kind {
		case StreamMeta:
			cur.Cols = ev.Cols
		case StreamBatch:
			cur.Batches = append(cur.Batches, ev.Batch)
		case StreamComplete:
			cur.Command, cur.Affected = ev.Command, ev.Affected
			out = append(out, cur)
			cur = &StatementResult{}
		}
	}
}

// arm readies the connection for one request: it refuses an ended ctx and a
// desynchronized connection, then sets the socket deadline to ctx's, or to
// none. It is the one place a request's deadline reaches the socket; nothing
// clears it afterwards, the next request arms its own.
func (c *Client) arm(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.broken {
		return fmt.Errorf("cwp: connection desynchronized by abandoned stream: %w", net.ErrClosed)
	}
	dl, _ := ctx.Deadline()
	return c.conn.SetDeadline(dl)
}

// send writes one request: sql framed as a MsgQuery in the Client's own
// buffers, which a long text leaves to the collector.
func (c *Client) send(sql string) error {
	if 4+len(sql) > wire.MaxMessageSize {
		return fmt.Errorf("wire: message of %d bytes exceeds limit", 4+len(sql))
	}
	c.query.Reset()
	c.query.PutString(sql)
	c.frame = wire.AppendMessage(c.frame[:0], MsgQuery, c.query.Bytes())
	_, err := c.conn.Write(c.frame)
	if cap(c.frame) > maxRetainedQuery {
		c.query, c.frame = wire.Buffer{}, nil
	}
	return err
}

// metaShapes bounds the MsgMeta payloads a Client keeps the columns of: past
// it, it starts over.
const metaShapes = 64

// maxRetainedQuery bounds the request buffers a Client keeps between
// requests.
const maxRetainedQuery = 64 << 10

// maxRetainedPayload bounds the payload buffer a Client keeps between
// messages: result batches (a few hundred KB) reuse it, a rare giant message
// gets a buffer of its own that is dropped after decoding.
const maxRetainedPayload = 1 << 20

// readEvent reads and decodes the next message of the in-flight request. It
// is the one reader of both the buffered and the streaming execute. A batch
// is taken over as it arrived — tdf.Adopt, which checks it as decoding
// would — so it is raw and owned by the receiver. The terminal
// outcomes are io.EOF at MsgEnd (the request completed, the
// connection is in sync), a *BackendError (the backend failed the request;
// its trailing MsgEnd is consumed, the connection is in sync) and anything
// else (transport or protocol failure: the connection is unusable).
func (c *Client) readEvent() (StreamEvent, error) {
	kind, payload, err := wire.ReadMessageInto(c.in, c.payload)
	if err != nil {
		// A bare EOF here is the backend dying mid-request (the clean end
		// of a request is MsgEnd, not a closed socket). io.EOF is the clean-end
		// sentinel, so it must never leak through as a terminal error or a
		// killed backend reads as a successful empty result.
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("cwp: connection closed mid-request: %w", io.ErrUnexpectedEOF)
		}
		return StreamEvent{}, err
	}
	if cap(payload) <= maxRetainedPayload {
		c.payload = payload
	}
	switch kind {
	case MsgMeta:
		cols, seen := c.metas[string(payload)]
		if !seen {
			if cols, err = decodeMeta(payload); err != nil {
				return StreamEvent{}, err
			}
			if len(c.metas) >= metaShapes || c.metas == nil {
				c.metas = make(map[string][]tdf.ColumnMeta)
			}
			c.metas[string(payload)] = cols
		}
		c.cols = cols
		return StreamEvent{Kind: StreamMeta, Cols: cols}, nil
	case MsgBatch:
		// The batch keeps payload; the next message is read into the buffer
		// a released batch left behind.
		batch, spare, err := tdf.AdoptAs(payload, c.cols)
		c.payload = nil
		if cap(spare) <= maxRetainedPayload {
			c.payload = spare
		}
		return StreamEvent{Kind: StreamBatch, Batch: batch}, err
	case MsgComplete:
		r := wire.NewReader(payload)
		if tag := r.Bytes(); string(tag) != c.command {
			c.command = string(tag)
		}
		ev := StreamEvent{Kind: StreamComplete, Command: c.command, Affected: r.I64()}
		return ev, r.Err()
	case MsgError:
		r := wire.NewReader(payload)
		be := &BackendError{Code: int(r.U32()), Message: r.String()}
		// Consume the trailing End so the connection stays in sync.
		if k, _, err := wire.ReadMessageInto(c.in, c.payload); err != nil || k != MsgEnd {
			return StreamEvent{}, fmt.Errorf("cwp: protocol error after failure")
		}
		return StreamEvent{}, be
	case MsgEnd:
		return StreamEvent{}, io.EOF
	default:
		return StreamEvent{}, fmt.Errorf("cwp: unexpected message 0x%02x", kind)
	}
}

// logoffTimeout bounds Close's logoff write. Requests leave their own
// deadline on the socket, which may have passed by the time the client is
// closed.
const logoffTimeout = time.Second

// Close logs off and closes the connection.
func (c *Client) Close() error {
	_ = c.conn.SetWriteDeadline(time.Now().Add(logoffTimeout))
	_ = wire.WriteMessage(c.conn, MsgLogoff, nil)
	return c.conn.Close()
}

// BackendError is a typed error from the backend.
type BackendError struct {
	Code    int
	Message string
}

func (e *BackendError) Error() string {
	return fmt.Sprintf("backend error %d: %s", e.Code, e.Message)
}

// Transient reports whether the error is a retryable abort: the backend
// processed the request, rolled it back, and nothing landed — a deadlock or
// transient resource condition. Such statements are safe to re-execute on
// the same session, even writes. All other backend errors are SQL/semantic
// failures and must never be retried.
func (e *BackendError) Transient() bool {
	switch e.Code {
	case 2631, // transaction aborted by deadlock
		3111, // request aborted: backend restart in progress
		3598: // concurrent workload limit, resubmit
		return true
	}
	return false
}
