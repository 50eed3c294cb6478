// Package load is the benchmark's load generator: a closed-loop client that
// speaks the frontend wire protocol at the parcel level, a latency recorder,
// and process CPU/memory sampling for the gateway under test.
package load

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"hyperq/internal/types"
	"hyperq/internal/wire"
	"hyperq/internal/wire/tdp"
)

// Client is one logged-on frontend connection. It frames requests with
// wire.WriteMessage and reads response parcels through its own buffered
// reader, so a record parcel it does not need to look at costs one Discard
// and no allocation: the load generator must stay cheap next to the gateway.
type Client struct {
	conn net.Conn
	in   *bufio.Reader
	out  *bufio.Writer // a request's header and text leave in one write
	buf  []byte        // reused parcel payload buffer
}

// Dial connects and logs on.
func Dial(addr, user string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, in: bufio.NewReaderSize(conn, 64<<10), out: bufio.NewWriter(conn)}
	var b wire.Buffer
	b.PutString(user)
	b.PutString("bench")
	if err := wire.WriteMessage(conn, tdp.MsgLogon, b.Bytes()); err != nil {
		conn.Close()
		return nil, err
	}
	kind, payload, err := wire.ReadMessage(c.in)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if kind != tdp.MsgLogonOK {
		conn.Close()
		return nil, fmt.Errorf("load: logon refused: %s", wire.NewReader(payload).String())
	}
	return c, nil
}

// Close logs off and closes the connection.
func (c *Client) Close() error {
	_ = wire.WriteMessage(c.conn, tdp.MsgLogoff, nil)
	return c.conn.Close()
}

// Response is what the client observed for one request.
type Response struct {
	// FirstRecord and End are measured from the moment the request was
	// handed to the socket; FirstRecord is 0 when no record parcel came.
	FirstRecord time.Duration
	End         time.Duration
	Statements  int
	Rows        int
	RecordBytes int64
	// Failure is the failure parcel's text, "" on success.
	Failure string
	// Records holds a copy of every record parcel, per statement, when the
	// request was made with capture set.
	Records [][][]byte
}

// Do sends one request and reads parcels to MsgEndRequest. With capture set
// the record payloads are kept for decoding; otherwise they are counted and
// skipped.
func (c *Client) Do(sql string, capture bool) (Response, error) {
	var r Response
	var b wire.Buffer
	b.PutString(sql)
	start := time.Now()
	if err := wire.WriteMessage(c.out, tdp.MsgRunRequest, b.Bytes()); err != nil {
		return r, err
	}
	if err := c.out.Flush(); err != nil {
		return r, err
	}
	var cur [][]byte
	for {
		// Record payloads are only read when captured; the small control
		// parcels are always read.
		var hdr [5]byte
		if _, err := io.ReadFull(c.in, hdr[:]); err != nil {
			return r, err
		}
		n := int(binary.BigEndian.Uint32(hdr[1:]))
		if n > wire.MaxMessageSize {
			return r, fmt.Errorf("load: parcel of %d bytes exceeds limit", n)
		}
		switch hdr[0] {
		case tdp.MsgRecord:
			if r.Rows == 0 {
				r.FirstRecord = time.Since(start)
			}
			r.Rows++
			r.RecordBytes += int64(n)
			if capture {
				p := make([]byte, n)
				if _, err := io.ReadFull(c.in, p); err != nil {
					return r, err
				}
				cur = append(cur, p)
				continue
			}
		case tdp.MsgSuccess:
			r.Statements++
			if capture {
				r.Records = append(r.Records, cur)
				cur = nil
			}
		case tdp.MsgFailure:
			if cap(c.buf) < n {
				c.buf = make([]byte, n)
			}
			if _, err := io.ReadFull(c.in, c.buf[:n]); err != nil {
				return r, err
			}
			rd := wire.NewReader(c.buf[:n])
			r.Failure = fmt.Sprintf("[%d] %s", rd.U32(), rd.String())
			continue
		case tdp.MsgEndRequest:
			if _, err := c.in.Discard(n); err != nil {
				return r, err
			}
			r.End = time.Since(start)
			return r, nil
		case tdp.MsgStmtInfo:
		default:
			return r, fmt.Errorf("load: unexpected parcel 0x%02x", hdr[0])
		}
		if _, err := c.in.Discard(n); err != nil {
			return r, err
		}
	}
}

// Expect is the reference answer to one request text.
type Expect struct {
	Statements  int
	Rows        int
	RecordBytes int64
	// Stmts carries the reference columns and rows of each statement for the
	// sampled full comparison.
	Stmts []ExpectStatement
}

// ExpectStatement is one statement's reference result set (Cols nil for a
// statement without one).
type ExpectStatement struct {
	Cols []tdp.ColumnDef
	Rows [][]types.Datum
	// Parcels are the record parcels Rows were decoded from.
	Parcels [][]byte
}

// Check compares the cheap counters of a response with the reference.
func (e *Expect) Check(r *Response) error {
	switch {
	case r.Failure != "":
		return fmt.Errorf("failure parcel: %s", r.Failure)
	case r.Statements != e.Statements:
		return fmt.Errorf("%d statements, reference has %d", r.Statements, e.Statements)
	case r.Rows != e.Rows:
		return fmt.Errorf("%d rows, reference has %d", r.Rows, e.Rows)
	case r.RecordBytes != e.RecordBytes:
		return fmt.Errorf("%d record-parcel bytes, reference has %d", r.RecordBytes, e.RecordBytes)
	}
	return nil
}

// CheckFull decodes every captured record parcel with tdp.DecodeRow under
// the reference columns and compares it with the reference row datum by
// datum.
func (e *Expect) CheckFull(r *Response) error {
	if err := e.Check(r); err != nil {
		return err
	}
	if len(r.Records) != len(e.Stmts) {
		return fmt.Errorf("captured %d statements, reference has %d", len(r.Records), len(e.Stmts))
	}
	for si, st := range e.Stmts {
		if len(r.Records[si]) != len(st.Rows) {
			return fmt.Errorf("statement %d: %d rows, reference has %d", si, len(r.Records[si]), len(st.Rows))
		}
		for ri, payload := range r.Records[si] {
			row, err := tdp.DecodeRow(st.Cols, payload)
			if err != nil {
				return fmt.Errorf("statement %d row %d: %w", si, ri, err)
			}
			for ci := range row {
				if !sameDatum(row[ci], st.Rows[ri][ci]) {
					return fmt.Errorf("statement %d row %d column %s: got %s, reference has %s",
						si, ri, st.Cols[ci].Name, row[ci].SQLLiteral(), st.Rows[ri][ci].SQLLiteral())
				}
			}
		}
	}
	return nil
}

// sameDatum is bit-level equality of what the wire carries for a datum: the
// client-visible contract is identical bytes, so -0.0 and 0.0 differ and a
// NULL only equals a NULL.
func sameDatum(a, b types.Datum) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	return a.K == b.K && a.I == b.I && a.S == b.S && a.Scale == b.Scale &&
		a.PStart == b.PStart && a.PEnd == b.PEnd &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}
