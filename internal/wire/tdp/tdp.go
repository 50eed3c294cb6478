// Package tdp implements the frontend wire protocol (WP-A): a binary,
// parcel-oriented protocol in the style of the original warehouse's client
// interface, spoken by unmodified client applications (the paper's bteq-like
// clients). The Hyper-Q Protocol Handler terminates this protocol and must
// reproduce it bit-identically — including the vendor's internal DATE
// integer encoding in row data — because "database clients become
// non-functional with the slightest difference in behavior of the database
// server" (§4.1).
package tdp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"time"

	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire"
)

// Parcel kinds.
const (
	MsgLogon      byte = 0x11 // c->s: user, password, charset
	MsgLogonOK    byte = 0x12 // s->c: session number
	MsgLogonFail  byte = 0x13 // s->c: message
	MsgRunRequest byte = 0x14 // c->s: request text
	MsgStmtInfo   byte = 0x15 // s->c: result column metadata
	MsgRecord     byte = 0x16 // s->c: one data row (IndicData layout)
	MsgSuccess    byte = 0x17 // s->c: activity count + activity name
	MsgFailure    byte = 0x18 // s->c: error code + message
	MsgEndRequest byte = 0x19 // s->c: request complete
	MsgLogoff     byte = 0x1A // c->s
)

// ColumnDef describes one result column as presented to the client.
type ColumnDef struct {
	Name string
	Type types.T
}

// --- row encoding -----------------------------------------------------------

// appendRecord appends one MsgRecord frame to dst: the frame header, then
// the row laid out in IndicData style — a null-indicator bitmap (u32 length,
// one bit per column, set = NULL) followed by the field values of the
// non-null columns. On error dst is returned as it came.
func appendRecord(dst []byte, cols []ColumnDef, row []types.Datum) ([]byte, error) {
	if len(row) != len(cols) {
		return dst, fmt.Errorf("tdp: row arity %d != %d", len(row), len(cols))
	}
	start := len(dst)
	b := beginRecord(dst, len(cols))
	for i := range row {
		if row[i].Null {
			setNull(b, start, i)
			continue
		}
		var err error
		if b, err = appendField(b, &cols[i].Type, &row[i]); err != nil {
			return dst, err
		}
	}
	return endRecord(dst, b, start)
}

// appendField appends the field of the present cell d in a column of type t.
// DATE values travel in the vendor's internal integer encoding —
// bit-identical to the original system.
func appendField(b []byte, t *types.T, d *types.Datum) ([]byte, error) {
	be := binary.BigEndian
	switch t.Kind {
	case types.KindBool:
		b = append(b, uint8(d.I))
	case types.KindInt, types.KindTime:
		b = be.AppendUint32(b, uint32(int32(d.I)))
	case types.KindBigInt, types.KindTimestamp, types.KindInterval:
		b = be.AppendUint64(b, uint64(d.I))
	case types.KindDecimal:
		b = be.AppendUint64(b, uint64(d.DecimalScaled(t.Scale)))
	case types.KindFloat:
		b = be.AppendUint64(b, math.Float64bits(d.F))
	case types.KindDate:
		// Teradata internal DATE integer: (y-1900)*10000 + m*100 + d.
		b = be.AppendUint32(b, uint32(int32(types.TeradataDateInt(*d))))
	case types.KindChar, types.KindVarChar, types.KindBytes:
		b = be.AppendUint32(b, uint32(len(d.S)))
		b = append(b, d.S...)
	case types.KindPeriod:
		b = be.AppendUint64(b, uint64(d.PStart))
		b = be.AppendUint64(b, uint64(d.PEnd))
	default:
		return b, fmt.Errorf("tdp: cannot encode kind %v", t.Kind)
	}
	return b, nil
}

// The record framer: appendRecord and appendTranscoded lay a MsgRecord
// parcel out through these three, and nothing else writes one.

// beginRecord appends a MsgRecord frame header for ncols columns to dst, its
// payload length left to endRecord and its null bitmap all clear.
func beginRecord(dst []byte, ncols int) []byte {
	nbitmap := (ncols + 7) / 8
	b := append(dst, MsgRecord, 0, 0, 0, 0)
	b = binary.BigEndian.AppendUint32(b, uint32(nbitmap))
	for i := 0; i < nbitmap; i++ {
		b = append(b, 0)
	}
	return b
}

// setNull marks column i NULL in the record that starts at b[start].
func setNull(b []byte, start, i int) {
	b[start+9+i/8] |= 1 << (7 - i%8)
}

// endRecord patches the payload length of the record that starts at
// b[start], refusing one larger than a message may be: then dst, what the
// record was appended to, comes back as it was.
func endRecord(dst, b []byte, start int) ([]byte, error) {
	n := len(b) - start - 5
	if n > wire.MaxMessageSize {
		return dst, fmt.Errorf("tdp: record of %d bytes exceeds the message limit", n)
	}
	binary.BigEndian.PutUint32(b[start+1:], uint32(n))
	return b, nil
}

// --- transcoding ------------------------------------------------------------

// A FieldOp is how a transcoded column's cells become record fields: the
// value of a present TDF cell (a tdf.Cell of tdf.RawRows) in, the field out,
// with the bytes appendRecord would have written for the cell after its
// conversion to the frontend type. The zero FieldOp is no op: Transcode
// refuses it.
type FieldOp struct {
	code fieldCode
	// n is the CHAR length for fieldPad and a bound on the field's size for
	// fieldCast; factor is the power of ten fieldScaleUp multiplies by and
	// fieldScaleDown divides by; cast is fieldCast's pair of types.
	n      int
	factor int64
	cast   *[2]types.T
}

type fieldCode uint8

const (
	fieldNone      fieldCode = iota
	fieldInt8                // the 64-bit value
	fieldInt4                // its low 32 bits
	fieldInt1                // its low byte
	fieldDate                // the value as the vendor's DATE integer
	fieldScaleUp             // the DECIMAL value at a larger scale
	fieldScaleDown           // the DECIMAL value at a smaller scale
	fieldString              // length and bytes as they are
	fieldPad                 // cut and blank-padded to CHAR(n)
	fieldPeriod              // start and end
	fieldCast                // decoded, converted with types.Cast, encoded
)

// Splice is the op for a cell that arrives in the kind of its field, k: the
// value re-endianned, in the field's width (or, for DATE, as the vendor's
// integer), a string's bytes as they are. Because a TDF integer is 64 bits
// whatever its kind, it is also the op for an INTEGER cell sent as BIGINT and
// a BIGINT one sent as INTEGER: the field keeps the low 32 bits, as
// appendRecord does. ok is false for a kind no field holds.
func Splice(k types.Kind) (op FieldOp, ok bool) {
	switch k {
	case types.KindBool:
		return FieldOp{code: fieldInt1}, true
	case types.KindInt, types.KindTime:
		return FieldOp{code: fieldInt4}, true
	case types.KindBigInt, types.KindTimestamp, types.KindInterval, types.KindFloat, types.KindDecimal:
		return FieldOp{code: fieldInt8}, true
	case types.KindDate:
		return FieldOp{code: fieldDate}, true
	case types.KindChar, types.KindVarChar, types.KindBytes:
		return FieldOp{code: fieldString}, true
	case types.KindPeriod:
		return FieldOp{code: fieldPeriod}, true
	}
	return FieldOp{}, false
}

// Rescale is the op for a DECIMAL cell of scale from sent as a DECIMAL of
// scale to: the scaled integer multiplied, or divided with truncation, by the
// power of ten between them, as types.Datum.DecimalScaled computes it.
func Rescale(from, to int) FieldOp {
	op := FieldOp{code: fieldScaleUp, factor: 1}
	if to < from {
		op.code = fieldScaleDown
	}
	for d := max(to-from, from-to); d > 0; d-- {
		op.factor *= 10
	}
	return op
}

// Pad is the op for a string cell sent as CHAR(n): cut to n bytes, then
// padded with blanks to n, as types.Cast does. CHAR with no length (n 0 or
// less) takes the string as it is.
func Pad(n int) FieldOp { return FieldOp{code: fieldPad, n: max(n, 0)} }

// Cast is the op for a cell of a column of type from sent as a field of type
// to, whatever the two are: the cell is decoded, goes as it is when it
// already has to's kind (and scale, for DECIMAL) and through types.Cast
// otherwise, and is written as appendRecord writes a cell of to. A cell Cast
// cannot convert fails its record with a *ConversionError.
func Cast(from, to types.T) FieldOp {
	// A field outgrows its cell by no more than a number, date or time as
	// text (under 64 bytes) or a CHAR's blanks.
	n := 64
	if to.Kind == types.KindChar {
		n = max(n, to.Length)
	}
	return FieldOp{code: fieldCast, n: n, cast: &[2]types.T{from, to}}
}

// reads reports whether op can read the cells of a TDF column of type t:
// the 64-bit value of an integral kind or FLOAT, a string's bytes, a PERIOD,
// or, for a cast, a cell of the very type it decodes.
func (op FieldOp) reads(t *types.T) bool {
	switch op.code {
	case fieldInt8, fieldInt4, fieldInt1, fieldDate, fieldScaleUp, fieldScaleDown:
		switch t.Kind {
		case types.KindBool, types.KindInt, types.KindBigInt, types.KindDate, types.KindTime,
			types.KindTimestamp, types.KindDecimal, types.KindInterval, types.KindFloat:
			return true
		}
	case fieldString, fieldPad:
		return t.Kind == types.KindChar || t.Kind == types.KindVarChar || t.Kind == types.KindBytes
	case fieldPeriod:
		return t.Kind == types.KindPeriod
	case fieldCast:
		from := &op.cast[0]
		return t.Kind == from.Kind && t.Scale == from.Scale && t.Elem == from.Elem
	}
	return false
}

// A ConversionError is a cell a cast op could not convert to its column's
// frontend type. The records before the one it fails were made; the failing
// one was not.
type ConversionError struct {
	Column string
	Err    error
}

func (e *ConversionError) Error() string { return "column " + e.Column + ": " + e.Err.Error() }

// blanks is the run CHAR padding is cut from.
const blanks = "                                                                "

// appendTranscoded appends to dst the record of a row whose cells are cells,
// located in p (tdf.RawRows), writing column i's field with ops[i]; cols
// name the columns in a *ConversionError. On error dst is returned as it
// came.
func appendTranscoded(dst, p []byte, cells []tdf.Cell, ops []FieldOp, cols []ColumnDef) ([]byte, error) {
	le, be := binary.LittleEndian, binary.BigEndian
	start := len(dst)
	b := beginRecord(dst, len(ops))
	for i, c := range cells {
		if c.Off < 0 {
			setNull(b, start, i)
			continue
		}
		val := p[c.Off : c.Off+c.Len]
		op := &ops[i]
		switch op.code {
		case fieldInt8:
			b = be.AppendUint64(b, le.Uint64(val))
		case fieldInt4:
			b = be.AppendUint32(b, uint32(le.Uint64(val)))
		case fieldInt1:
			b = append(b, val[0])
		case fieldDate:
			b = be.AppendUint32(b, uint32(int32(int64(le.Uint64(val))-types.TeradataDateOffset)))
		case fieldScaleUp:
			b = be.AppendUint64(b, uint64(int64(le.Uint64(val))*op.factor))
		case fieldScaleDown:
			b = be.AppendUint64(b, uint64(int64(le.Uint64(val))/op.factor))
		case fieldString:
			b = be.AppendUint32(b, uint32(len(val)))
			b = append(b, val...)
		case fieldPad:
			n := op.n
			if n == 0 {
				n = len(val)
			}
			val = val[:min(n, len(val))]
			b = be.AppendUint32(b, uint32(n))
			b = append(b, val...)
			for pad := n - len(val); pad > 0; pad -= len(blanks) {
				b = append(b, blanks[:min(pad, len(blanks))]...)
			}
		case fieldPeriod:
			b = be.AppendUint64(b, le.Uint64(val))
			b = be.AppendUint64(b, le.Uint64(val[8:]))
		case fieldCast:
			from, to := &op.cast[0], &op.cast[1]
			d := c.Value(from, p)
			var err error
			if !d.Null && (d.K != to.Kind || to.Kind == types.KindDecimal && int(d.Scale) != to.Scale) {
				d, err = types.Cast(d, *to)
			}
			if err == nil && d.Null {
				setNull(b, start, i)
				continue
			}
			if err == nil {
				b, err = appendField(b, to, &d)
			}
			if err != nil {
				return dst, &ConversionError{Column: cols[i].Name, Err: err}
			}
		}
	}
	return endRecord(dst, b, start)
}

// transcoding checks that b is raw and that ops, one per column of cols, can
// read its columns, and returns its rows and a bound on the size of any one
// of its records: no field but a cast outgrows its cell except by the blanks
// of a CHAR pad, so the largest row of the batch bounds them all.
func transcoding(b *tdf.Batch, cols []ColumnDef, ops []FieldOp) (tdf.RawRows, int, error) {
	raw, ok := b.Raw()
	if !ok || len(ops) != len(cols) || len(ops) != len(b.Cols) {
		return raw, 0, fmt.Errorf("tdp: cannot transcode a %d-column batch into %d columns (raw %v)", len(b.Cols), len(cols), ok)
	}
	need := 9 + (len(ops)+7)/8 + raw.MaxRow
	for i, op := range ops {
		if !op.reads(&b.Cols[i].Type) {
			return raw, 0, fmt.Errorf("tdp: column %d: no field op for a %v cell", i, b.Cols[i].Type)
		}
		if op.code == fieldPad || op.code == fieldCast {
			need += op.n
		}
	}
	return raw, need, nil
}

// AppendRecords appends to dst the records Transcode would send for the raw
// batch b under the columns cols. On error dst is returned as it came.
func AppendRecords(dst []byte, cols []ColumnDef, b *tdf.Batch, ops []FieldOp) ([]byte, error) {
	raw, _, err := transcoding(b, cols, ops)
	if err != nil {
		return dst, err
	}
	out := dst
	for cells, n := raw.Cells, len(ops); len(cells) >= n && n > 0; cells = cells[n:] {
		if out, err = appendTranscoded(out, raw.Bytes, cells[:n], ops, cols); err != nil {
			return dst, err
		}
	}
	return out, nil
}

// DecodeRow parses an IndicData row under the given column metadata.
func DecodeRow(cols []ColumnDef, payload []byte) ([]types.Datum, error) {
	row := make([]types.Datum, len(cols))
	if err := decodeRow(row, cols, payload, ""); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeRecords decodes p, a run of MsgRecord frames of the columns cols
// (what AppendRecords makes), into rows that are windows of one slab, their
// strings cut from one copy of p. It returns nil for no records.
func DecodeRecords(cols []ColumnDef, p []byte) ([][]types.Datum, error) {
	p = p[:len(p):len(p)] // decodeRow locates a string in text by its cap
	n := 0
	for r := wire.NewReader(p); r.Len() > 0; n++ {
		if kind := r.U8(); r.Bytes() == nil || kind != MsgRecord {
			return nil, fmt.Errorf("tdp: bad record run")
		}
	}
	if n == 0 {
		return nil, nil
	}
	var text string // same offsets as p
	for _, c := range cols {
		if k := c.Type.Kind; k == types.KindChar || k == types.KindVarChar || k == types.KindBytes {
			text = string(p)
			break
		}
	}
	slab, rows := make([]types.Datum, n*len(cols)), make([][]types.Datum, n)
	r := wire.NewReader(p)
	for i := range rows {
		r.U8()
		rows[i] = slab[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		if err := decodeRow(rows[i], cols, r.Bytes(), text); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// decodeRow parses an IndicData row under cols into row. A string field is
// cut from text when text holds the bytes payload is a window of, and copied
// otherwise.
func decodeRow(row []types.Datum, cols []ColumnDef, payload []byte, text string) error {
	r := wire.NewReader(payload)
	bitmap := r.Bytes()
	if r.Err() != nil || len(bitmap) < (len(cols)+7)/8 {
		return fmt.Errorf("tdp: bad row bitmap")
	}
	for i, c := range cols {
		if bitmap[i/8]&(1<<(7-i%8)) != 0 {
			row[i] = types.NewNull(c.Type.Kind)
			continue
		}
		switch c.Type.Kind {
		case types.KindBool:
			row[i] = types.NewBool(r.U8() != 0)
		case types.KindInt:
			row[i] = types.NewInt(int64(int32(r.U32())))
		case types.KindBigInt:
			row[i] = types.NewBigInt(r.I64())
		case types.KindTimestamp:
			row[i] = types.NewTimestamp(r.I64())
		case types.KindInterval:
			row[i] = types.NewInterval(r.I64())
		case types.KindDecimal:
			row[i] = types.NewDecimal(r.I64(), c.Type.Scale)
		case types.KindFloat:
			row[i] = types.NewFloat(math.Float64frombits(r.U64()))
		case types.KindDate:
			row[i] = types.DateFromTeradataInt(int64(int32(r.U32())))
		case types.KindTime:
			row[i] = types.NewTime(int64(int32(r.U32())))
		case types.KindChar, types.KindVarChar, types.KindBytes:
			v := r.Bytes()
			if text == "" {
				row[i] = types.Datum{K: c.Type.Kind, S: string(v)}
			} else { // v ends where text does, less its cap
				row[i] = types.Datum{K: c.Type.Kind, S: text[len(text)-cap(v):][:len(v)]}
			}
		case types.KindPeriod:
			row[i] = types.NewPeriod(c.Type.Elem, r.I64(), r.I64())
		default:
			return fmt.Errorf("tdp: cannot decode kind %v", c.Type.Kind)
		}
	}
	return r.Err()
}

// AppendStmtInfo appends the payload of the StmtInfo parcel that announces
// cols to dst: for a caller that announces the same columns again and again,
// and encodes them once.
func AppendStmtInfo(dst []byte, cols []ColumnDef) []byte {
	be := binary.BigEndian
	dst = be.AppendUint32(dst, uint32(len(cols)))
	for _, c := range cols {
		dst = be.AppendUint32(dst, uint32(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = append(dst, uint8(c.Type.Kind))
		dst = be.AppendUint32(dst, uint32(c.Type.Scale))
		dst = be.AppendUint32(dst, uint32(c.Type.Length))
		dst = append(dst, uint8(c.Type.Elem))
	}
	return dst
}

// stmtInfoSize is the length of AppendStmtInfo's payload for cols.
func stmtInfoSize(cols []ColumnDef) int {
	n := 4
	for _, c := range cols {
		n += 14 + len(c.Name)
	}
	return n
}

func decodeStmtInfo(payload []byte) ([]ColumnDef, error) {
	r := wire.NewReader(payload)
	n := int(r.U32())
	if n > 1<<16 {
		return nil, fmt.Errorf("tdp: implausible column count %d", n)
	}
	cols := make([]ColumnDef, n)
	for i := 0; i < n; i++ {
		name := r.String()
		kind := types.Kind(r.U8())
		scale := int(r.U32())
		length := int(r.U32())
		elem := types.Kind(r.U8())
		t := types.T{Kind: kind, Scale: scale, Length: length, Elem: elem}
		if kind == types.KindDecimal {
			t.Precision = 18
		}
		cols[i] = ColumnDef{Name: name, Type: t}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return cols, nil
}

// --- server ----------------------------------------------------------------

// ResponseWriter streams one request's response parcels back to the client.
type ResponseWriter interface {
	// BeginResultSet announces result columns for the current statement.
	BeginResultSet(cols []ColumnDef) error
	// Row sends one data row; only valid after BeginResultSet.
	Row(row []types.Datum) error
	// EndStatement completes the current statement with its activity count.
	EndStatement(activity int64, activityName string) error
	// Failure reports a request failure (code + message) and ends the request.
	Failure(code int, msg string) error
}

// NewResponseWriter returns the writer a served connection hands its
// SessionHandler, writing to out: for code that frames responses without a
// connection (tests, benchmarks). Nothing is flushed but what does not fit.
// Besides ResponseWriter's methods it has Transcode and Records.
func NewResponseWriter(out *bufio.Writer) ResponseWriter { return &respWriter{out: out} }

// SessionHandler processes requests for one logged-on session.
type SessionHandler interface {
	// Request handles one (possibly multi-statement) request, writing its
	// response parcels. A returned error tears the connection down.
	Request(sql string, w ResponseWriter) error
	// Close releases session state.
	Close()
}

// Handler authenticates sessions.
type Handler interface {
	Logon(user, password string) (SessionHandler, error)
}

// Options tunes the server's per-connection behaviour.
type Options struct {
	// WriteTimeout bounds every response write to the client socket. A
	// client that stops reading its result stalls the gateway's write once
	// the socket buffer fills; past this deadline the write fails with a
	// timeout error, letting the session evict the slow client instead of
	// pinning result memory indefinitely. 0 leaves writes unbounded.
	WriteTimeout time.Duration
}

// Serve accepts and serves connections until the listener closes.
// Transient Accept failures (aborted handshakes, fd exhaustion) back off
// briefly and keep the loop alive; only a closed listener or another
// permanent error exits.
func Serve(ln net.Listener, h Handler) error {
	return ServeOptions(ln, h, Options{})
}

// ServeOptions is Serve with per-connection options.
func ServeOptions(ln net.Listener, h Handler, opts Options) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if wire.TransientAcceptError(err) {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return err
		}
		go serveConn(conn, h, opts)
	}
}

// responseBufferSize is the write buffer of one client connection: an 8 MB
// result is 128 socket writes (each arming the write deadline) instead of the
// 256 it was at 32 KiB. Chosen by measurement, EXPERIMENTS.md "Zero slabs per
// batch": 64 KiB delivered more result_stream MB/s than 32 KiB in 9 of 10
// interleaved pairs (+3.5 % in the median) with first-row latency and the
// small workloads' peak RSS unchanged; 128 KiB won only 8 of 10. A small
// response touches only the buffer's first page.
const responseBufferSize = 64 << 10

// maxRetainedRequest bounds the request buffer a connection keeps between
// requests.
const maxRetainedRequest = 64 << 10

func serveConn(conn net.Conn, h Handler, opts Options) {
	defer conn.Close()
	// One client session's panic must not take down the other sessions.
	defer func() {
		if r := recover(); r != nil {
			log.Printf("tdp: session handler panic: %v", r)
		}
	}()
	// All response parcels go through one buffered writer: row parcels are
	// small, and writing each one straight to the socket costs a syscall per
	// row. The buffer is flushed when a row would not fit in it, after a
	// failure parcel, and once the request is over, before reading the next
	// one: a small answer, however many statements it has, is one socket
	// write.
	var sock io.Writer = conn
	if opts.WriteTimeout > 0 {
		sock = &deadlineWriter{conn: conn, timeout: opts.WriteTimeout}
	}
	out := bufio.NewWriterSize(sock, responseBufferSize)
	in := bufio.NewReader(conn)
	kind, payload, err := wire.ReadMessage(in)
	if err != nil || kind != MsgLogon {
		return
	}
	r := wire.NewReader(payload)
	user := r.String()
	pass := r.String()
	if r.Err() != nil {
		return
	}
	sess, err := h.Logon(user, pass)
	if err != nil {
		var b wire.Buffer
		b.PutString(err.Error())
		_ = wire.WriteMessage(out, MsgLogonFail, b.Bytes())
		_ = out.Flush()
		return
	}
	defer sess.Close()
	var b wire.Buffer
	b.PutU32(1) // session number
	if err := wire.WriteMessage(out, MsgLogonOK, b.Bytes()); err != nil {
		return
	}
	if err := out.Flush(); err != nil {
		return
	}
	// One response writer and one request buffer serve every request of the
	// connection: a request's text is copied out of the buffer, and nothing
	// keeps the writer past the request.
	w := &respWriter{out: out}
	var buf []byte
	for {
		kind, payload, err := wire.ReadMessageInto(in, buf)
		if err != nil {
			return
		}
		if cap(payload) <= maxRetainedRequest {
			buf = payload
		}
		switch kind {
		case MsgRunRequest:
			r := wire.NewReader(payload)
			sql := r.String()
			*w = respWriter{out: out}
			if err := sess.Request(sql, w); err != nil {
				return
			}
			if !w.failed {
				if err := w.endRequest(); err != nil {
					return
				}
			}
			if err := out.Flush(); err != nil {
				return
			}
		case MsgLogoff:
			return
		default:
			return
		}
	}
}

// deadlineWriter sits beneath the connection's bufio.Writer and pushes the
// write deadline forward before each write that reaches the socket. The
// deadline is per socket write, not per request: a client draining a long
// result slowly but steadily is fine; only a reader that stalls completely
// for the timeout fails the write (with a net timeout error) and gets
// evicted.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	if err := d.conn.SetWriteDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return d.conn.Write(p)
}

type respWriter struct {
	out    *bufio.Writer
	cols   []ColumnDef
	failed bool
}

// parcel returns a parcel of kind with an n-byte payload to come, framed in
// the buffered writer's free space — flushed first when the parcel would not
// fit in what is left — so the Write that sends it copies nothing; only a
// parcel larger than the whole buffer is framed on the heap. The caller
// appends exactly n payload bytes and writes the result.
func (w *respWriter) parcel(kind byte, n int) ([]byte, error) {
	if 5+n > w.out.Available() {
		if err := w.out.Flush(); err != nil {
			return nil, err
		}
	}
	var b []byte
	if 5+n <= w.out.Available() {
		b = w.out.AvailableBuffer()
	} else {
		b = make([]byte, 0, 5+n)
	}
	b = append(b, kind)
	return binary.BigEndian.AppendUint32(b, uint32(n)), nil
}

func (w *respWriter) write(p []byte, err error) error {
	if err != nil {
		return err
	}
	_, err = w.out.Write(p)
	return err
}

func (w *respWriter) BeginResultSet(cols []ColumnDef) error {
	w.cols = cols
	b, err := w.parcel(MsgStmtInfo, stmtInfoSize(cols))
	return w.write(AppendStmtInfo(b, cols), err)
}

// Row encodes the record straight into the buffered writer's free space, so
// the Write that follows copies nothing and no row costs an allocation. The
// buffer is flushed first when the record might not fit in what is left of
// it (need is an upper bound: no field but a string exceeds 16 bytes); only
// a record larger than the whole buffer is built on the heap.
func (w *respWriter) Row(row []types.Datum) error {
	need := 9 + (len(row)+7)/8 + 16*len(row)
	for i := range row {
		need += len(row[i].S)
	}
	if need > w.out.Available() {
		if err := w.out.Flush(); err != nil {
			return err
		}
	}
	rec, err := appendRecord(w.out.AvailableBuffer(), w.cols, row)
	if err != nil {
		return err
	}
	_, err = w.out.Write(rec)
	return err
}

// Transcode sends the rows of the raw batch b (tdf.Batch.Raw) without
// decoding them, the field of column i made by ops[i]; like Row it is only
// valid after BeginResultSet, with one op per column. It writes each record
// straight into the buffered writer's free space, as Row does, bounded as
// transcoding says. A cell a cast op cannot convert ends it with a
// *ConversionError: the records before that row may have been sent.
func (w *respWriter) Transcode(b *tdf.Batch, ops []FieldOp) error {
	raw, need, err := transcoding(b, w.cols, ops)
	if err != nil {
		return err
	}
	// Records go into the buffer's free space as long as the next one is sure
	// to fit, then the run is written at once; only a record larger than the
	// whole buffer is built on the heap.
	cells, n := raw.Cells, len(ops)
	for len(cells) >= n && n > 0 {
		if need > w.out.Available() {
			if err := w.out.Flush(); err != nil {
				return err
			}
		}
		run := w.out.AvailableBuffer()
		for len(cells) >= n {
			var err error
			if run, err = appendTranscoded(run, raw.Bytes, cells[:n], ops, w.cols); err != nil {
				return err
			}
			cells = cells[n:]
			if need > cap(run)-len(run) {
				break
			}
		}
		if _, err := w.out.Write(run); err != nil {
			return err
		}
	}
	return nil
}

// Records sends p, records AppendRecords made for the open result set, as
// they are.
func (w *respWriter) Records(p []byte) error {
	_, err := w.out.Write(p)
	return err
}

// EndStatement leaves its parcel in the buffer: serveConn flushes once the
// request is over, so a statement boundary costs no socket write of its own.
func (w *respWriter) EndStatement(activity int64, name string) error {
	w.cols = nil
	b, err := w.parcel(MsgSuccess, 12+len(name))
	if err == nil {
		b = binary.BigEndian.AppendUint64(b, uint64(activity))
		b = binary.BigEndian.AppendUint32(b, uint32(len(name)))
		b = append(b, name...)
	}
	return w.write(b, err)
}

// endRequest ends a request that did not fail: serveConn's last parcel.
func (w *respWriter) endRequest() error {
	return w.write(w.parcel(MsgEndRequest, 0))
}

func (w *respWriter) Failure(code int, msg string) error {
	w.failed = true
	b, err := w.parcel(MsgFailure, 8+len(msg))
	if err == nil {
		b = binary.BigEndian.AppendUint32(b, uint32(code))
		b = binary.BigEndian.AppendUint32(b, uint32(len(msg)))
		b = append(b, msg...)
	}
	if err := w.write(b, err); err != nil {
		return err
	}
	if err := w.endRequest(); err != nil {
		return err
	}
	return w.out.Flush()
}

// --- client ----------------------------------------------------------------

// Client is a TDP connection, standing in for the vendor's CLI/bteq client
// library.
type Client struct {
	conn net.Conn
}

// Dial connects and logs on.
func Dial(addr, user, password string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	var b wire.Buffer
	b.PutString(user)
	b.PutString(password)
	if err := wire.WriteMessage(conn, MsgLogon, b.Bytes()); err != nil {
		conn.Close()
		return nil, err
	}
	kind, payload, err := wire.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if kind != MsgLogonOK {
		conn.Close()
		r := wire.NewReader(payload)
		return nil, fmt.Errorf("tdp: logon failed: %s", r.String())
	}
	return &Client{conn: conn}, nil
}

// Statement is one statement's response within a request.
type Statement struct {
	Cols     []ColumnDef
	Rows     [][]types.Datum
	Activity int64
	Command  string
}

// RequestError is a failure parcel surfaced as an error.
type RequestError struct {
	Code    int
	Message string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("request failed [%d]: %s", e.Code, e.Message)
}

// Request submits one request and collects per-statement responses.
func (c *Client) Request(sql string) ([]*Statement, error) {
	var b wire.Buffer
	b.PutString(sql)
	if err := wire.WriteMessage(c.conn, MsgRunRequest, b.Bytes()); err != nil {
		return nil, err
	}
	var out []*Statement
	cur := &Statement{}
	var reqErr *RequestError
	for {
		kind, payload, err := wire.ReadMessage(c.conn)
		if err != nil {
			return nil, err
		}
		switch kind {
		case MsgStmtInfo:
			cols, err := decodeStmtInfo(payload)
			if err != nil {
				return nil, err
			}
			cur.Cols = cols
		case MsgRecord:
			row, err := DecodeRow(cur.Cols, payload)
			if err != nil {
				return nil, err
			}
			cur.Rows = append(cur.Rows, row)
		case MsgSuccess:
			r := wire.NewReader(payload)
			cur.Activity = r.I64()
			cur.Command = r.String()
			out = append(out, cur)
			cur = &Statement{}
		case MsgFailure:
			r := wire.NewReader(payload)
			reqErr = &RequestError{Code: int(r.U32()), Message: r.String()}
		case MsgEndRequest:
			if reqErr != nil {
				return nil, reqErr
			}
			return out, nil
		default:
			return nil, fmt.Errorf("tdp: unexpected parcel 0x%02x", kind)
		}
	}
}

// Close logs off.
func (c *Client) Close() error {
	_ = wire.WriteMessage(c.conn, MsgLogoff, nil)
	return c.conn.Close()
}
