package hyperq

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/xtra"
)

// convertPlan is the Result Converter (§4.6) compiled for one statement: the
// frontend column definitions and one tdp.FieldOp per column, compiled for
// the backend column types back. Every batch reaches a sink raw, and the sink
// writes records straight from its TDF bytes with those ops.
type convertPlan struct {
	cols []tdp.ColumnDef
	back []tdf.ColumnMeta
	ops  []tdp.FieldOp
}

// newConvertPlan compiles the plan for a result the backend describes as
// backCols and the client was promised as frontCols.
func newConvertPlan(frontCols []xtra.Col, backCols []tdf.ColumnMeta) (*convertPlan, error) {
	if len(backCols) != len(frontCols) {
		return nil, fmt.Errorf("backend returned %d columns, expected %d", len(backCols), len(frontCols))
	}
	p := &convertPlan{cols: make([]tdp.ColumnDef, len(frontCols)), back: backCols}
	for i, c := range frontCols {
		p.cols[i] = tdp.ColumnDef{Name: c.Name, Type: c.Type}
	}
	p.ops = compileOps(p.cols, backCols)
	return p, nil
}

// compiledFor reports whether p's ops were compiled for columns of back's
// types (kind, scale, PERIOD element).
func (p *convertPlan) compiledFor(back []tdf.ColumnMeta) bool {
	if len(back) != len(p.back) {
		return false
	}
	for i := range back {
		if t, want := &back[i].Type, &p.back[i].Type; t.Kind != want.Kind || t.Scale != want.Scale || t.Elem != want.Elem {
			return false
		}
	}
	return true
}

// convertMemo keeps the convertPlan a cached Plan last compiled: every run
// of the cached statement whose backend describes its result with the same
// column types reuses it. Concurrent hits share it; a result of other types
// compiles a plan of its own, which replaces it.
// A memo keeps a plan only from the plan's second compilation on: an entry
// run once — the miss that filled it, never hit before its key is orphaned
// (a session-private entry, say) — holds no plan for as long as the cache
// holds it.
type convertMemo struct {
	last atomic.Pointer[convertPlan]
	ran  atomic.Bool
}

// plan returns the convertPlan for a result the backend describes as
// backCols: the memo's when it was compiled for those types. A nil memo
// compiles one every time.
func (m *convertMemo) plan(frontCols []xtra.Col, backCols []tdf.ColumnMeta) (*convertPlan, error) {
	if m == nil {
		return newConvertPlan(frontCols, backCols)
	}
	if p := m.last.Load(); p != nil && p.compiledFor(backCols) {
		return p, nil
	}
	p, err := newConvertPlan(frontCols, backCols)
	if err == nil && m.ran.Swap(true) {
		m.last.Store(p)
	}
	return p, err
}

func compileOps(front []tdp.ColumnDef, back []tdf.ColumnMeta) []tdp.FieldOp {
	ops := make([]tdp.FieldOp, len(front))
	for i := range front {
		ops[i] = fieldOp(back[i].Type, front[i].Type)
	}
	return ops
}

// fieldOp classifies a column the backend sends as back and the frontend
// expects as front: the op that writes the field appendRecord would write for
// a cell of back after the reference conversion (the cell as it is when it
// has the frontend kind and scale, types.Cast of it otherwise).
//   - splice: the same kind (at the same scale, for DECIMAL). Strings are
//     copied as they are: a CHAR cell is never padded.
//   - rewidth: INTEGER and BIGINT either way (Cast keeps the value, the field
//     keeps its low 32 bits for INTEGER), and DECIMAL at another scale
//     (DecimalScaled's multiply or truncating divide). Scales are the ones a
//     decoded cell carries (Datum.Scale is 8 bits); only 0–18 are rewidthed.
//   - pad: VARCHAR sent as CHAR(n), cut and blank-padded as Cast does.
//   - cast: every other pair, a cell at a time.
func fieldOp(back, front types.T) tdp.FieldOp {
	cellScale := int(int8(back.Scale))
	integer := func(k types.Kind) bool { return k == types.KindInt || k == types.KindBigInt }
	switch {
	case back.Kind == front.Kind && (back.Kind != types.KindDecimal || cellScale == front.Scale),
		integer(back.Kind) && integer(front.Kind):
		if op, ok := tdp.Splice(front.Kind); ok {
			return op
		}
	case back.Kind == types.KindDecimal && front.Kind == types.KindDecimal &&
		cellScale >= 0 && cellScale <= 18 && front.Scale >= 0 && front.Scale <= 18:
		return tdp.Rescale(cellScale, front.Scale)
	case back.Kind == types.KindVarChar && front.Kind == types.KindChar:
		return tdp.Pad(front.Length)
	}
	return tdp.Cast(back, front)
}

// opsFor returns the ops to write b with: the plan's, or ops of b's own when
// its header declares other column types (kind, scale, PERIOD element) than
// the ones the plan was compiled for.
func (p *convertPlan) opsFor(b *tdf.Batch) []tdp.FieldOp {
	if len(b.Cols) != len(p.back) {
		return p.ops // the sink refuses the batch
	}
	if !p.compiledFor(b.Cols) {
		return compileOps(p.cols, b.Cols)
	}
	return p.ops
}

// conversionFailure is a result that cannot be converted, as the frontend
// sees it.
func conversionFailure(err error) *RequestError {
	return failf(tdp.CodeObjectNotFound, "result conversion: %v", err)
}

// deliverBatch hands one batch to sink with the plan's ops, and adds the
// time that took — the whole transcode, which writes as it converts — to
// convert. A batch that is not raw (an in-process driver's, shared between
// requests; one a replica comparison decoded) is first encoded as cwp would
// send it, into the session's pooled batch: the one place a batch becomes raw
// other than off the wire. It returns the rows delivered. Conversion failures
// come back as *RequestError.
func (s *Session) deliverBatch(p *convertPlan, b *tdf.Batch, sink resultSink, convert *time.Duration) (int, error) {
	t0 := time.Now()
	if _, raw := b.Raw(); !raw {
		if err := b.EncodeRaw(&s.encoded); err != nil {
			*convert += time.Since(t0)
			return 0, conversionFailure(err)
		}
		b = &s.encoded
		defer b.Release()
	}
	n := b.Len()
	err := sink.transcode(b, p.opsFor(b))
	*convert += time.Since(t0)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// resultSink takes one backend request's converted results statement by
// statement: begin opens a result set, transcode writes a raw batch's rows of
// it with the plan's ops, end closes the statement (with or without one).
type resultSink interface {
	begin(cols []tdp.ColumnDef) error
	transcode(b *tdf.Batch, ops []tdp.FieldOp) error
	end(activity int64, command string) error
}

// collector is the resultSink that materializes results as FrontResults:
// local sessions, DML/DDL, everything inside a composite. It keeps a result
// set as the records the wire would carry, appended to recs, and releases
// each batch once they are made; the open statement's start at mark.
type collector struct {
	recs *[]byte
	mark int
	out  []*FrontResult
	cur  FrontResult // the statement being delivered
}

func (c *collector) begin(cols []tdp.ColumnDef) error {
	c.cur.Cols, c.mark = cols, len(*c.recs)
	return nil
}

func (c *collector) transcode(b *tdf.Batch, ops []tdp.FieldOp) error {
	recs, err := tdp.AppendRecords(*c.recs, c.cur.Cols, b, ops)
	b.Release()
	if err != nil {
		return conversionFailure(err)
	}
	*c.recs = recs
	return nil
}

func (c *collector) end(activity int64, command string) error {
	fr := c.cur
	if fr.Cols != nil {
		fr.recs = (*c.recs)[c.mark:]
	}
	fr.Activity, fr.Command = activity, command
	c.out, c.cur = append(c.out, &fr), FrontResult{}
	return nil
}

// eventSource is what deliver reads: an odbc.ResultStream, or the fetch stage
// in front of one.
type eventSource interface {
	Next(ctx context.Context) (cwp.StreamEvent, error)
}

// deliver is the gateway's one result path: it drains the event stream of
// p's backend request into sink, taking each result set's convertPlan from
// its metadata (p's memo, or compiled), transcoding batch by batch and
// counting rows; p's cmd is the frontend activity name, "" for the backend's
// command tag. A stream may only end
// after the Complete of every statement it opened — a producer that stops
// short (deadline, cancel, backend death) is an error here, never a short
// result. It returns the result sets opened and the time spent converting.
// Conversion failures come back as *RequestError; sink and producer failures
// as they are.
func (s *Session) deliver(ctx context.Context, src eventSource, p *Plan, sink resultSink) (sets int64, convert time.Duration, _ error) {
	var plan *convertPlan // non-nil while a result set is open
	var rowCount int64
	completed := false
	open := func(backCols []tdf.ColumnMeta) (err error) {
		if p.cols == nil {
			return failf(tdp.CodeObjectNotFound, "unexpected result set from backend")
		}
		if plan, err = p.conv.plan(p.cols, backCols); err != nil {
			return conversionFailure(err)
		}
		if err = sink.begin(plan.cols); err == nil {
			sets++
			rowCount = 0
		}
		return err
	}
	for {
		ev, err := src.Next(ctx)
		if err != nil {
			if errors.Is(err, io.EOF) {
				if completed && plan == nil {
					return sets, convert, nil
				}
				err = fmt.Errorf("backend stream ended without statement completion: %w", io.ErrUnexpectedEOF)
			}
			return sets, convert, err
		}
		switch ev.Kind {
		case cwp.StreamMeta:
			err = open(ev.Cols)
		case cwp.StreamBatch:
			if plan == nil { // rows without a metadata event: the batch describes itself
				if err = open(ev.Batch.Cols); err != nil {
					break
				}
			}
			var n int
			n, err = s.deliverBatch(plan, ev.Batch, sink, &convert)
			rowCount += int64(n)
			s.req.rowsOut += int64(n)
		case cwp.StreamComplete:
			activity := ev.Affected
			if plan != nil {
				activity = rowCount
			}
			err = sink.end(activity, cmp.Or(p.cmd, ev.Command))
			plan, completed = nil, true
		}
		if err != nil {
			return sets, convert, err
		}
	}
}
