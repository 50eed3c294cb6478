package hyperq

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/xtra"
)

// convertPlan is the Result Converter (§4.6) compiled for one statement:
// the frontend column definitions, whether the backend's declared column
// types already are the frontend's, and — when every column pair is one the
// transcoder handles — one tdp.FieldOp per column. A raw batch (tdf.Batch.Raw:
// read off the wire for this request) goes to a sink that writes records
// straight from its TDF bytes with those ops. Every other batch is converted
// as Datums: not at all when every cell already is what the frontend expects;
// otherwise an owned batch (tdf.Batch.Owned: decoded off the wire for this
// request) where it lies and a shared one — a hand-built batch replayed from a
// materialized result (odbc.BufferStream) serves any number of requests —
// into one fresh datum slab, never written to.
type convertPlan struct {
	cols []tdp.ColumnDef
	// identity: every backend column is declared with its frontend type, so
	// a batch whose cells carry the kinds its columns declare passes through.
	identity bool
	// back is the backend columns ops was compiled for; ops is nil when a
	// column needs a cast.
	back []tdf.ColumnMeta
	ops  []tdp.FieldOp
}

// newConvertPlan compiles the plan for a result the backend describes as
// backCols and the client was promised as frontCols.
func newConvertPlan(frontCols []xtra.Col, backCols []tdf.ColumnMeta) (*convertPlan, error) {
	if len(backCols) != len(frontCols) {
		return nil, fmt.Errorf("backend returned %d columns, expected %d", len(backCols), len(frontCols))
	}
	p := &convertPlan{
		cols:     make([]tdp.ColumnDef, len(frontCols)),
		identity: true,
		back:     backCols,
		ops:      make([]tdp.FieldOp, len(frontCols)),
	}
	for i, c := range frontCols {
		p.cols[i] = tdp.ColumnDef{Name: c.Name, Type: c.Type}
		back := backCols[i].Type
		if back.Kind != c.Type.Kind || back.Kind == types.KindDecimal && back.Scale != c.Type.Scale {
			p.identity = false
		}
		op, ok := fieldOp(back, c.Type)
		if !ok {
			p.ops = nil
		} else if p.ops != nil {
			p.ops[i] = op
		}
	}
	return p, nil
}

// fieldOp classifies a column the backend sends as back and the frontend
// expects as front, for the transcoder: the op that writes the field
// convertBatch and appendRecord would write for a cell of back, or ok false
// when only a types.Cast can say (the column's class is cast).
//   - splice: the same kind (at the same scale, for DECIMAL). Strings are
//     copied as they are: isFront never pads a CHAR cell.
//   - rewidth: INTEGER and BIGINT either way (Cast keeps the value, the field
//     keeps its low 32 bits for INTEGER), and DECIMAL at another scale
//     (DecimalScaled's multiply or truncating divide). Scales are the ones a
//     decoded cell carries (Datum.Scale is 8 bits); only 0–18 are rewidthed.
//   - pad: VARCHAR sent as CHAR(n), cut and blank-padded as Cast does.
func fieldOp(back, front types.T) (tdp.FieldOp, bool) {
	cellScale := int(int8(back.Scale))
	integer := func(k types.Kind) bool { return k == types.KindInt || k == types.KindBigInt }
	switch {
	case back.Kind == front.Kind && (back.Kind != types.KindDecimal || cellScale == front.Scale):
		return tdp.Splice(front.Kind)
	case integer(back.Kind) && integer(front.Kind):
		return tdp.Splice(front.Kind)
	case back.Kind == types.KindDecimal && front.Kind == types.KindDecimal &&
		cellScale >= 0 && cellScale <= 18 && front.Scale >= 0 && front.Scale <= 18:
		return tdp.Rescale(cellScale, front.Scale), true
	case back.Kind == types.KindVarChar && front.Kind == types.KindChar:
		return tdp.Pad(front.Length), true
	}
	return tdp.FieldOp{}, false
}

// transcodes returns the ops to write b with, or nil when b is converted as
// Datums: it is not raw, a column needs a cast, or its header declares other
// column types than the ones the ops were compiled for.
func (p *convertPlan) transcodes(b *tdf.Batch) []tdp.FieldOp {
	if _, raw := b.Raw(); !raw || p.ops == nil || len(b.Cols) != len(p.back) {
		return nil
	}
	for i := range b.Cols {
		if t, want := &b.Cols[i].Type, &p.back[i].Type; t.Kind != want.Kind || t.Scale != want.Scale {
			return nil
		}
	}
	return p.ops
}

// isFront reports whether the cell already is a value of the frontend type.
func isFront(d *types.Datum, want *types.T) bool {
	return d.K == want.Kind && (d.Null || want.Kind != types.KindDecimal || int(d.Scale) == want.Scale)
}

// passthrough reports whether the batch's rows can go to the frontend as
// they are. The column types only say it is worth looking: an in-process
// backend's cells are whatever its expressions produced, so each one is
// checked against the frontend type.
func (p *convertPlan) passthrough(rows [][]types.Datum) bool {
	if !p.identity {
		return false
	}
	for _, row := range rows {
		if len(row) != len(p.cols) {
			return false
		}
		for ci := range row {
			if !isFront(&row[ci], &p.cols[ci].Type) {
				return false
			}
		}
	}
	return true
}

// convertBatch returns the batch's rows in the frontend's column types, in
// order, decoding a raw batch first. The result aliases b when nothing needs
// converting or b is owned — the cells that need a cast are then overwritten
// in b — and is one fresh slab otherwise.
func (p *convertPlan) convertBatch(b *tdf.Batch) ([][]types.Datum, error) {
	b.DecodeRows()
	if len(b.Rows) == 0 {
		return nil, nil
	}
	if p.passthrough(b.Rows) {
		return b.Rows, nil
	}
	ncols := len(p.cols)
	inPlace := b.Owned()
	out := b.Rows
	var slab []types.Datum
	if !inPlace {
		slab = make([]types.Datum, len(b.Rows)*ncols)
		out = make([][]types.Datum, len(b.Rows))
	}
	for ri, row := range b.Rows {
		if len(row) != ncols {
			return nil, fmt.Errorf("row arity %d != %d", len(row), ncols)
		}
		conv := row
		if !inPlace {
			conv = slab[ri*ncols : (ri+1)*ncols : (ri+1)*ncols]
			out[ri] = conv
		}
		for ci := range row {
			d, want := &row[ci], &p.cols[ci].Type
			switch {
			case isFront(d, want):
				if !inPlace {
					conv[ci] = *d
				}
			case d.Null:
				conv[ci] = types.Datum{K: want.Kind, Null: true}
			default:
				cast, err := types.Cast(*d, *want)
				if err != nil {
					return nil, fmt.Errorf("column %s: %v", p.cols[ci].Name, err)
				}
				conv[ci] = cast
			}
		}
	}
	return out, nil
}

// deliverBatch hands one batch to sink, transcoded when the sink can write it
// that way and converted as Datums otherwise, adds the time that took to
// convert — the whole transcode, which writes as it converts — and returns
// the rows delivered. Conversion failures come back as *RequestError.
func (p *convertPlan) deliverBatch(b *tdf.Batch, sink resultSink, convert *time.Duration) (int, error) {
	t0 := time.Now()
	if ops := p.transcodes(b); ops != nil {
		done, err := sink.transcode(b, ops)
		if done {
			*convert += time.Since(t0)
			if err != nil {
				return 0, err
			}
			return b.Len(), nil
		}
	}
	rows, err := p.convertBatch(b)
	*convert += time.Since(t0)
	if err != nil {
		return 0, failf(tdp.CodeObjectNotFound, "result conversion: %v", err)
	}
	if err := sink.rows(rows); err != nil {
		return 0, err
	}
	return len(rows), nil
}

// resultSink takes one backend request's converted results statement by
// statement: begin opens a result set, end closes the statement (with or
// without one). transcode writes a raw batch's rows with the plan's ops if
// the sink can (the wire can, the collector cannot); when it did not, the
// batch goes to rows as Datums.
type resultSink interface {
	begin(cols []tdp.ColumnDef) error
	transcode(b *tdf.Batch, ops []tdp.FieldOp) (done bool, err error)
	rows(rows [][]types.Datum) error
	end(activity int64, command string) error
}

// collector is the resultSink that materializes results as FrontResults:
// local sessions, DML/DDL, everything inside a composite.
type collector struct {
	out []*FrontResult
	cur FrontResult // the statement being delivered
}

func (c *collector) begin(cols []tdp.ColumnDef) error {
	c.cur.Cols = cols
	return nil
}

func (c *collector) transcode(*tdf.Batch, []tdp.FieldOp) (bool, error) { return false, nil }

func (c *collector) rows(rows [][]types.Datum) error {
	c.cur.Rows = append(c.cur.Rows, rows...)
	return nil
}

func (c *collector) end(activity int64, command string) error {
	fr := c.cur
	fr.Activity, fr.Command = activity, command
	c.out, c.cur = append(c.out, &fr), FrontResult{}
	return nil
}

// eventSource is what deliver reads: an odbc.ResultStream, or the fetch stage
// in front of one.
type eventSource interface {
	Next(ctx context.Context) (cwp.StreamEvent, error)
}

// deliver is the gateway's one result path: it drains one backend request's
// event stream into sink, compiling each result set's convertPlan from its
// metadata, converting batch by batch and counting rows; cmd is the frontend
// activity name, "" for the backend's command tag. A stream may only end
// after the Complete of every statement it opened — a producer that stops
// short (deadline, cancel, backend death) is an error here, never a short
// result. It returns the result sets opened and the time spent converting.
// Conversion failures come back as *RequestError; sink and producer failures
// as they are.
func (s *Session) deliver(ctx context.Context, src eventSource, frontCols []xtra.Col, cmd string, sink resultSink) (sets int64, convert time.Duration, _ error) {
	var plan *convertPlan // non-nil while a result set is open
	var rowCount int64
	completed := false
	open := func(backCols []tdf.ColumnMeta) (err error) {
		if frontCols == nil {
			return failf(tdp.CodeObjectNotFound, "unexpected result set from backend")
		}
		if plan, err = newConvertPlan(frontCols, backCols); err != nil {
			return failf(tdp.CodeObjectNotFound, "result conversion: %v", err)
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
			n, err = plan.deliverBatch(ev.Batch, sink, &convert)
			rowCount += int64(n)
			s.req.rowsOut += int64(n)
		case cwp.StreamComplete:
			activity := ev.Affected
			if plan != nil {
				activity = rowCount
			}
			err = sink.end(activity, cmp.Or(cmd, ev.Command))
			plan, completed = nil, true
		}
		if err != nil {
			return sets, convert, err
		}
	}
}
