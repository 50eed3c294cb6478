package hyperq

import (
	"fmt"

	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/xtra"
)

// convertPlan is the Result Converter (§4.6) compiled for one statement:
// the frontend column definitions and whether the backend's declared column
// types already are the frontend's. A batch is converted into one datum slab
// — or not at all when every cell already is what the frontend expects. A
// plan never writes to the batch it converts: a batch replayed from a
// materialized result (odbc.BufferStream) is shared between requests.
type convertPlan struct {
	cols []tdp.ColumnDef
	// identity: every backend column is declared with its frontend type, so
	// a batch whose cells carry the kinds its columns declare passes through.
	identity bool
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
	}
	for i, c := range frontCols {
		p.cols[i] = tdp.ColumnDef{Name: c.Name, Type: c.Type}
		back := backCols[i].Type
		if back.Kind != c.Type.Kind || back.Kind == types.KindDecimal && back.Scale != c.Type.Scale {
			p.identity = false
		}
	}
	return p, nil
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
// order. The result aliases b when nothing needs converting and is one fresh
// slab otherwise; b itself is never written to.
func (p *convertPlan) convertBatch(b *tdf.Batch) ([][]types.Datum, error) {
	if len(b.Rows) == 0 {
		return nil, nil
	}
	if p.passthrough(b.Rows) {
		return b.Rows, nil
	}
	ncols := len(p.cols)
	slab := make([]types.Datum, len(b.Rows)*ncols)
	out := make([][]types.Datum, len(b.Rows))
	for ri, row := range b.Rows {
		if len(row) != ncols {
			return nil, fmt.Errorf("row arity %d != %d", len(row), ncols)
		}
		conv := slab[ri*ncols : (ri+1)*ncols : (ri+1)*ncols]
		out[ri] = conv
		for ci := range row {
			d, want := &row[ci], &p.cols[ci].Type
			switch {
			case isFront(d, want):
				conv[ci] = *d
			case d.Null:
				conv[ci].K, conv[ci].Null = want.Kind, true
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

// convertResult is the buffered Result Converter (§4.6): backend TDF batches
// are buffered through the Result Store (spilling to disk past the memory
// budget, since the frontend protocol announces row counts up front) and
// converted into the frontend's column types and names.
func (s *Session) convertResult(frontCols []xtra.Col, br *cwp.StatementResult) ([]tdp.ColumnDef, [][]types.Datum, error) {
	plan, err := newConvertPlan(frontCols, br.Cols)
	if err != nil {
		return nil, nil, err
	}
	// Buffer batches through the Result Store.
	store := tdf.NewStore(s.g.cfg.ResultBudget)
	defer store.Close()
	for _, b := range br.Batches {
		if err := store.Append(b); err != nil {
			return nil, nil, err
		}
	}
	if err := store.Seal(); err != nil {
		return nil, nil, err
	}
	// Convert inside the drain callback so only one batch is resident at a
	// time — collecting the batches first would re-materialize everything the
	// store just spilled.
	rows := make([][]types.Datum, 0, store.TotalRows())
	if err := store.Drain(func(b *tdf.Batch) error {
		converted, err := plan.convertBatch(b)
		if err != nil {
			return err
		}
		rows = append(rows, converted...)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return plan.cols, rows, nil
}
