package tdp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"hyperq/internal/tdf"
	"hyperq/internal/types"
)

// wideRaw is wideRows as the backend sends it, a raw TDF batch: qty as
// BIGINT, price as DECIMAL(12,4) and code as VARCHAR(20) — the three columns
// perf's result_stream rewidths and pads — with the ops that make the
// frontend's records of it.
func wideRaw(t testing.TB, n int) ([]ColumnDef, *tdf.Batch, []FieldOp) {
	t.Helper()
	cols, rows, _ := wideRows(n)
	back := &tdf.Batch{}
	ops := make([]FieldOp, len(cols))
	for i, c := range cols {
		bt := c.Type
		switch c.Name {
		case "qty":
			bt = types.BigInt
		case "price":
			bt = types.Decimal(12, 4)
		case "code":
			bt = types.VarChar(20)
		}
		back.Cols = append(back.Cols, tdf.ColumnMeta{Name: c.Name, Type: bt})
		switch {
		case bt.Kind == types.KindDecimal && bt.Scale != c.Type.Scale:
			ops[i] = Rescale(bt.Scale, c.Type.Scale)
		case bt.Kind == types.KindVarChar && c.Type.Kind == types.KindChar:
			ops[i] = Pad(c.Type.Length)
		default:
			ops[i], _ = Splice(c.Type.Kind)
		}
	}
	for _, row := range rows {
		brow := append([]types.Datum(nil), row...)
		if !brow[4].Null {
			brow[4] = types.NewDecimal(brow[4].I*100, 4)
		}
		if !brow[7].Null {
			brow[7] = types.NewString(brow[7].S[:4+len(back.Rows)%16])
		}
		brow[2].K, brow[7].K = types.KindBigInt, types.KindVarChar
		back.Rows = append(back.Rows, brow)
	}
	var enc bytes.Buffer
	if err := back.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	raw, _, err := tdf.Adopt(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return cols, raw, ops
}

func BenchmarkTranscode(b *testing.B) {
	cols, raw, ops := wideRaw(b, 1024)
	w := &respWriter{out: bufio.NewWriterSize(io.Discard, responseBufferSize), cols: cols}
	b.SetBytes(int64(raw.EncodedSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Transcode(raw, ops); err != nil {
			b.Fatal(err)
		}
	}
}

// castRows is the Datum path's answer for back rows sent as cols: each cell
// as it is when it already has its column's kind (and DECIMAL scale), cast
// otherwise.
func castRows(t testing.TB, cols []ColumnDef, back [][]types.Datum) [][]types.Datum {
	t.Helper()
	out := make([][]types.Datum, len(back))
	for ri, row := range back {
		out[ri] = make([]types.Datum, len(row))
		for ci, d := range row {
			want := cols[ci].Type
			if d.K == want.Kind && (d.Null || want.Kind != types.KindDecimal || int(d.Scale) == want.Scale) {
				out[ri][ci] = d
				continue
			}
			c, err := types.Cast(d, want)
			if err != nil {
				t.Fatal(err)
			}
			out[ri][ci] = c
		}
	}
	return out
}

// Transcode writes the bytes Row writes for the cast rows, through buffers
// small enough that records run across many flushes and one record (a 100 KB
// string) outgrows the whole buffer.
func TestTranscodeMatchesRow(t *testing.T) {
	cols, raw, ops := wideRaw(t, 300)
	rr, _ := raw.Raw()
	decoded, err := tdf.DecodeBytes(rr.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	decoded.Rows[150][9] = types.NewString(strings.Repeat("x", 100<<10))
	var enc bytes.Buffer
	if err := decoded.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if raw, _, err = tdf.Adopt(enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{4 << 10, responseBufferSize} {
		var got, want bytes.Buffer
		tw := &respWriter{out: bufio.NewWriterSize(&got, size), cols: cols}
		rw := &respWriter{out: bufio.NewWriterSize(&want, size), cols: cols}
		if err := tw.Transcode(raw, ops); err != nil {
			t.Fatal(err)
		}
		for _, row := range castRows(t, cols, decoded.Rows) {
			if err := rw.Row(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := errors.Join(tw.out.Flush(), rw.out.Flush()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d-byte buffer: transcoded %d bytes differ from the %d Row wrote", size, got.Len(), want.Len())
		}
	}
	// An op that cannot read its column's cells is refused before anything
	// is written.
	bad := append([]FieldOp(nil), ops...)
	bad[8], _ = Splice(types.KindBigInt)
	var out bytes.Buffer
	if err := (&respWriter{out: bufio.NewWriter(&out), cols: cols}).Transcode(raw, bad); err == nil || out.Len() != 0 {
		t.Errorf("a BIGINT op over a VARCHAR column: err %v, %d bytes written", err, out.Len())
	}
}
