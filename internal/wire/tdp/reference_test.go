package tdp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"hyperq/internal/types"
	"hyperq/internal/wire"
)

// encodeRow is the per-cell row encoder appendRecord replaced, kept as the
// reference oracle: it returns a record's payload (bitmap + fields) built
// through wire.Buffer.
func encodeRow(cols []ColumnDef, row []types.Datum) ([]byte, error) {
	if len(row) != len(cols) {
		return nil, fmt.Errorf("tdp: row arity %d != %d", len(row), len(cols))
	}
	bitmap := make([]byte, (len(cols)+7)/8)
	var b wire.Buffer
	for i, d := range row {
		if d.Null {
			bitmap[i/8] |= 1 << (7 - i%8)
		}
	}
	b.PutBytes(bitmap)
	for i, d := range row {
		if d.Null {
			continue
		}
		switch cols[i].Type.Kind {
		case types.KindBool:
			b.PutU8(uint8(d.I))
		case types.KindInt:
			b.PutU32(uint32(int32(d.I)))
		case types.KindBigInt, types.KindTimestamp, types.KindInterval:
			b.PutI64(d.I)
		case types.KindDecimal:
			b.PutI64(d.DecimalScaled(cols[i].Type.Scale))
		case types.KindFloat:
			b.PutU64(math.Float64bits(d.F))
		case types.KindDate:
			b.PutU32(uint32(int32(types.TeradataDateInt(d))))
		case types.KindTime:
			b.PutU32(uint32(int32(d.I)))
		case types.KindChar, types.KindVarChar, types.KindBytes:
			b.PutString(d.S)
		case types.KindPeriod:
			b.PutI64(d.PStart)
			b.PutI64(d.PEnd)
		default:
			return nil, fmt.Errorf("tdp: cannot encode kind %v", cols[i].Type.Kind)
		}
	}
	return b.Bytes(), nil
}

// referenceRecord is the frame the old Row put on the wire.
func referenceRecord(t testing.TB, cols []ColumnDef, row []types.Datum) []byte {
	t.Helper()
	p, err := encodeRow(cols, row)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, MsgRecord, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRowEncodingMatchesReference(t *testing.T) {
	type cell struct {
		typ  types.T
		vals []types.Datum
	}
	cells := []cell{
		{types.T{Kind: types.KindBool}, []types.Datum{types.NewBool(true), types.NewBool(false)}},
		{types.Int, []types.Datum{types.NewInt(0), types.NewInt(math.MinInt32), types.NewInt(math.MaxInt32)}},
		{types.BigInt, []types.Datum{types.NewBigInt(math.MinInt64), types.NewBigInt(math.MaxInt64)}},
		{types.Float, []types.Datum{types.NewFloat(-0.85), types.NewFloat(math.Inf(1)), types.NewFloat(math.NaN())}},
		// Same scale, rescale up, rescale down, and non-DECIMAL datums in a
		// DECIMAL column (DecimalScaled accepts all of them).
		{types.Decimal(12, 2), []types.Datum{
			types.NewDecimal(-12345, 2), types.NewDecimal(7, 0), types.NewDecimal(123456789, 4),
			types.NewInt(42), types.NewFloat(1.005),
		}},
		{types.Char(6), []types.Datum{types.NewChar("ab    "), types.NewChar("")}},
		{types.VarChar(50), []types.Datum{types.NewString("héllo wörld"), types.NewString("")}},
		{types.T{Kind: types.KindBytes}, []types.Datum{types.NewBytes([]byte{0, 0xff, 0x16, 0}), types.NewBytes(nil)}},
		{types.Date, []types.Datum{
			types.NewDate(1, 1, 1), types.NewDate(1899, 12, 31), types.NewDate(1900, 1, 1),
			types.NewDate(2014, 1, 1), types.NewDate(9999, 12, 31),
		}},
		{types.T{Kind: types.KindTime}, []types.Datum{types.NewTime(0), types.NewTime(86399)}},
		{types.Timestamp, []types.Datum{types.NewTimestamp(-1), types.NewTimestamp(1234567890123456)}},
		{types.T{Kind: types.KindInterval}, []types.Datum{types.NewInterval(-86400e6), types.NewInterval(1)}},
		{types.Period(types.KindDate), []types.Datum{
			types.NewPeriod(types.KindDate, types.EncodeDate(2020, 1, 1), types.EncodeDate(2020, 6, 30)),
		}},
		{types.Period(types.KindTimestamp), []types.Datum{types.NewPeriod(types.KindTimestamp, -5, 1<<50)}},
	}
	// One row per round: every column takes its round'th value (cycling), and
	// in odd rounds every other column is NULL, so the bitmap sees all-set,
	// none-set and mixed bytes across its two bytes.
	cols := make([]ColumnDef, len(cells))
	for i, c := range cells {
		cols[i] = ColumnDef{Name: fmt.Sprintf("c%d", i), Type: c.typ}
	}
	check := func(name string, cols []ColumnDef, row []types.Datum) {
		t.Helper()
		want := referenceRecord(t, cols, row)
		prefix := []byte("earlier parcels")
		got, err := appendRecord(append([]byte(nil), prefix...), cols, row)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: record differs\n got  %x\n want %x", name, got[len(prefix):], want)
		}
	}
	for round := 0; round < 6; round++ {
		row := make([]types.Datum, len(cells))
		for i, c := range cells {
			row[i] = c.vals[round%len(c.vals)]
			if round == 5 || round%2 == 1 && i%2 == round/2%2 {
				row[i] = types.NewNull(c.typ.Kind)
			}
		}
		check(fmt.Sprintf("round %d", round), cols, row)
	}
	// Each kind alone, non-NULL and NULL: a one-column row's bitmap byte.
	for i, c := range cells {
		for _, v := range append(c.vals, types.NewNull(c.typ.Kind)) {
			check(fmt.Sprintf("%v alone (%v)", c.typ.Kind, v), cols[i:i+1], []types.Datum{v})
		}
	}
	check("no columns", nil, nil)

	// Errors leave the destination as it was.
	dst := []byte("kept")
	if got, err := appendRecord(dst, cols[:2], []types.Datum{types.NewInt(1)}); err == nil || string(got) != "kept" {
		t.Errorf("arity mismatch: got %q, %v", got, err)
	}
	bad := []ColumnDef{{Name: "n", Type: types.T{Kind: types.KindNull}}}
	if got, err := appendRecord(dst, bad, []types.Datum{{K: types.KindNull}}); err == nil || string(got) != "kept" {
		t.Errorf("unencodable kind: got %q, %v", got, err)
	}
	if _, err := encodeRow(bad, []types.Datum{{K: types.KindNull}}); err == nil {
		t.Error("reference accepts an unencodable kind")
	}
}

// wideRows is the benchmark fixture: a 1,024-row batch of the 13-column
// shape perf's result_stream returns, a tenth of the nullable cells NULL.
func wideRows(n int) ([]ColumnDef, [][]types.Datum, int) {
	cols := []ColumnDef{
		{Name: "id", Type: types.Int}, {Name: "big", Type: types.BigInt}, {Name: "qty", Type: types.Int},
		{Name: "score", Type: types.Float}, {Name: "price", Type: types.Decimal(12, 2)},
		{Name: "d", Type: types.Date}, {Name: "ts", Type: types.Timestamp}, {Name: "code", Type: types.Char(20)},
		{Name: "n1", Type: types.VarChar(50)}, {Name: "n2", Type: types.VarChar(50)}, {Name: "n3", Type: types.VarChar(50)},
		{Name: "n4", Type: types.VarChar(50)}, {Name: "n5", Type: types.VarChar(50)},
	}
	const text = "the quick brown fox jumps over the lazy dog 0123456789"
	rows := make([][]types.Datum, n)
	size := 0
	for i := range rows {
		row := []types.Datum{
			types.NewInt(int64(i)), types.NewBigInt(int64(i) << 33), types.NewInt(int64(i % 977)),
			types.NewFloat(float64(i) * 1.5), types.NewDecimal(int64(i)*100, 2),
			types.NewDate(1990+i%40, 1+i%12, 1+i%28), types.NewTimestamp(int64(i) * 1e9), types.NewChar(text[:20]),
			types.NewString(text[:30+i%20]), types.NewString(text[:30+i%19]), types.NewString(text[:30+i%17]),
			types.NewString(text[:30+i%13]), types.NewString(text[:30+i%11]),
		}
		for c := 1; c < len(row); c++ {
			if (i+c)%10 == 0 {
				row[c] = types.NewNull(row[c].K)
			}
		}
		p, _ := encodeRow(cols, row)
		size += 5 + len(p)
		rows[i] = row
	}
	return cols, rows, size
}

func BenchmarkRow(b *testing.B) {
	cols, rows, size := wideRows(1024)
	w := &respWriter{out: bufio.NewWriterSize(io.Discard, 32<<10), cols: cols}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			if err := w.Row(row); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Row allocates nothing, however many rows a batch has.
func TestRowAllocsPerBatch(t *testing.T) {
	for _, n := range []int{256, 1024} {
		cols, rows, _ := wideRows(n)
		w := &respWriter{out: bufio.NewWriterSize(io.Discard, 32<<10), cols: cols}
		allocs := testing.AllocsPerRun(20, func() {
			for _, row := range rows {
				if err := w.Row(row); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs > 0 {
			t.Errorf("%d rows: %.1f allocations per batch, want 0", n, allocs)
		}
	}
}
