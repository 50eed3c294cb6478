package tdf

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hyperq/internal/types"
)

func sampleBatch() *Batch {
	return &Batch{
		Cols: []ColumnMeta{
			{Name: "id", Type: types.Int},
			{Name: "name", Type: types.VarChar(20)},
			{Name: "amount", Type: types.Decimal(12, 2)},
			{Name: "when", Type: types.Date},
			{Name: "ratio", Type: types.Float},
			{Name: "span", Type: types.Period(types.KindDate)},
		},
		Rows: [][]types.Datum{
			{
				types.NewInt(1), types.NewString("alice"), types.NewDecimal(12345, 2),
				types.NewDate(2014, 1, 1), types.NewFloat(0.85),
				types.NewPeriod(types.KindDate, types.EncodeDate(2020, 1, 1), types.EncodeDate(2020, 6, 30)),
			},
			{
				types.NewInt(2), types.NewNull(types.KindVarChar), types.NewNull(types.KindDecimal),
				types.NewNull(types.KindDate), types.NewFloat(math.Inf(1)),
				types.NewNull(types.KindPeriod),
			},
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := sampleBatch()
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != len(b.Cols) || len(got.Rows) != len(b.Rows) {
		t.Fatalf("shape = %d cols %d rows", len(got.Cols), len(got.Rows))
	}
	for i, c := range got.Cols {
		if c.Name != b.Cols[i].Name || c.Type.Kind != b.Cols[i].Type.Kind {
			t.Errorf("col %d = %+v, want %+v", i, c, b.Cols[i])
		}
	}
	for ri, row := range got.Rows {
		for ci, d := range row {
			want := b.Rows[ri][ci]
			if d.Null != want.Null {
				t.Errorf("row %d col %d null mismatch", ri, ci)
				continue
			}
			if !d.Null && d.String() != want.String() {
				t.Errorf("row %d col %d = %s, want %s", ri, ci, d, want)
			}
		}
	}
	// Decimal scale must survive.
	if got.Rows[0][2].String() != "123.45" {
		t.Errorf("decimal = %s", got.Rows[0][2])
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a tdf batch......"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestEncodeRejectsArityMismatch(t *testing.T) {
	b := &Batch{
		Cols: []ColumnMeta{{Name: "a", Type: types.Int}},
		Rows: [][]types.Datum{{types.NewInt(1), types.NewInt(2)}},
	}
	if err := b.Encode(&bytes.Buffer{}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// A present cell must have its column's kind — INTEGER and BIGINT, and CHAR
// and VARCHAR, standing for each other — and a DECIMAL its column's scale:
// the column's encoding would write anything else as some other value. The
// error names the column.
func TestEncodeRejectsKindMismatch(t *testing.T) {
	for _, tc := range []struct {
		col  types.T
		cell types.Datum
		ok   bool
	}{
		{types.Int, types.NewString("7"), false},
		{types.BigInt, types.NewFloat(7), false},
		{types.Float, types.NewInt(7), false},
		{types.VarChar(9), types.NewInt(7), false},
		{types.Date, types.NewTimestamp(7), false},
		{types.Decimal(12, 2), types.NewDecimal(7, 4), false},
		{types.Int, types.NewBigInt(7), true},
		{types.BigInt, types.NewInt(7), true},
		{types.Char(3), types.NewString("abc"), true},
		{types.VarChar(3), types.NewChar("abc"), true},
		{types.Decimal(12, 2), types.NewDecimal(7, 2), true},
		{types.Int, types.NewNull(types.KindVarChar), true},
	} {
		b := &Batch{
			Cols: []ColumnMeta{{Name: "k", Type: types.Int}, {Name: "v", Type: tc.col}},
			Rows: [][]types.Datum{{types.NewInt(1), tc.cell}},
		}
		err := b.Encode(&bytes.Buffer{})
		if ok := err == nil; ok != tc.ok {
			t.Errorf("%v cell in a %v column: err %v, want ok %v", tc.cell.K, tc.col, err, tc.ok)
		} else if !ok && !strings.Contains(err.Error(), "column v") {
			t.Errorf("%v cell in a %v column: %v does not name the column", tc.cell.K, tc.col, err)
		}
	}
}

// Property: integer batches always round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(vals []int64, strs []string) bool {
		n := len(vals)
		if len(strs) < n {
			n = len(strs)
		}
		b := &Batch{Cols: []ColumnMeta{
			{Name: "v", Type: types.BigInt},
			{Name: "s", Type: types.VarChar(0)},
		}}
		for i := 0; i < n; i++ {
			b.Rows = append(b.Rows, []types.Datum{types.NewBigInt(vals[i]), types.NewString(strs[i])})
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || len(got.Rows) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got.Rows[i][0].I != vals[i] || got.Rows[i][1].S != strs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEncodedSizePositive(t *testing.T) {
	if sampleBatch().EncodedSize() <= 0 {
		t.Error("EncodedSize must be positive")
	}
	f := func(n uint8) bool {
		b := &Batch{Cols: []ColumnMeta{{Name: "x", Type: types.Int}}}
		for i := 0; i < int(n); i++ {
			b.Rows = append(b.Rows, []types.Datum{types.NewInt(int64(i))})
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			return false
		}
		// The estimate must be an upper bound of the actual encoding.
		return b.EncodedSize() >= buf.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColumnMetaEquality(t *testing.T) {
	a := ColumnMeta{Name: "x", Type: types.Decimal(10, 2)}
	b := ColumnMeta{Name: "x", Type: types.Decimal(10, 2)}
	if !reflect.DeepEqual(a, b) {
		t.Error("meta not comparable")
	}
}

// AdoptAs shares the columns it is given with a batch whose header describes
// them, parses the columns of a batch whose header does not, and refuses what
// Adopt refuses.
func TestAdoptAsSharesMatchingColumns(t *testing.T) {
	encode := func(b *Batch) []byte {
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := sampleBatch()
	other := &Batch{Cols: []ColumnMeta{{Name: "n", Type: types.Int}}, Rows: [][]types.Datum{{types.NewInt(7)}}}
	ra, _, err := Adopt(encode(a))
	if err != nil {
		t.Fatal(err)
	}
	rother, _, _ := Adopt(encode(other))
	want := ra.Cols
	b1, _, err := AdoptAs(encode(a), want)
	if err != nil {
		t.Fatal(err)
	}
	if &b1.Cols[0] != &want[0] {
		t.Error("the columns of a matching header were parsed again")
	}
	renamed := append([]ColumnMeta(nil), want...)
	renamed[len(renamed)-1].Name += "x"
	for _, cols := range [][]ColumnMeta{renamed, rother.Cols, nil} {
		b2, _, err := AdoptAs(encode(a), cols)
		if err != nil {
			t.Fatal(err)
		}
		if len(cols) > 0 && &b2.Cols[0] == &cols[0] || !reflect.DeepEqual(b2.Cols, want) {
			t.Fatalf("columns %+v for a header of %+v given %+v", b2.Cols, want, cols)
		}
	}
	b1.DecodeRows()
	ra.DecodeRows()
	if !reflect.DeepEqual(b1.Rows, ra.Rows) {
		t.Fatalf("rows %v, want Adopt's %v", b1.Rows, ra.Rows)
	}
	truncated := encode(a)
	if _, _, err := AdoptAs(truncated[:20], want); err == nil {
		t.Fatal("a truncated header was adopted")
	}
}
