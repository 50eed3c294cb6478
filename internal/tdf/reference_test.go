package tdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"hyperq/internal/israce"
	"hyperq/internal/types"
)

// referenceDecode is the per-cell io.Reader decoder DecodeBytes replaced,
// kept verbatim as the reference oracle — including its trust in the header:
// callers must not hand it a header whose counts the input cannot back.
func referenceDecode(r io.Reader) (*Batch, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return nil, fmt.Errorf("tdf: bad magic")
	}
	ncols := int(binary.LittleEndian.Uint32(hdr[4:]))
	nrows := int(binary.LittleEndian.Uint32(hdr[8:]))
	if ncols > 1<<16 || nrows > 1<<30 {
		return nil, fmt.Errorf("tdf: implausible header (%d cols, %d rows)", ncols, nrows)
	}
	b := &Batch{Cols: make([]ColumnMeta, ncols)}
	for i := 0; i < ncols; i++ {
		var ch [7]byte
		if _, err := io.ReadFull(r, ch[:]); err != nil {
			return nil, err
		}
		kind, err := tagToKind(ch[0])
		if err != nil {
			return nil, err
		}
		aux := int32(binary.LittleEndian.Uint32(ch[1:]))
		nameLen := int(binary.LittleEndian.Uint16(ch[5:]))
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, err
		}
		t := types.T{Kind: kind}
		switch kind {
		case types.KindDecimal:
			t.Scale = int(aux)
			t.Precision = 18
		case types.KindPeriod:
			ek, err := tagToKind(uint8(aux))
			if err != nil {
				return nil, err
			}
			t.Elem = ek
		}
		b.Cols[i] = ColumnMeta{Name: string(name), Type: t}
	}
	b.Rows = make([][]types.Datum, nrows)
	for ri := 0; ri < nrows; ri++ {
		row := make([]types.Datum, ncols)
		for ci := 0; ci < ncols; ci++ {
			d, err := decodeDatum(r, b.Cols[ci].Type)
			if err != nil {
				return nil, err
			}
			row[ci] = d
		}
		b.Rows[ri] = row
	}
	return b, nil
}

func decodeDatum(r io.Reader, t types.T) (types.Datum, error) {
	var p [1]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return types.Datum{}, err
	}
	if p[0] == 0 {
		return types.NewNull(t.Kind), nil
	}
	var buf [16]byte
	switch t.Kind {
	case types.KindBool, types.KindInt, types.KindBigInt, types.KindDate,
		types.KindTime, types.KindTimestamp, types.KindDecimal, types.KindInterval:
		if _, err := io.ReadFull(r, buf[:8]); err != nil {
			return types.Datum{}, err
		}
		d := types.Datum{K: t.Kind, I: int64(binary.LittleEndian.Uint64(buf[:8]))}
		if t.Kind == types.KindDecimal {
			d.Scale = int8(t.Scale)
		}
		return d, nil
	case types.KindFloat:
		if _, err := io.ReadFull(r, buf[:8]); err != nil {
			return types.Datum{}, err
		}
		return types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))), nil
	case types.KindChar, types.KindVarChar, types.KindBytes:
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return types.Datum{}, err
		}
		n := binary.LittleEndian.Uint32(buf[:4])
		if n > 1<<28 {
			return types.Datum{}, fmt.Errorf("tdf: implausible string length %d", n)
		}
		s := make([]byte, n)
		if _, err := io.ReadFull(r, s); err != nil {
			return types.Datum{}, err
		}
		return types.Datum{K: t.Kind, S: string(s)}, nil
	case types.KindPeriod:
		if _, err := io.ReadFull(r, buf[:16]); err != nil {
			return types.Datum{}, err
		}
		return types.NewPeriod(t.Elem,
			int64(binary.LittleEndian.Uint64(buf[:8])),
			int64(binary.LittleEndian.Uint64(buf[8:]))), nil
	case types.KindNull:
		return types.NewNull(types.KindNull), nil
	}
	return types.Datum{}, fmt.Errorf("tdf: cannot decode kind %v", t.Kind)
}

// allKindsBatch has a column of each of the 14 kinds and three rows: all
// present, all NULL, and boundary values.
func allKindsBatch() *Batch {
	kinds := []types.T{
		{Kind: types.KindNull}, {Kind: types.KindBool}, types.Int, types.BigInt, types.Float,
		types.Decimal(18, 4), types.Char(4), types.VarChar(40), types.Date, {Kind: types.KindTime},
		types.Timestamp, types.Period(types.KindTimestamp), {Kind: types.KindBytes}, {Kind: types.KindInterval},
	}
	b := &Batch{}
	nulls := make([]types.Datum, len(kinds))
	for i, t := range kinds {
		b.Cols = append(b.Cols, ColumnMeta{Name: fmt.Sprintf("col_%d", i), Type: t})
		nulls[i] = types.NewNull(t.Kind)
	}
	b.Rows = [][]types.Datum{
		{
			types.NewNull(types.KindNull), types.NewBool(true), types.NewInt(-7), types.NewBigInt(1 << 40),
			types.NewFloat(0.85), types.NewDecimal(-123456, 4), types.NewChar("ab  "), types.NewString("héllo"),
			types.NewDate(2014, 1, 1), types.NewTime(86399), types.NewTimestamp(1234567890123456),
			types.NewPeriod(types.KindTimestamp, -5, 1<<50), types.NewBytes([]byte{0, 0xff, 1}), types.NewInterval(-1),
		},
		nulls,
		{
			types.NewNull(types.KindNull), types.NewBool(false), types.NewInt(math.MinInt32), types.NewBigInt(math.MinInt64),
			types.NewFloat(math.Inf(-1)), types.NewDecimal(math.MaxInt64, 4), types.NewChar(""), types.NewString(""),
			types.NewDate(9999, 12, 31), types.NewTime(0), types.NewTimestamp(math.MinInt64),
			types.NewPeriod(types.KindTimestamp, 0, 0), types.NewBytes(nil), types.NewInterval(math.MaxInt64),
		},
	}
	return b
}

func mustEncode(t testing.TB, b *Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// headerBacked reports whether the counts in data's 12-byte header could be
// backed by the bytes after it (a column header is 7 bytes, a cell at least
// one). When they cannot, DecodeBytes must refuse before allocating, and the
// reference — which allocates what the header says — must not be run.
func headerBacked(data []byte) bool {
	if len(data) < 12 {
		return true
	}
	nc := uint64(binary.LittleEndian.Uint32(data[4:]))
	nr := uint64(binary.LittleEndian.Uint32(data[8:]))
	rest := uint64(len(data) - 12)
	return nc*7 <= rest && (nc != 0 || nr == 0) && nc*nr <= rest
}

// checkAgainstReference is the fuzz property: DecodeBytes and the reference
// agree — equal batches or both fail — and neither panics; and DecodeBytes
// gives the same answer when the memory it decodes into is a released batch's
// with every cell poisoned.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeBytes(data)
	if !headerBacked(data) {
		if err == nil {
			t.Fatalf("accepted a header the input cannot back: % x", data[:12])
		}
		return
	}
	rest := bytes.NewReader(data)
	want, werr := referenceDecode(rest)
	if werr == nil && rest.Len() > 0 {
		// The reference stops reading where its batch ends; DecodeBytes holds
		// its input to exactly one batch.
		werr = fmt.Errorf("%d bytes after the batch", rest.Len())
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("DecodeBytes error %v, reference error %v", err, werr)
	}
	if err != nil {
		return
	}
	requireSameBatch(t, got, want)
	if size := (&Batch{Cols: want.Cols, Rows: want.Rows}).EncodedSize(); got.EncodedSize() != size {
		t.Fatalf("EncodedSize counted at decode = %d, walked over the same batch = %d", got.EncodedSize(), size)
	}
	// Decode(io.Reader) is the same decoder.
	viaReader, err := Decode(bytes.NewReader(data))
	if err != nil || len(viaReader.Rows) != len(got.Rows) {
		t.Fatalf("Decode(io.Reader) disagrees with DecodeBytes: %v", err)
	}
	requireSameBatch(t, decodeRecycled(t, data, data), want)
	// Adopted with the columns its header describes, the batch shares them
	// and decodes alike.
	shared, _, err := AdoptAs(append([]byte(nil), data...), want.Cols)
	if err != nil {
		t.Fatalf("AdoptAs refused what DecodeBytes accepted: %v", err)
	}
	if len(want.Cols) > 0 && &shared.Cols[0] != &want.Cols[0] {
		t.Fatal("AdoptAs parsed columns equal to the ones it was given")
	}
	shared.DecodeRows()
	requireSameBatch(t, shared, want)
}

// requireSameBatch fails unless got is want, column for column and cell for
// cell, every field of every cell included.
func requireSameBatch(t *testing.T, got, want *Batch) {
	t.Helper()
	if !reflect.DeepEqual(got.Cols, want.Cols) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("shape differs:\n got  %+v, %d rows\n want %+v, %d rows", got.Cols, len(got.Rows), want.Cols, len(want.Rows))
	}
	for ri := range want.Rows {
		if len(got.Rows[ri]) != len(want.Rows[ri]) {
			t.Fatalf("row %d: %d cells, want %d", ri, len(got.Rows[ri]), len(want.Rows[ri]))
		}
		for ci := range want.Rows[ri] {
			g, w := got.Rows[ri][ci], want.Rows[ri][ci]
			// Compare FLOAT by bits: NaN payloads must survive, and NaN != NaN.
			if math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Fatalf("row %d col %d: float bits %x, want %x", ri, ci, math.Float64bits(g.F), math.Float64bits(w.F))
			}
			g.F, w.F = 0, 0
			if g != w {
				t.Fatalf("row %d col %d: %#v, want %#v", ri, ci, g, w)
			}
		}
	}
}

func mustReference(t *testing.T, enc []byte) *Batch {
	t.Helper()
	want, err := referenceDecode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// poison is a cell no decode produces: every field set, so a decoder that
// leaves any field of a recycled cell as it found it is caught.
var poison = types.Datum{K: 0xff, Null: true, I: -1, F: math.NaN(), S: "poison", Scale: -1, PStart: -1, PEnd: -1}

// decodeRecycled decodes dirty, poisons every cell and row header of its
// memory, releases it and decodes data into the memory that came back.
// sync.Pool does not promise to return what it was just handed (under the
// race detector it drops a quarter of all Puts), so it tries until it does.
func decodeRecycled(t *testing.T, dirty, data []byte) *Batch {
	t.Helper()
	for try := 0; try < 100; try++ {
		d, err := DecodeBytes(dirty)
		if err != nil {
			t.Fatal(err)
		}
		m := d.mem
		cells := m.cells[:cap(m.cells)]
		for i := range cells {
			cells[i] = poison
		}
		rows := m.rows[:cap(m.rows)]
		for i := range rows {
			rows[i] = cells[:0]
		}
		d.Release()
		got, err := DecodeBytes(data)
		if err != nil {
			t.Fatalf("decoding into released memory: %v", err)
		}
		if got.mem == m {
			return got
		}
	}
	t.Fatal("a released batch's memory never came back from the pool")
	return nil
}

// seedCorpus is the all-kinds batch, every truncation of it, and every
// single-bit flip of its 12-byte header and first column header.
func seedCorpus(t testing.TB) [][]byte {
	full := mustEncode(t, allKindsBatch())
	corpus := [][]byte{full, mustEncode(t, sampleBatch()), mustEncode(t, &Batch{})}
	for n := 0; n < len(full); n++ {
		corpus = append(corpus, full[:n])
	}
	for bit := 0; bit < (12+7)*8; bit++ {
		flipped := append([]byte(nil), full...)
		flipped[bit/8] ^= 1 << (bit % 8)
		corpus = append(corpus, flipped)
	}
	return corpus
}

func TestDecodeMatchesReference(t *testing.T) {
	for _, data := range seedCorpus(t) {
		checkAgainstReference(t, data)
	}
	got, err := DecodeBytes(mustEncode(t, allKindsBatch()))
	if err != nil {
		t.Fatal(err)
	}
	if want := allKindsBatch(); !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("all-kinds batch did not round-trip:\n got  %v\n want %v", got.Rows, want.Rows)
	}
}

// A decode into memory a wider, fuller batch left behind equals a decode into
// fresh memory: every field of every cell and every row header is stored,
// none inherited.
func TestDecodeIntoRecycledSlabMatchesReference(t *testing.T) {
	// Narrower and NULL-heavier than what it lands on: the all-kinds batch's
	// 14 columns straddle the wide batch's 13, and a third of its cells are
	// NULL where the wide batch held integers, floats and strings.
	wide, narrow := mustEncode(t, wideBatch(64)), mustEncode(t, allKindsBatch())
	got := decodeRecycled(t, wide, narrow)
	requireSameBatch(t, got, mustReference(t, narrow))
	if cap(got.mem.cells) < 64*13 {
		t.Fatalf("decoded into %d cells: not the wide batch's memory", cap(got.mem.cells))
	}
	for ri, row := range got.Rows {
		if len(row) != cap(row) {
			t.Errorf("row %d can grow into its neighbour: len %d cap %d", ri, len(row), cap(row))
		}
	}
	// A batch too large for what the pool hands out gets memory of its own.
	requireSameBatch(t, decodeRecycled(t, narrow, wide), mustReference(t, wide))
}

// Release is the owner's: it empties a decoded batch once, does nothing the
// second time and nothing at all to a batch nobody decoded.
func TestReleaseIsIdempotentAndSharedIsNoOp(t *testing.T) {
	shared := sampleBatch()
	if shared.mem != nil {
		t.Error("a hand-built batch claims to be owned")
	}
	shared.Release()
	if !reflect.DeepEqual(shared, sampleBatch()) {
		t.Error("Release changed a shared batch")
	}

	enc := mustEncode(t, sampleBatch())
	a, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if a.mem == nil {
		t.Fatal("a decoded batch is not owned")
	}
	size := a.EncodedSize()
	a.Release()
	if a.mem != nil || a.Rows != nil {
		t.Errorf("after Release: owned %v, %d rows", a.mem != nil, len(a.Rows))
	}
	if a.EncodedSize() != size {
		t.Errorf("EncodedSize %d after Release, %d before", a.EncodedSize(), size)
	}
	b, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	a.Release() // must not hand b's memory out a second time
	c, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if b.mem == c.mem || &b.Rows[0][0] == &c.Rows[0][0] {
		t.Fatal("two live batches share memory after a double Release")
	}
	requireSameBatch(t, b, mustReference(t, enc))
	requireSameBatch(t, c, mustReference(t, enc))
}

// The size a decoded batch reports is the size the accountant would have
// walked over the same rows — counted off the wire, so it stays what it was
// when the holder rewrites cells in place.
func TestDecodedSizeMatchesWalk(t *testing.T) {
	for name, b := range map[string]*Batch{"all kinds": allKindsBatch(), "sample": sampleBatch(), "wide": wideBatch(300), "empty": {}} {
		got, err := DecodeBytes(mustEncode(t, b))
		if err != nil {
			t.Fatal(err)
		}
		if got.EncodedSize() != b.EncodedSize() {
			t.Errorf("%s: decoded batch reports %d bytes, the same batch built by hand %d", name, got.EncodedSize(), b.EncodedSize())
		}
		for _, row := range got.Rows {
			for ci := range row {
				row[ci] = types.NewString("a cell the holder rewrote, longer than what was there")
			}
		}
		if got.EncodedSize() != b.EncodedSize() {
			t.Errorf("%s: size followed the rewritten cells: %d, want %d", name, got.EncodedSize(), b.EncodedSize())
		}
	}
}

func FuzzDecode(f *testing.F) {
	for _, data := range seedCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(checkAgainstReference)
}

// A forged header is 12 bytes that claim a billion cells. The decoder must
// refuse it from the bytes that are there, without allocating for the claim.
func TestDecodeForgedHeaderBoundedAllocation(t *testing.T) {
	forge := func(ncols, nrows uint32, tail ...byte) []byte {
		p := binary.LittleEndian.AppendUint32(nil, Magic)
		p = binary.LittleEndian.AppendUint32(p, ncols)
		p = binary.LittleEndian.AppendUint32(p, nrows)
		return append(p, tail...)
	}
	tagInt, _ := kindToTag(types.KindInt)
	tagVarChar, _ := kindToTag(types.KindVarChar)
	oneIntCol := []byte{tagInt, 0, 0, 0, 0, 1, 0, 'c'}
	oneStrCol := []byte{tagVarChar, 0, 0, 0, 0, 1, 0, 's'}
	cases := map[string][]byte{
		"rows without bytes":    forge(1, 1<<30, oneIntCol...),
		"columns without bytes": forge(1<<16, 1),
		"max counts":            forge(math.MaxUint32, math.MaxUint32),
		"rows of no columns":    forge(0, 1<<30),
		"string length":         forge(1, 1, append(oneStrCol, 1, 0xff, 0xff, 0xff, 0x0f)...),
	}
	for name, data := range cases {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := DecodeBytes(data)
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: allocated %d bytes for a %d-byte input", name, grew, len(data))
		}
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted through Decode(io.Reader)", name)
		}
	}
}

// One input is one batch: two encodings back to back are refused rather than
// the second dropped, and Encode does not emit the one shape (rows without
// columns) the decoder cannot bound and therefore refuses.
func TestDecodeHoldsInputToOneBatch(t *testing.T) {
	one := mustEncode(t, sampleBatch())
	two := append(append([]byte(nil), one...), one...)
	if _, err := DecodeBytes(two); err == nil {
		t.Error("DecodeBytes accepted two batches")
	}
	if _, err := Decode(bytes.NewReader(two)); err == nil {
		t.Error("Decode accepted two batches")
	}
	if _, err := Decode(bytes.NewReader(append(one[:len(one):len(one)], 0))); err == nil {
		t.Error("Decode accepted a trailing byte")
	}
	var buf bytes.Buffer
	if err := (&Batch{Rows: [][]types.Datum{{}, {}}}).Encode(&buf); err == nil {
		t.Error("Encode accepted rows without columns")
	}
}

// wideBatch is the benchmark fixture: n rows of the 13-column shape perf's
// result_stream returns, a tenth of the nullable cells NULL.
func wideBatch(n int) *Batch {
	b := &Batch{Cols: []ColumnMeta{
		{Name: "id", Type: types.Int}, {Name: "big", Type: types.BigInt}, {Name: "qty", Type: types.BigInt},
		{Name: "score", Type: types.Float}, {Name: "price", Type: types.Decimal(12, 4)},
		{Name: "d", Type: types.Date}, {Name: "ts", Type: types.Timestamp}, {Name: "code", Type: types.VarChar(20)},
		{Name: "n1", Type: types.VarChar(50)}, {Name: "n2", Type: types.VarChar(50)}, {Name: "n3", Type: types.VarChar(50)},
		{Name: "n4", Type: types.VarChar(50)}, {Name: "n5", Type: types.VarChar(50)},
	}}
	const text = "the quick brown fox jumps over the lazy dog 0123456789"
	for i := 0; i < n; i++ {
		row := []types.Datum{
			types.NewInt(int64(i)), types.NewBigInt(int64(i) << 33), types.NewBigInt(int64(i % 977)),
			types.NewFloat(float64(i) * 1.5), types.NewDecimal(int64(i)*10000, 4),
			types.NewDate(1990+i%40, 1+i%12, 1+i%28), types.NewTimestamp(int64(i) * 1e9), types.NewString(text[:4+i%16]),
			types.NewString(text[:30+i%20]), types.NewString(text[:30+i%19]), types.NewString(text[:30+i%17]),
			types.NewString(text[:30+i%13]), types.NewString(text[:30+i%11]),
		}
		for c := 1; c < len(row); c++ {
			if (i+c)%10 == 0 {
				row[c] = types.NewNull(row[c].K)
			}
		}
		b.Rows = append(b.Rows, row)
	}
	return b
}

var sink *Batch

// BenchmarkDecode/held is a consumer that keeps every batch (the collector);
// released is one that gives each back before the next (the streamed path).
func BenchmarkDecode(b *testing.B) {
	enc := mustEncode(b, wideBatch(1024))
	for _, mode := range []struct {
		name    string
		release bool
	}{{"held", false}, {"released", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if sink, err = DecodeBytes(enc); err != nil {
					b.Fatal(err)
				}
				if mode.release {
					sink.Release()
				}
			}
		})
	}
}

// Decoding a batch whose predecessor was released costs exactly the batch,
// its column slice, the text copy and one string per column name (the runtime
// has one-byte strings ready-made) — no datum slab, no row index — the same
// for 64 rows as for 1,024.
func TestDecodeAllocsPerBatch(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	perBatch := func(rows int) float64 {
		enc := mustEncode(t, wideBatch(rows))
		return testing.AllocsPerRun(20, func() {
			b, err := DecodeBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			b.Release()
		})
	}
	want := 3.0
	for _, c := range wideBatch(0).Cols {
		if len(c.Name) > 1 {
			want++
		}
	}
	if large, small := perBatch(1024), perBatch(64); small != want || large != want {
		t.Errorf("%.0f allocations per 64-row batch, %.0f per 1024-row batch, want %.0f for both", small, large, want)
	}
}
