package hyperq

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/israce"
	"hyperq/internal/odbc"
	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/xtra"
)

func deliverSession(t testing.TB) *Session {
	t.Helper()
	g, err := New(Config{Target: dialect.CloudA(), Driver: &odbc.LocalDriver{Engine: engine.New(dialect.CloudA())}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("transcode")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// wireBytes delivers one result set whose only batch is b, promised to the
// client as front, through the wire sink over a real response writer, and
// returns what the client would read.
func wireBytes(s *Session, front []xtra.Col, b *tdf.Batch) ([]byte, error) {
	var buf bytes.Buffer
	out := bufio.NewWriter(&buf)
	evs := eventStream{
		{Kind: cwp.StreamMeta, Cols: b.Cols},
		{Kind: cwp.StreamBatch, Batch: b},
		{Kind: cwp.StreamComplete, Command: "SELECT"},
	}
	_, _, err := s.deliver(context.Background(), &evs, &Plan{cols: front}, &frontWriter{w: tdp.NewResponseWriter(out)})
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	return buf.Bytes(), err
}

// frontFor draws, for each backend column, a frontend type: the same type,
// INTEGER and BIGINT either way, a DECIMAL at another scale, VARCHAR as
// CHAR(n) — n from 0, so strings longer than n are cut — and the casts
// INTEGER or BIGINT to VARCHAR, DATE to CHAR(n), DECIMAL to FLOAT, FLOAT to
// DECIMAL and VARCHAR to INTEGER.
func frontFor(rng *rand.Rand, back []tdf.ColumnMeta) []xtra.Col {
	front := make([]xtra.Col, len(back))
	for i, c := range back {
		ft := c.Type
		switch c.Type.Kind {
		case types.KindInt, types.KindBigInt:
			ft = []types.T{types.Int, types.BigInt, types.VarChar(rng.Intn(30))}[rng.Intn(3)]
		case types.KindDecimal:
			if rng.Intn(3) == 0 {
				ft = types.Float
			} else if s := int(int8(c.Type.Scale)); s >= 0 && s <= 18 {
				ft = types.Decimal(18, rng.Intn(19))
			} else {
				ft.Scale = s // what the decoded cells carry: a splice
			}
		case types.KindFloat:
			if rng.Intn(2) == 0 {
				ft = types.Decimal(18, rng.Intn(19))
			}
		case types.KindDate:
			if rng.Intn(2) == 0 {
				ft = types.Char(rng.Intn(15))
			}
		case types.KindVarChar:
			ft = []types.T{ft, types.Char(rng.Intn(41)), types.Int}[rng.Intn(3)]
		}
		front[i] = xtra.Col{Name: c.Name, Type: ft}
	}
	return front
}

// referenceBytes is what the client reads for the decoded batch b promised
// as front by the converter the transcoder replaced: every row through
// convertRowReference, then the tdp row encoder. A row that does not convert
// fails the result with the error the gateway sends.
func referenceBytes(front []xtra.Col, b *tdf.Batch) ([]byte, error) {
	var buf bytes.Buffer
	out := bufio.NewWriter(&buf)
	w := tdp.NewResponseWriter(out)
	cols := make([]tdp.ColumnDef, len(front))
	for i, c := range front {
		cols[i] = tdp.ColumnDef{Name: c.Name, Type: c.Type}
	}
	if err := w.BeginResultSet(cols); err != nil {
		return nil, err
	}
	for _, row := range b.Rows {
		conv, err := convertRowReference(front, row)
		if err != nil {
			return nil, conversionFailure(err)
		}
		if err := w.Row(conv); err != nil {
			return nil, err
		}
	}
	if err := w.EndStatement(int64(len(b.Rows)), "SELECT"); err != nil {
		return nil, err
	}
	err := out.Flush()
	return buf.Bytes(), err
}

// checkTranscode is the transcoder's differential property for one input: a
// batch passes Adopt's validation exactly when DecodeBytes accepts it, with
// the same EncodedSize, and for frontend types drawn by choice the records
// transcoded from the raw batch are byte for byte the reference's
// (referenceBytes), or both fail with the same error. It returns the
// frontend types and the transcoder's error.
func checkTranscode(t *testing.T, s *Session, p []byte, choice int64) ([]xtra.Col, error) {
	t.Helper()
	decoded, derr := tdf.DecodeBytes(p)
	raw, _, aerr := tdf.Adopt(append([]byte(nil), p...))
	if (derr == nil) != (aerr == nil) {
		t.Fatalf("DecodeBytes err %v, Adopt err %v", derr, aerr)
	}
	if derr != nil {
		return nil, derr
	}
	if raw.EncodedSize() != decoded.EncodedSize() || raw.Len() != len(decoded.Rows) {
		t.Fatalf("raw batch: %d bytes %d rows, decoded %d bytes %d rows", raw.EncodedSize(), raw.Len(), decoded.EncodedSize(), len(decoded.Rows))
	}
	front := frontFor(rand.New(rand.NewSource(choice)), raw.Cols)
	got, gerr := wireBytes(s, front, raw)
	want, werr := referenceBytes(front, decoded)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("front %v:\n got %v %x\nwant %v %x", front, gerr, got, werr, want)
	}
	return front, gerr
}

// everyKindBatch has a column of each kind the transcoder handles, plus a
// NULL-typed one, in rows with NULLs, empty strings, strings longer than any
// CHAR(n) frontFor draws, and negative and truncating decimals.
func everyKindBatch() *tdf.Batch {
	b := &tdf.Batch{Cols: []tdf.ColumnMeta{
		{Name: "b", Type: types.Bool}, {Name: "i", Type: types.Int}, {Name: "bi", Type: types.BigInt},
		{Name: "f", Type: types.Float}, {Name: "dec", Type: types.Decimal(18, 4)}, {Name: "c", Type: types.Char(8)},
		{Name: "vc", Type: types.VarChar(60)}, {Name: "dt", Type: types.Date}, {Name: "tm", Type: types.Time},
		{Name: "ts", Type: types.Timestamp}, {Name: "p", Type: types.Period(types.KindDate)},
		{Name: "by", Type: types.Bytes(8)}, {Name: "iv", Type: types.Interval}, {Name: "n", Type: types.Null},
	}}
	long := strings.Repeat("wxyz", 15)
	for i := 0; i < 12; i++ {
		row := []types.Datum{
			types.NewBool(i%2 == 0), types.NewInt(int64(i*7919 - 40000)), types.NewBigInt(int64(i-6) << 40),
			types.NewFloat(float64(i) - 5.5), types.NewDecimal(int64(i*123457-700000), 4), types.NewChar("ab"),
			types.NewString(long[:i*5]), types.NewDate(1899+i*10, 1+i, 28), types.NewTime(int64(i * 3601)),
			types.NewTimestamp(int64(i-6) * 1e12), types.NewPeriod(types.KindDate, types.EncodeDate(2020, 1, 1+i), types.EncodeDate(2021, 1, 1)),
			types.NewBytes([]byte{byte(i), 0, 0xff}), types.NewInterval(int64(i) * 1e6), types.NewNull(types.KindNull),
		}
		for c := range row {
			if (i+c)%5 == 0 {
				row[c] = types.NewNull(row[c].K)
			}
		}
		b.Rows = append(b.Rows, row)
	}
	return b
}

// transcodeSeeds is the fuzzer's corpus: the benchmark's wide batch, the
// every-kind batch and each of its truncations and single-byte corruptions
// of its first row, and a batch with no rows.
func transcodeSeeds(t testing.TB) [][]byte {
	_, wide := wideFixture(4, false) // small: the fuzzer minimizes what it finds
	every := encoded(t, everyKindBatch())
	seeds := [][]byte{encoded(t, wide), every, encoded(t, &tdf.Batch{Cols: everyKindBatch().Cols})}
	for n := 0; n < len(every); n += 7 {
		seeds = append(seeds, every[:n])
	}
	for i := 0; i < 40; i++ {
		bad := append([]byte(nil), every...)
		bad[len(bad)/2+i] ^= 0xff
		seeds = append(seeds, bad)
	}
	return seeds
}

func FuzzTranscode(f *testing.F) {
	for i, p := range transcodeSeeds(f) {
		f.Add(p, int64(i))
	}
	s := deliverSession(f)
	f.Fuzz(func(t *testing.T, p []byte, choice int64) {
		checkTranscode(t, s, p, choice)
	})
}

// The property over the corpus with many draws of frontend types, and proof
// that every draw for the wide batch and the every-kind batch, its NULL-typed
// column included, transcodes: a cast fails only where the reference fails
// it, a VARCHAR of words promised as INTEGER.
func TestTranscodeMatchesDatumPath(t *testing.T) {
	s := deliverSession(t)
	_, wide := wideFixture(300, false)
	for choice := int64(0); choice < 50; choice++ {
		for name, b := range map[string]*tdf.Batch{"wide": wide, "every kind": everyKindBatch()} {
			front, err := checkTranscode(t, s, encoded(t, b), choice)
			if err == nil {
				continue
			}
			words := false
			for i, c := range front {
				words = words || c.Type.Kind == types.KindInt && b.Cols[i].Type.Kind == types.KindVarChar
			}
			var re *RequestError
			if !errors.As(err, &re) || re.Code != tdp.CodeObjectNotFound || !words {
				t.Fatalf("%s, draw %d (%v): %v", name, choice, front, err)
			}
		}
	}
	for i, p := range transcodeSeeds(t) {
		checkTranscode(t, s, p, int64(i))
	}
}

// rawSource replays one result set of n copies of an encoded batch the way
// the fetch stage hands a cwp stream's batches to deliver: each one adopted
// from the buffer the batch before it left behind, and that one released when
// the next event is asked for.
type rawSource struct {
	cols []tdf.ColumnMeta
	enc  []byte
	n    int
	next int
	buf  []byte
	held *tdf.Batch
	// decoded counts batches that were decoded to Datums before release.
	decoded int
}

func (r *rawSource) Next(context.Context) (cwp.StreamEvent, error) {
	if b := r.held; b != nil {
		if _, raw := b.Raw(); !raw {
			r.decoded++
		}
		b.Release()
		r.held = nil
	}
	r.next++
	switch {
	case r.next == 1:
		return cwp.StreamEvent{Kind: cwp.StreamMeta, Cols: r.cols}, nil
	case r.next <= r.n+1:
		b, spare, err := tdf.Adopt(append(r.buf[:0], r.enc...))
		r.buf, r.held = spare, b
		return cwp.StreamEvent{Kind: cwp.StreamBatch, Batch: b}, err
	case r.next == r.n+2:
		return cwp.StreamEvent{Kind: cwp.StreamComplete, Command: "SELECT"}, nil
	}
	return cwp.StreamEvent{}, io.EOF
}

// A streamed result of raw batches goes through deliver into the wire sink
// for a fixed number of allocations per batch, the same for 64-row batches as
// for 1,024-row ones, and no batch is decoded: no datum slab is taken, no
// string copied.
func TestTranscodeAllocsPerBatch(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	s := deliverSession(t)
	w := &frontWriter{w: tdp.NewResponseWriter(bufio.NewWriterSize(io.Discard, 64<<10))}
	const nbatches = 8
	perRequest := func(rows int) float64 {
		front, b := wideFixture(rows, false)
		src := &rawSource{cols: b.Cols, enc: encoded(t, b)}
		run := func() {
			src.n, src.next = nbatches, 0
			if _, _, err := s.deliver(context.Background(), src, &Plan{cols: front}, w); err != nil {
				t.Fatal(err)
			}
		}
		run() // the buffers the batches trade are in the pool from here on
		allocs := testing.AllocsPerRun(20, run)
		if src.decoded != 0 {
			t.Fatalf("%d of the batches were decoded to Datums", src.decoded)
		}
		return allocs
	}
	small, large := perRequest(64), perRequest(1024)
	if small != large {
		t.Errorf("allocations grow with rows: %.0f per request of 64-row batches, %.0f of 1024-row batches", small, large)
	}
	// Pinned at the measured value, 126 in each run on the reference VM
	// (2-vCPU AMD): 14 per batch (the batch, its column slice and the names
	// longer than a byte) and 14 per request (the plan, its columns and ops,
	// the statement-info and success parcels and their buffers' growth).
	if limit := float64(nbatches*14 + 14); large > limit {
		t.Errorf("%.0f allocations per %d-batch request, want <= %.0f", large, nbatches, limit)
	}
}

// A streamed statement with one column only a cast can convert — the backend
// stores as VARCHAR what the client was promised as INTEGER — transcodes
// that column through a tdp.Cast op in every batch, beside columns the
// transcoder splices. Its wire bytes are the DisableStreaming reference's,
// over more batches than the first one the session goroutine fetches itself.
func TestStreamedCastColumnMatchesBuffered(t *testing.T) {
	target := dialect.CloudA()
	const rows = 2500
	backend := engine.New(target)
	front := engine.New(target)
	for e, ddl := range map[*engine.Engine]string{
		backend: "CREATE TABLE CAST_T (ID INTEGER, V VARCHAR(12), W VARCHAR(20))",
		front:   "CREATE TABLE CAST_T (ID INTEGER, V INTEGER, W VARCHAR(20))",
	} {
		if _, err := e.NewSession().ExecSQL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO CAST_T VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		v := fmt.Sprintf("' %d '", i*37-40000)
		if i%9 == 0 {
			v = "NULL"
		}
		fmt.Fprintf(&ins, "(%d, %s, 'row %d')", i, v, i)
	}
	if _, err := backend.NewSession().ExecSQL(ins.String()); err != nil {
		t.Fatal(err)
	}
	beAddr := serveBackend(t, backend)
	var sides [2][]parcel
	for i, disable := range []bool{false, true} {
		st := newStreamStackVia(t, target, front, beAddr, Config{DisableStreaming: disable}, tdp.Options{})
		c := dialRaw(t, st.addr)
		sides[i] = transcript(t, c, "SEL ID, V, W FROM CAST_T ORDER BY ID")
		c.close()
		if streamed := st.g.MetricsSnapshot().StreamedResults; (streamed > 0) == disable {
			t.Fatalf("DisableStreaming %v: %d results streamed", disable, streamed)
		}
	}
	streamed, buffered := sides[0], sides[1]
	if len(streamed) != rows+3 {
		t.Fatalf("%d parcels, want statement info, %d records, success and end", len(streamed), rows)
	}
	if len(streamed) != len(buffered) {
		t.Fatalf("parcel count: streamed %d, buffered %d", len(streamed), len(buffered))
	}
	for i := range streamed {
		if streamed[i].kind != buffered[i].kind || !bytes.Equal(streamed[i].payload, buffered[i].payload) {
			t.Fatalf("parcel %d diverged:\nstreamed 0x%02x %x\nbuffered 0x%02x %x",
				i, streamed[i].kind, streamed[i].payload, buffered[i].kind, buffered[i].payload)
		}
	}
}

// A cast that fails mid-result — the backend stores as VARCHAR what the
// client was promised as INTEGER, and the 2,001st of 2,500 cells is no
// number — fails the request with code 3807 and the same message whether the
// result streams (rows of the first batches already sent) or is collected
// (nothing sent), and the connection serves the next request.
func TestCastFailureMidResultFailsRequestNotConnection(t *testing.T) {
	target := dialect.CloudA()
	const rows, bad = 2500, 2000
	backend := engine.New(target)
	front := engine.New(target)
	for e, ddl := range map[*engine.Engine]string{
		backend: "CREATE TABLE CAST_T (ID INTEGER, V VARCHAR(12))",
		front:   "CREATE TABLE CAST_T (ID INTEGER, V INTEGER)",
	} {
		if _, err := e.NewSession().ExecSQL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO CAST_T VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		v := fmt.Sprintf("'%d'", i)
		if i == bad {
			v = "'forty-two'"
		}
		fmt.Fprintf(&ins, "(%d, %s)", i, v)
	}
	if _, err := backend.NewSession().ExecSQL(ins.String()); err != nil {
		t.Fatal(err)
	}
	beAddr := serveBackend(t, backend)
	var msgs [2]string
	for i, disable := range []bool{false, true} {
		st := newStreamStackVia(t, target, front, beAddr, Config{DisableStreaming: disable}, tdp.Options{})
		c, err := tdp.Dial(st.addr, "app", "pw")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = c.Request("SEL ID, V FROM CAST_T ORDER BY ID")
		var re *tdp.RequestError
		if !errors.As(err, &re) || re.Code != tdp.CodeObjectNotFound || !strings.Contains(re.Message, "column V") {
			t.Fatalf("DisableStreaming %v: %v, want a 3807 conversion failure naming column V", disable, err)
		}
		msgs[i] = re.Message
		if streamed := st.g.MetricsSnapshot().StreamedResults; (streamed > 0) == disable {
			t.Fatalf("DisableStreaming %v: %d results streamed", disable, streamed)
		}
		res, err := c.Request("SEL V FROM CAST_T WHERE ID = 7")
		if err != nil || len(res) != 1 || len(res[0].Rows) != 1 || res[0].Rows[0][0] != types.NewInt(7) {
			t.Fatalf("DisableStreaming %v: next request: %v %+v", disable, err, res)
		}
	}
	if msgs[0] != msgs[1] {
		t.Errorf("streamed failure %q, collected %q", msgs[0], msgs[1])
	}
}
