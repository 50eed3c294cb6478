package hyperq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
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

// wideFixture is the benchmark batch: n rows of the 13-column shape perf's
// result_stream returns — qty, price and code are stored in other types than
// the client was promised, so three cells of every row need a types.Cast —
// with a tenth of the nullable cells NULL. identity drops the type mismatch.
func wideFixture(n int, identity bool) ([]xtra.Col, *tdf.Batch) {
	front := []xtra.Col{
		{Name: "id", Type: types.Int}, {Name: "big", Type: types.BigInt}, {Name: "qty", Type: types.Int},
		{Name: "score", Type: types.Float}, {Name: "price", Type: types.Decimal(12, 2)},
		{Name: "d", Type: types.Date}, {Name: "ts", Type: types.Timestamp}, {Name: "code", Type: types.Char(20)},
		{Name: "n1", Type: types.VarChar(50)}, {Name: "n2", Type: types.VarChar(50)}, {Name: "n3", Type: types.VarChar(50)},
		{Name: "n4", Type: types.VarChar(50)}, {Name: "n5", Type: types.VarChar(50)},
	}
	b := &tdf.Batch{}
	for _, c := range front {
		b.Cols = append(b.Cols, tdf.ColumnMeta{Name: c.Name, Type: c.Type})
	}
	if !identity {
		b.Cols[2].Type, b.Cols[4].Type, b.Cols[7].Type = types.BigInt, types.Decimal(12, 4), types.VarChar(20)
	}
	const text = "the quick brown fox jumps over the lazy dog 0123456789"
	slab := make([]types.Datum, 0, n*len(front))
	for i := 0; i < n; i++ {
		row := append(slab[len(slab):], // rows share one slab, as tdf.DecodeBytes lays them out
			types.NewInt(int64(i)), types.NewBigInt(int64(i)<<33),
			types.Datum{K: b.Cols[2].Type.Kind, I: int64(i % 977)},
			types.NewFloat(float64(i)*1.5), types.NewDecimal(int64(i)*10000, b.Cols[4].Type.Scale),
			types.NewDate(1990+i%40, 1+i%12, 1+i%28), types.NewTimestamp(int64(i)*1e9),
			types.Datum{K: b.Cols[7].Type.Kind, S: text[:20-i%16*btoi(!identity)]},
			types.NewString(text[:30+i%20]), types.NewString(text[:30+i%19]), types.NewString(text[:30+i%17]),
			types.NewString(text[:30+i%13]), types.NewString(text[:30+i%11]))
		for c := 1; c < len(row); c++ {
			if (i+c)%10 == 0 {
				row[c] = types.NewNull(row[c].K)
			}
		}
		slab = slab[:len(slab)+len(row)]
		b.Rows = append(b.Rows, row[:len(row):len(row)])
	}
	return front, b
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func testPlan(t testing.TB, front []xtra.Col, back []tdf.ColumnMeta) *convertPlan {
	t.Helper()
	plan, err := newConvertPlan(front, back)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// convertRowReference is the per-row converter convertPlan replaced, kept as
// the oracle for the plan's per-cell decisions.
func convertRowReference(frontCols []xtra.Col, row []types.Datum) ([]types.Datum, error) {
	if len(row) != len(frontCols) {
		return nil, fmt.Errorf("row arity %d != %d", len(row), len(frontCols))
	}
	out := make([]types.Datum, len(row))
	for i, d := range row {
		want := frontCols[i].Type
		if d.Null {
			out[i] = types.NewNull(want.Kind)
			continue
		}
		if d.K == want.Kind && (want.Kind != types.KindDecimal || int(d.Scale) == want.Scale) {
			out[i] = d
			continue
		}
		cast, err := types.Cast(d, want)
		if err != nil {
			return nil, fmt.Errorf("column %s: %v", frontCols[i].Name, err)
		}
		out[i] = cast
	}
	return out, nil
}

// The plan's output equals the per-row reference cell for cell: on batches
// that pass through, on batches that are cast, with cells whose kind is not
// the one their column declares (an in-process backend's).
func TestConvertBatchMatchesReference(t *testing.T) {
	check := func(name string, front []xtra.Col, b *tdf.Batch, wantAlias bool) {
		t.Helper()
		got, err := testPlan(t, front, b.Cols).convertBatch(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(b.Rows) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(b.Rows))
		}
		for ri, row := range b.Rows {
			want, err := convertRowReference(front, row)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[ri], want) {
				t.Fatalf("%s: row %d = %v, want %v", name, ri, got[ri], want)
			}
		}
		if alias := &got[0][0] == &b.Rows[0][0]; alias != wantAlias {
			t.Errorf("%s: result aliases the batch = %v, want %v", name, alias, wantAlias)
		}
	}
	front, cast := wideFixture(300, false)
	check("cast", front, cast, false)
	front, same := wideFixture(300, true)
	check("identity", front, same, true)
	// Declared identical, but one cell is an INTEGER in a BIGINT column.
	front, stray := wideFixture(300, true)
	stray.Rows[299][1] = types.NewInt(7)
	check("stray kind", front, stray, false)

	// Errors name the column.
	front, bad := wideFixture(300, false)
	bad.Rows[299][2] = types.NewString("not a number")
	if _, err := testPlan(t, front, bad.Cols).convertBatch(bad); err == nil || !strings.Contains(err.Error(), "column qty") {
		t.Errorf("cast failure: %v", err)
	}
	bad.Rows[0] = bad.Rows[0][:5]
	if _, err := testPlan(t, front, bad.Cols).convertBatch(bad); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("short row: %v", err)
	}
	if _, err := newConvertPlan(front[:3], bad.Cols); err == nil {
		t.Error("column count mismatch accepted")
	}
}

func encoded(t testing.TB, b *tdf.Batch) []byte {
	t.Helper()
	var enc bytes.Buffer
	if err := b.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// decoded returns b as the cwp client would have produced it: encoded, then
// decoded off the wire, so the copy is owned by the caller.
func decoded(t testing.TB, b *tdf.Batch) *tdf.Batch {
	t.Helper()
	owned, err := tdf.DecodeBytes(encoded(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if !owned.Owned() || b.Owned() {
		t.Fatalf("owned: decoded %v, hand-built %v", owned.Owned(), b.Owned())
	}
	return owned
}

// An owned batch is converted where it lies: the same rows the reference
// produces from the hand-built original, in the batch's own memory, with no
// slab allocated — and the size the accountant books for it stays the wire
// size, whatever the padded CHAR cells now hold.
func TestConvertOwnedInPlaceMatchesReference(t *testing.T) {
	front, orig := wideFixture(1024, false)
	b := decoded(t, orig)
	plan := testPlan(t, front, b.Cols)
	size, first := b.EncodedSize(), &b.Rows[0][0]
	if size != orig.EncodedSize() {
		t.Fatalf("decoded batch reports %d bytes, the batch it was encoded from %d", size, orig.EncodedSize())
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	got, err := plan.convertBatch(b)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	// The padded CHAR values are all that may be allocated: 1,024 strings of
	// 20 bytes, a small fraction of the 850 KB a slab of this batch takes.
	if grew, slab := m1.TotalAlloc-m0.TotalAlloc, uint64(len(b.Rows)*len(front))*uint64(reflect.TypeOf(types.Datum{}).Size()); grew > slab/8 {
		t.Errorf("converting in place allocated %d bytes; a slab is %d", grew, slab)
	}
	if len(got) != len(orig.Rows) || &got[0][0] != first || &b.Rows[0][0] != first {
		t.Fatalf("%d rows, in the batch's memory: %v", len(got), &got[0][0] == first)
	}
	for ri, row := range orig.Rows {
		want, err := convertRowReference(front, row)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[ri], want) {
			t.Fatalf("row %d = %v, want %v", ri, got[ri], want)
		}
	}
	if b.EncodedSize() != size {
		t.Errorf("EncodedSize %d after converting in place, %d off the wire", b.EncodedSize(), size)
	}
	// Converted cells are frontend cells: a second pass finds nothing to do.
	again, err := plan.convertBatch(b)
	if err != nil || !reflect.DeepEqual(again, got) {
		t.Fatalf("second pass changed the rows (err %v)", err)
	}
}

// sharedDriver is a backend whose sessions all answer any SELECT from the
// same materialized result, streamed through odbc.Streaming's buffered
// adapter — the shape of a canned or cached backend, where a batch outlives
// the request it serves.
type sharedDriver struct {
	results []*cwp.StatementResult
}

func (d *sharedDriver) Connect() (odbc.Executor, error) { return &sharedExecutor{d}, nil }

type sharedExecutor struct{ d *sharedDriver }

func (e *sharedExecutor) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	if strings.HasPrefix(sql, "SELECT") {
		return e.d.results, nil
	}
	return []*cwp.StatementResult{{Command: "OK"}}, nil
}

func (e *sharedExecutor) Close() error { return nil }

// recordingWriter keeps a deep copy of everything a request writes.
type recordingWriter struct {
	cols    []tdp.ColumnDef
	rows    [][]types.Datum
	ended   []string
	failure string
}

func (w *recordingWriter) BeginResultSet(cols []tdp.ColumnDef) error {
	w.cols = append([]tdp.ColumnDef(nil), cols...)
	return nil
}

func (w *recordingWriter) Row(row []types.Datum) error {
	w.rows = append(w.rows, append([]types.Datum(nil), row...))
	return nil
}

func (w *recordingWriter) EndStatement(activity int64, name string) error {
	w.ended = append(w.ended, fmt.Sprintf("%s %d", name, activity))
	return nil
}

func (w *recordingWriter) Failure(code int, msg string) error {
	w.failure = fmt.Sprintf("%d %s", code, msg)
	return nil
}

func cloneBatches(batches []*tdf.Batch) []*tdf.Batch {
	out := make([]*tdf.Batch, len(batches))
	for i, b := range batches {
		c := &tdf.Batch{Cols: append([]tdf.ColumnMeta(nil), b.Cols...)}
		for _, row := range b.Rows {
			c.Rows = append(c.Rows, append([]types.Datum(nil), row...))
		}
		out[i] = c
	}
	return out
}

// A batch replayed from a materialized result is shared by every request
// that is answered from it, so conversion must leave it as it found it — on
// the streamed path and on the buffered one, for cast and for pass-through
// statements.
func TestConvertDoesNotMutateSharedBatch(t *testing.T) {
	eng := engine.New(dialect.CloudA())
	if _, err := eng.NewSession().ExecSQL(`CREATE TABLE shared_t (
		id INTEGER, big BIGINT, qty INTEGER, score FLOAT, price DECIMAL(12,2), d DATE, ts TIMESTAMP,
		code CHAR(20), n1 VARCHAR(50), n2 VARCHAR(50), n3 VARCHAR(50), n4 VARCHAR(50), n5 VARCHAR(50))`); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name             string
		identity, stream bool
	}{
		{"cast/streamed", false, true}, {"cast/buffered", false, false},
		{"identity/streamed", true, true}, {"identity/buffered", true, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			front, b1 := wideFixture(700, mode.identity)
			_, b2 := wideFixture(40, mode.identity)
			shared := []*cwp.StatementResult{{Cols: b1.Cols, Batches: []*tdf.Batch{b1, b2}, Command: "SELECT"}}
			before := cloneBatches(shared[0].Batches)
			g, err := New(Config{
				Target:           dialect.CloudA(),
				Driver:           &sharedDriver{results: shared},
				Catalog:          eng.Catalog().Clone(),
				DisableStreaming: !mode.stream,
			})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := g.Logon("app", "pw")
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var replies [2]recordingWriter
			for i := range replies {
				if err := sess.Request("SEL * FROM shared_t", &replies[i]); err != nil {
					t.Fatal(err)
				}
				if replies[i].failure != "" {
					t.Fatalf("request %d failed: %s", i, replies[i].failure)
				}
			}
			if !reflect.DeepEqual(shared[0].Batches, before) {
				t.Fatal("conversion changed the shared source batches")
			}
			if !reflect.DeepEqual(replies[0], replies[1]) {
				t.Fatal("the same shared result produced two different responses")
			}
			got := replies[0]
			if len(got.rows) != 740 || len(got.cols) != len(front) || !reflect.DeepEqual(got.ended, []string{"SELECT 740"}) {
				t.Fatalf("response: %d rows, %d cols, ended %v", len(got.rows), len(got.cols), got.ended)
			}
			for ri, row := range append(append([][]types.Datum(nil), b1.Rows...), b2.Rows...) {
				want, err := convertRowReference(front, row)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.rows[ri], want) {
					t.Fatalf("row %d = %v, want %v", ri, got.rows[ri], want)
				}
			}
			if m := g.MetricsSnapshot(); mode.stream != (m.StreamedResults == 2) {
				t.Errorf("streamed results = %d with streaming %v", m.StreamedResults, mode.stream)
			}
		})
	}
}

// resultRecorder is a tdp.ResponseWriter that keeps what it is sent in the
// collector's own shape, one FrontResult per EndStatement.
type resultRecorder struct {
	out []*FrontResult
	cur *FrontResult
}

func (w *resultRecorder) BeginResultSet(cols []tdp.ColumnDef) error {
	w.cur = &FrontResult{Cols: cols}
	return nil
}

func (w *resultRecorder) Row(row []types.Datum) error {
	w.cur.Rows = append(w.cur.Rows, row)
	return nil
}

func (w *resultRecorder) EndStatement(activity int64, name string) error {
	if w.cur == nil {
		w.cur = &FrontResult{}
	}
	w.cur.Activity, w.cur.Command = activity, name
	w.out, w.cur = append(w.out, w.cur), nil
	return nil
}

func (w *resultRecorder) Failure(int, string) error { return nil }

// eventStream replays hand-written events, for sequences odbc.BufferStream
// cannot produce.
type eventStream []cwp.StreamEvent

func (e *eventStream) Next(context.Context) (cwp.StreamEvent, error) {
	if len(*e) == 0 {
		return cwp.StreamEvent{}, io.EOF
	}
	ev := (*e)[0]
	*e = (*e)[1:]
	return ev, nil
}

func (e *eventStream) Close() error { return nil }

// The statement-level twin of TestStreamingMatchesBufferedWireTranscripts:
// deliver hands both sinks the same (columns, rows, activity, command)
// sequence and fails both with the same error, whatever the backend sent.
func TestDeliverSinkEquivalence(t *testing.T) {
	g, err := New(Config{Target: dialect.CloudA(), Driver: &odbc.LocalDriver{Engine: engine.New(dialect.CloudA())}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("sinks")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	front, b1 := wideFixture(40, false)
	_, b2 := wideFixture(7, false)
	_, bad := wideFixture(5, false)
	bad.Rows[3][2] = types.NewString("not a number")
	resultSet := func(batches ...*tdf.Batch) *cwp.StatementResult {
		return &cwp.StatementResult{Cols: b1.Cols, Batches: batches, Command: "SELECT"}
	}
	buffered := func(results ...*cwp.StatementResult) func() odbc.ResultStream {
		return func() odbc.ResultStream { return odbc.BufferStream(results) }
	}
	events := func(evs ...cwp.StreamEvent) func() odbc.ResultStream {
		return func() odbc.ResultStream { e := eventStream(evs); return &e }
	}
	for _, tc := range []struct {
		name     string
		front    []xtra.Col
		stream   func() odbc.ResultStream
		want     []int64 // per delivered statement: its row count, or -affected for a row-less one
		wantSets int64
		wantCode int   // *RequestError code; 0: none
		wantErr  error // producer error deliver passes through unmapped
	}{
		{name: "multi-statement", front: front,
			stream: buffered(resultSet(b1, b2), &cwp.StatementResult{Command: "INSERT", Affected: 3}, resultSet(b2)),
			want:   []int64{47, -3, 7}, wantSets: 2},
		{name: "row-less statement", stream: buffered(&cwp.StatementResult{Command: "UPDATE", Affected: 9}),
			want: []int64{-9}},
		{name: "empty result set", front: front, stream: buffered(resultSet()), want: []int64{0}, wantSets: 1},
		{name: "batch without meta", front: front,
			stream: events(cwp.StreamEvent{Kind: cwp.StreamBatch, Batch: b2},
				cwp.StreamEvent{Kind: cwp.StreamComplete, Command: "SELECT"}),
			want: []int64{7}, wantSets: 1},
		{name: "unexpected result set", stream: buffered(resultSet(b1)), wantCode: tdp.CodeObjectNotFound},
		{name: "column count mismatch", front: front[:3], stream: buffered(resultSet(b1)), wantCode: tdp.CodeObjectNotFound},
		{name: "conversion failure mid-result", front: front, stream: buffered(resultSet(b1, bad, b2)),
			wantSets: 1, wantCode: tdp.CodeObjectNotFound},
		{name: "ends inside a statement", front: front,
			stream:   events(cwp.StreamEvent{Kind: cwp.StreamMeta, Cols: b1.Cols}, cwp.StreamEvent{Kind: cwp.StreamBatch, Batch: b1}),
			wantSets: 1, wantErr: io.ErrUnexpectedEOF},
		{name: "ends before any statement", stream: events(), wantErr: io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const cmd = "FE"
			var c collector
			var w resultRecorder
			cSets, _, cErr := s.deliver(context.Background(), tc.stream(), tc.front, cmd, &c)
			wSets, _, wErr := s.deliver(context.Background(), tc.stream(), tc.front, cmd, &frontWriter{w: &w})
			if cSets != tc.wantSets || wSets != tc.wantSets {
				t.Errorf("result sets: collector %d, wire %d, want %d", cSets, wSets, tc.wantSets)
			}
			for sink, err := range map[string]error{"collector": cErr, "wire": wErr} {
				var re *RequestError
				switch {
				case tc.wantCode != 0:
					if !errors.As(err, &re) || re.Code != tc.wantCode {
						t.Errorf("%s: err = %v, want code %d", sink, err, tc.wantCode)
					}
				case tc.wantErr != nil:
					if !errors.Is(err, tc.wantErr) || errors.As(err, &re) {
						t.Errorf("%s: err = %v, want unmapped %v", sink, err, tc.wantErr)
					}
				case err != nil:
					t.Errorf("%s: %v", sink, err)
				}
			}
			if fmt.Sprint(cErr) != fmt.Sprint(wErr) {
				t.Errorf("errors differ: collector %v, wire %v", cErr, wErr)
			}
			// What the wire saw before a failure, the collector holds too (its
			// caller drops it); compare completed statements and the open one.
			open := &c.cur
			if reflect.DeepEqual(c.cur, FrontResult{}) {
				open = nil
			}
			if !reflect.DeepEqual(c.out, w.out) || !reflect.DeepEqual(open, w.cur) {
				t.Fatalf("sinks diverged:\ncollector %+v (open %+v)\nwire      %+v (open %+v)", c.out, open, w.out, w.cur)
			}
			if len(c.out) != len(tc.want) {
				t.Fatalf("%d statements delivered, want %d", len(c.out), len(tc.want))
			}
			for i, fr := range c.out {
				if fr.Command != cmd {
					t.Errorf("statement %d: command %q, want %q", i, fr.Command, cmd)
				}
				if want := tc.want[i]; want < 0 {
					if fr.Cols != nil || fr.Activity != -want {
						t.Errorf("statement %d: row-less statement has columns %v, activity %d; want %d", i, fr.Cols, fr.Activity, -want)
					}
				} else if len(fr.Cols) != len(front) || int64(len(fr.Rows)) != want || fr.Activity != want {
					t.Errorf("statement %d: %d cols, %d rows, activity %d; want %d rows", i, len(fr.Cols), len(fr.Rows), fr.Activity, want)
				}
			}
		})
	}
}

var sinkRows [][]types.Datum

// BenchmarkConvertBatch/owned is the streamed path's unit of work: a batch
// decoded off the wire, its three mismatched columns cast in place, released.
// The decode is inside the timer (an owned batch converts only once), so
// compare it with BenchmarkDecode/released, not with the shared shapes.
func BenchmarkConvertBatch(b *testing.B) {
	for _, shape := range []struct {
		name            string
		identity, owned bool
	}{{"cast3of13", false, false}, {"identity", true, false}, {"owned", false, true}} {
		b.Run(shape.name, func(b *testing.B) {
			front, batch := wideFixture(1024, shape.identity)
			plan := testPlan(b, front, batch.Cols)
			enc := encoded(b, batch)
			b.SetBytes(int64(batch.EncodedSize()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if shape.owned {
					if batch, err = tdf.DecodeBytes(enc); err != nil {
						b.Fatal(err)
					}
				}
				if sinkRows, err = plan.convertBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch.Release()
			}
		})
	}
}

// Converting a shared batch costs two allocations (the datum slab and the row
// index) plus whatever types.Cast allocates for the cells it rewrites — here
// the padded string of each short non-NULL CHAR cell — and none at all when
// the batch passes through; converting an owned batch costs the padded
// strings and nothing else. The converter itself allocates nothing per row.
func TestConvertAllocsPerBatch(t *testing.T) {
	perBatch := func(rows int, identity bool) (allocs float64, padded int) {
		front, batch := wideFixture(rows, identity)
		plan := testPlan(t, front, batch.Cols)
		for _, row := range batch.Rows {
			if !row[7].Null && len(row[7].S) < 20 {
				padded++
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := plan.convertBatch(batch); err != nil {
				t.Fatal(err)
			}
		}), padded
	}
	// An owned batch converts once, so each run decodes its own and gives it
	// back; what the decode costs is measured separately and taken off.
	ownedPerBatch := func(rows int) float64 {
		front, batch := wideFixture(rows, false)
		plan := testPlan(t, front, batch.Cols)
		enc := encoded(t, batch)
		run := func(convert bool) float64 {
			return testing.AllocsPerRun(20, func() {
				b, err := tdf.DecodeBytes(enc)
				if err != nil {
					t.Fatal(err)
				}
				if convert {
					if _, err := plan.convertBatch(b); err != nil {
						t.Fatal(err)
					}
				}
				b.Release()
			})
		}
		return run(true) - run(false)
	}
	for _, rows := range []int{64, 1024} {
		if allocs, _ := perBatch(rows, true); allocs != 0 {
			t.Errorf("%d identity rows: %.0f allocations, want 0", rows, allocs)
		}
		allocs, padded := perBatch(rows, false)
		if allocs > float64(2+padded) {
			t.Errorf("%d cast rows: %.0f allocations, want <= 2 + one per padded CHAR (%d)", rows, allocs, padded)
		}
		if israce.Enabled {
			continue // sync.Pool drops Puts at random under the race detector
		}
		if allocs := ownedPerBatch(rows); allocs != float64(padded) {
			t.Errorf("%d owned rows: %.0f allocations, want one per padded CHAR (%d) and no slab", rows, allocs, padded)
		}
	}
}
