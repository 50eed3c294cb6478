package hyperq

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/israce"
	"hyperq/internal/odbc"
	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire"
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

func encoded(t testing.TB, b *tdf.Batch) []byte {
	t.Helper()
	var enc bytes.Buffer
	if err := b.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
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
// sequence and fails both with the same error, whatever the backend sent —
// a shared batch the wire encoding refuses included.
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
			c := collector{recs: new([]byte)}
			var w resultRecorder
			p := &Plan{cols: tc.front, cmd: cmd}
			cSets, _, cErr := s.deliver(context.Background(), tc.stream(), p, &c)
			wSets, _, wErr := s.deliver(context.Background(), tc.stream(), p, &frontWriter{w: &w})
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
			// caller drops it); compare completed statements and the open one,
			// their records decoded as for a session without a frontend.
			if c.cur.Cols != nil {
				c.cur.recs = (*c.recs)[c.mark:]
			}
			for _, fr := range append(c.out, &c.cur) {
				var err error
				if fr.Rows, err = tdp.DecodeRecords(fr.Cols, fr.recs); err != nil {
					t.Fatal(err)
				}
				fr.recs = nil
			}
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

// serveCannedCWP serves the cwp protocol on loopback, answering every query
// with nbatches copies of the encoded batch b.
func serveCannedCWP(t testing.TB, b *tdf.Batch, nbatches int) string {
	t.Helper()
	var reply bytes.Buffer
	var meta wire.Buffer
	meta.PutU32(uint32(len(b.Cols)))
	for _, c := range b.Cols {
		meta.PutString(c.Name)
		meta.PutU8(uint8(c.Type.Kind))
		meta.PutU32(uint32(c.Type.Scale))
		meta.PutU8(uint8(c.Type.Elem))
	}
	var done wire.Buffer
	done.PutString("SELECT")
	done.PutI64(int64(nbatches * len(b.Rows)))
	msgs := [][2]any{{cwp.MsgMeta, meta.Bytes()}}
	for i := 0; i < nbatches; i++ {
		msgs = append(msgs, [2]any{cwp.MsgBatch, encoded(t, b)})
	}
	msgs = append(msgs, [2]any{cwp.MsgComplete, done.Bytes()}, [2]any{cwp.MsgEnd, []byte(nil)})
	for _, m := range msgs {
		if err := wire.WriteMessage(&reply, m[0].(byte), m[1].([]byte)); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				in := bufio.NewReader(conn)
				if _, _, err := wire.ReadMessage(in); err != nil {
					return
				}
				if err := wire.WriteMessage(conn, cwp.MsgLogonOK, nil); err != nil {
					return
				}
				for {
					if kind, _, err := wire.ReadMessage(in); err != nil || kind != cwp.MsgQuery {
						return
					}
					if _, err := conn.Write(reply.Bytes()); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// A macro's multi-batch SELECT is collected — transcoded into records at
// collect time, each batch released as its records are made — and the
// records go to the tdp writer as they are. Over a cwp backend that costs a
// fixed number of allocations per batch, the same for 64-row batches as for
// 1,024-row ones: no datum slab, no string copied, and the records fit the
// buffer the session keeps.
func TestCollectedAllocsPerBatch(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	eng := engine.New(dialect.CloudA())
	if _, err := eng.NewSession().ExecSQL(`CREATE TABLE wide (
		id INTEGER, big BIGINT, qty INTEGER, score FLOAT, price DECIMAL(12,2), d DATE, ts TIMESTAMP,
		code CHAR(20), n1 VARCHAR(50), n2 VARCHAR(50), n3 VARCHAR(50), n4 VARCHAR(50), n5 VARCHAR(50))`); err != nil {
		t.Fatal(err)
	}
	const nbatches = 3
	perRequest := func(rows int) (allocs, heap float64) {
		_, b := wideFixture(rows, false)
		g, err := New(Config{
			Target:  dialect.CloudA(),
			Driver:  &odbc.NetworkDriver{Addr: serveCannedCWP(t, b, nbatches)},
			Catalog: eng.Catalog().Clone(),
		})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := g.Logon("app", "pw")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		var rec recordingWriter
		if err := sess.Request("CREATE MACRO WIDE_M AS (SEL * FROM wide;)", &rec); err != nil || rec.failure != "" {
			t.Fatalf("%v %s", err, rec.failure)
		}
		w := tdp.NewResponseWriter(bufio.NewWriterSize(io.Discard, 64<<10))
		exec := func() {
			if err := sess.Request("EXEC WIDE_M", w); err != nil {
				t.Fatal(err)
			}
		}
		exec() // the session's buffers and the batches' memory are warm from here on
		if m := g.MetricsSnapshot(); m.StreamedResults != 0 || m.BufferedResults != 1 {
			t.Fatalf("streamed %d, collected %d results", m.StreamedResults, m.BufferedResults)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		allocs = testing.AllocsPerRun(20, exec)
		runtime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / 21
	}
	small, _ := perRequest(64)
	large, heap := perRequest(1024)
	t.Logf("%.0f allocations per request of 64-row batches, %.0f of 1024-row batches (%.0f bytes)", small, large, heap)
	if small != large {
		t.Errorf("allocations grow with rows: %.0f per request of 64-row batches, %.0f of 1024-row batches", small, large)
	}
	// A datum slab of one 1,024-row batch alone is 13 × 1,024 cells.
	if slab := float64(13*1024) * float64(unsafe.Sizeof(types.Datum{})); heap > slab/4 {
		t.Errorf("%.0f bytes allocated per request; one batch's datum slab is %.0f", heap, slab)
	}
}
