package canned

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/tdf"
	"hyperq/internal/wire/cwp"
)

// recordSome runs a few statements of different shapes (DDL, DML, an empty
// result, a multi-row result, a multi-statement request) through a recording
// driver on a real engine.
func recordSome(t *testing.T) (*Table, map[string][]*cwp.StatementResult) {
	t.Helper()
	table := NewTable()
	ex, err := (&Recorder{Inner: &odbc.LocalDriver{Engine: engine.New(dialect.CloudA())}, Table: table}).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	want := make(map[string][]*cwp.StatementResult)
	for _, sql := range []string{
		"CREATE TABLE t (a INTEGER, b VARCHAR(10), c DECIMAL(8,2), d DATE)",
		"INSERT INTO t VALUES (1, 'x', 1.50, DATE '2020-01-02'), (2, NULL, NULL, NULL), (3, 'zzz', -7.25, DATE '1999-12-31')",
		"SELECT a, b, c, d FROM t ORDER BY a",
		"SELECT a FROM t WHERE a > 100",
		"SELECT COUNT(*) FROM t; SELECT b FROM t WHERE a = 3",
	} {
		res, err := ex.ExecContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want[sql] = res
	}
	return table, want
}

// flatten reduces a statement result to what the wire carries, so results
// that differ only in how rows were batched compare equal.
type flat struct {
	Cols     []tdf.ColumnMeta
	Rows     [][]string
	Command  string
	Affected int64
}

func flatten(rs []*cwp.StatementResult) []flat {
	out := make([]flat, len(rs))
	for i, r := range rs {
		f := flat{Command: r.Command, Affected: r.Affected}
		for _, c := range r.Cols {
			// MsgMeta carries kind, scale and element kind; lengths and
			// precisions do not cross the wire.
			c.Type.Length, c.Type.Precision = 0, 0
			f.Cols = append(f.Cols, c)
		}
		for _, row := range r.Rows() {
			var cells []string
			for _, d := range row {
				cells = append(cells, d.SQLLiteral())
			}
			f.Rows = append(f.Rows, cells)
		}
		out[i] = f
	}
	return out
}

func TestServerReplaysRecordedResults(t *testing.T) {
	table, want := recordSome(t)
	srv, err := Serve(table)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := cwp.Dial(srv.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for sql, results := range want {
		// Buffered.
		got, err := c.ExecContext(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !reflect.DeepEqual(flatten(got), flatten(results)) {
			t.Errorf("buffered %s:\n got %+v\nwant %+v", sql, flatten(got), flatten(results))
		}
		// Streamed: reassemble the events into statement results.
		st, err := c.ExecStreamContext(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var streamed []*cwp.StatementResult
		cur := &cwp.StatementResult{}
		for {
			ev, err := st.Next(ctx)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("stream %s: %v", sql, err)
			}
			switch ev.Kind {
			case cwp.StreamMeta:
				cur.Cols = ev.Cols
			case cwp.StreamBatch:
				cur.Batches = append(cur.Batches, ev.Batch)
			case cwp.StreamComplete:
				cur.Command, cur.Affected = ev.Command, ev.Affected
				streamed = append(streamed, cur)
				cur = &cwp.StatementResult{}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flatten(streamed), flatten(results)) {
			t.Errorf("streamed %s:\n got %+v\nwant %+v", sql, flatten(streamed), flatten(results))
		}
	}
	// The server counts a query once its reply is written, which the client
	// may observe first; closing both sides settles the count.
	_ = c.Close()
	srv.Close()
	if q, _ := srv.Service(); q != int64(2*len(want)) {
		t.Errorf("server answered %d queries, want %d", q, 2*len(want))
	}
}

func TestUnknownSQLIsABackendErrorAndCounted(t *testing.T) {
	table, _ := recordSome(t)
	srv, err := Serve(table)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := cwp.Dial(srv.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT never_recorded")
	var be *cwp.BackendError
	if !errors.As(err, &be) {
		t.Fatalf("unknown SQL: got %v, want a backend error", err)
	}
	// The connection stays usable after the error.
	if _, err := c.Exec("SELECT a FROM t WHERE a > 100"); err != nil {
		t.Fatalf("after an unknown statement: %v", err)
	}
	if n, texts := table.Misses(); n != 1 || len(texts) != 1 || texts[0] != "SELECT never_recorded" {
		t.Errorf("misses = %d %q, want the one unknown text", n, texts)
	}
}

func TestInProcessDriverMatchesTable(t *testing.T) {
	table, want := recordSome(t)
	ex, err := (&Driver{Table: table}).Connect()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for sql, results := range want {
		got, err := ex.ExecContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flatten(got), flatten(results)) {
			t.Errorf("%s: in-process driver disagrees with the recording", sql)
		}
		st, err := odbc.OpenStream(ctx, ex, sql)
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		for {
			if _, err := st.Next(ctx); err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				break
			}
			events++
		}
		if events == 0 {
			t.Errorf("%s: stream yielded no events", sql)
		}
	}
	var unknown *UnknownSQLError
	if _, err := ex.ExecContext(ctx, "SELECT nope"); !errors.As(err, &unknown) {
		t.Errorf("unknown SQL: got %v", err)
	}
}

func TestRecordRejectsStateDependentReply(t *testing.T) {
	table := NewTable()
	mk := func(n int64) []*cwp.StatementResult {
		return []*cwp.StatementResult{{Command: "INSERT", Affected: n}}
	}
	if err := table.Record("INSERT INTO t SELECT * FROM t", mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := table.Record("INSERT INTO t SELECT * FROM t", mk(1)); err != nil {
		t.Fatalf("identical re-recording: %v", err)
	}
	if err := table.Record("INSERT INTO t SELECT * FROM t", mk(2)); err == nil {
		t.Fatal("a reply that changed between recordings was accepted")
	}
}
