package odbc_test

import (
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"hyperq/internal/odbc"
	"hyperq/internal/odbc/faultdriver"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/replay"
	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
)

// drainStream reads a stream to its terminal error, returning the events.
func drainStream(t *testing.T, st odbc.ResultStream) ([]cwp.StreamEvent, error) {
	t.Helper()
	var evs []cwp.StreamEvent
	for {
		ev, err := st.Next(context.Background())
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}

// countRows sums the rows across a stream's batch events, decoding the raw
// batches a network stream yields.
func countRows(evs []cwp.StreamEvent) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == cwp.StreamBatch {
			ev.Batch.DecodeRows()
			n += len(ev.Batch.Rows)
		}
	}
	return n
}

// OpenStream on the in-process executor uses the buffered fallback; the
// event sequence must match what the materializing path returns.
func TestOpenStreamBufferedFallback(t *testing.T) {
	eng := resilienceEngine(t)
	ex, err := (&odbc.LocalDriver{Engine: eng, User: "u"}).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	buffered, err := ex.ExecContext(context.Background(), "SELECT x FROM rt ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	st, err := odbc.OpenStream(context.Background(), ex, "SELECT x FROM rt ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	evs, serr := drainStream(t, st)
	if serr != io.EOF {
		t.Fatalf("terminal = %v, want io.EOF", serr)
	}
	if evs[0].Kind != cwp.StreamMeta || evs[len(evs)-1].Kind != cwp.StreamComplete {
		t.Fatalf("event shape wrong: %+v", evs)
	}
	if got, want := countRows(evs), len(buffered[0].Rows()); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}

	// A rowless statement is a single Complete event.
	st, err = odbc.OpenStream(context.Background(), ex, "INSERT INTO rt VALUES (4)")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	evs, serr = drainStream(t, st)
	if serr != io.EOF || len(evs) != 1 || evs[0].Kind != cwp.StreamComplete || evs[0].Affected != 1 {
		t.Fatalf("insert events = %+v (%v)", evs, serr)
	}
}

// A connection failure before the first event keeps the buffered retry
// semantics: reconnect, replay, re-execute — invisible to the consumer.
func TestResilientStreamPreEventFailureRetried(t *testing.T) {
	fd, rd, met := resilientStack(t)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	se := ex.(odbc.StreamExecutor)

	fd.QueueExecErrors(faultdriver.Dropped())
	st, err := se.ExecStream(context.Background(), "SELECT x FROM rt ORDER BY x")
	if err != nil {
		t.Fatalf("ExecStream after transient pre-event failure: %v", err)
	}
	evs, serr := drainStream(t, st)
	if serr != io.EOF {
		t.Fatalf("terminal = %v", serr)
	}
	if got := countRows(evs); got != 3 {
		t.Fatalf("rows = %d, want 3", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if met.Retries() != 1 {
		t.Errorf("retries = %d, want 1", met.Retries())
	}
	if fd.Connects() != 2 {
		t.Errorf("connects = %d, want 2 (reconnect after drop)", fd.Connects())
	}
}

// A pre-event connection failure on a write surfaces ErrMaybeApplied — the
// statement may have been applied, so it is never re-executed.
func TestResilientStreamPreEventWriteNotRetried(t *testing.T) {
	fd, rd, _ := resilientStack(t)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	se := ex.(odbc.StreamExecutor)

	fd.QueueExecErrors(faultdriver.Dropped())
	_, err = se.ExecStream(context.Background(), "INSERT INTO rt VALUES (9)")
	if !errors.Is(err, odbc.ErrMaybeApplied) {
		t.Fatalf("err = %v, want ErrMaybeApplied", err)
	}
	if fd.Execs() != 1 {
		t.Errorf("execs = %d, want 1 (no retry)", fd.Execs())
	}
}

// Once a batch has been delivered, a connection death is terminal: no
// retry, the dead connection is discarded, and the next request heals by
// reconnecting.
func TestResilientStreamMidStreamDropNotRetried(t *testing.T) {
	fd, rd, met := resilientStack(t)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	se := ex.(odbc.StreamExecutor)

	fd.DropAfterBatches(1)
	st, err := se.ExecStream(context.Background(), "SELECT x FROM rt ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	evs, serr := drainStream(t, st)
	if serr == nil || serr == io.EOF {
		t.Fatalf("terminal = %v, want connection error", serr)
	}
	if !odbc.ConnectionError(serr) {
		t.Fatalf("terminal %v is not a connection error", serr)
	}
	if got := countRows(evs); got != 3 {
		t.Fatalf("rows before drop = %d, want the full first batch (3)", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if fd.Execs() != 1 {
		t.Fatalf("execs = %d, want 1 — a mid-stream failure must never re-execute", fd.Execs())
	}
	if met.Retries() != 0 {
		t.Errorf("retries = %d, want 0", met.Retries())
	}

	// The executor heals on the next request by reconnecting.
	fd.DropAfterBatches(0)
	res, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt")
	if err != nil {
		t.Fatalf("request after mid-stream drop: %v", err)
	}
	if res[0].Rows()[0][0].I != 3 {
		t.Errorf("count = %v", res[0].Rows()[0][0])
	}
	if fd.Connects() != 2 {
		t.Errorf("connects = %d, want 2", fd.Connects())
	}
}

// A backend SQL failure mid-stream (error parcel, connection alive) is also
// terminal for the stream, but the connection survives: the next request
// reuses it without reconnecting.
func TestResilientStreamMidStreamBackendErrorKeepsConnection(t *testing.T) {
	fd, rd, _ := resilientStack(t)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	se := ex.(odbc.StreamExecutor)

	injected := &cwp.BackendError{Code: 3807, Message: "spool space exceeded mid-result"}
	fd.QueueStreamError(1, injected)
	st, err := se.ExecStream(context.Background(), "SELECT x FROM rt ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	evs, serr := drainStream(t, st)
	var be *cwp.BackendError
	if !errors.As(serr, &be) || be.Code != 3807 {
		t.Fatalf("terminal = %v, want injected backend error", serr)
	}
	if got := countRows(evs); got != 3 {
		t.Fatalf("rows before failure = %d, want 3", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if fd.Execs() != 1 {
		t.Fatalf("execs = %d, want 1 (no retry)", fd.Execs())
	}
	res, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt")
	if err != nil {
		t.Fatalf("request after backend error: %v", err)
	}
	if res[0].Rows()[0][0].I != 3 {
		t.Errorf("count = %v", res[0].Rows()[0][0])
	}
	if fd.Connects() != 1 {
		t.Errorf("connects = %d, want 1 — the connection must survive a SQL failure", fd.Connects())
	}
}

// Abandoning a live stream mid-result discards the (unsynchronizable)
// connection; the next request reconnects.
func TestResilientStreamAbandonDiscardsConnection(t *testing.T) {
	fd, rd, _ := resilientStack(t)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	se := ex.(odbc.StreamExecutor)

	st, err := se.ExecStream(context.Background(), "SELECT x FROM rt ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecContext(context.Background(), "SELECT 1"); err != nil {
		t.Fatalf("request after abandoned stream: %v", err)
	}
	if fd.Connects() != 2 {
		t.Errorf("connects = %d, want 2 (abandoned stream discarded the connection)", fd.Connects())
	}
}

// countingDriver counts the sessions its driver opens.
type countingDriver struct {
	odbc.Driver
	n atomic.Int64
}

func (d *countingDriver) Connect() (odbc.Executor, error) {
	d.n.Add(1)
	return d.Driver.Connect()
}

// countingListener counts the connections a backend accepts.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// Streaming settles stream capability once, at connect. Every executor type
// in the repository that streams natively must come back as the same value,
// so the optional interfaces the gateway asserts on its session executor
// (reconnect replay, divergence draining, pool pinning) keep holding, and
// ConnectContext must hand out exactly what Streaming does. A connect under
// a context that has already ended fails with its error and opens no
// backend session, through ConnectContext and through each driver's own
// ConnectContext method alike.
func TestStreamingKeepsNativeExecutors(t *testing.T) {
	eng := resilienceEngine(t)
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: tcp}
	defer ln.Close()
	go func() { _ = cwp.Serve(ln, eng) }()
	local := &countingDriver{Driver: &odbc.LocalDriver{Engine: eng, User: "u"}}
	p, err := pool.New(pool.Config{Driver: local, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	type pinner interface {
		Pin(context.Context) error
		Unpin()
	}
	cases := []struct {
		name                               string
		d                                  odbc.Driver
		native, reconnect, divergence, pin bool
	}{
		{name: "net", d: &odbc.NetworkDriver{Addr: ln.Addr().String(), User: "u", Password: "p"}, native: true},
		{name: "local", d: local},
		{name: "resilient", d: &odbc.ResilientDriver{Inner: local}, native: true, reconnect: true},
		{name: "replicated", d: &odbc.ReplicatedDriver{Replicas: []odbc.Driver{local, local}}, native: true, divergence: true},
		{name: "replicated-compare", d: &odbc.ReplicatedDriver{Replicas: []odbc.Driver{local, local}, Compare: (&replay.Differ{}).Compare}, native: true, divergence: true},
		{name: "pool", d: p, native: true, reconnect: true, pin: true},
		{name: "faultdriver", d: faultdriver.New(local), native: true},
	}

	ended, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range cases {
		if _, err := odbc.ConnectContext(ended, c.d); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: ConnectContext under an ended context: %v", c.name, err)
		}
		if cd, ok := c.d.(interface {
			ConnectContext(context.Context) (odbc.Executor, error)
		}); ok {
			if _, err := cd.ConnectContext(ended); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: its ConnectContext under an ended context: %v", c.name, err)
			}
		}
	}
	if n := local.n.Load(); n != 0 {
		t.Fatalf("%d in-process sessions opened under an ended context", n)
	}
	// The backend accepts connections in order, so once a live connect has
	// logged on, every earlier dial has been counted.
	live, err := (&odbc.NetworkDriver{Addr: ln.Addr().String(), User: "u", Password: "p"}).Connect()
	if err != nil {
		t.Fatal(err)
	}
	live.Close()
	if n := ln.n.Load(); n != 1 {
		t.Fatalf("backend accepted %d connections, want only the live one", n)
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw, err := c.d.Connect()
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			se := odbc.Streaming(raw)
			if same := odbc.Executor(se) == raw; same != c.native {
				t.Fatalf("Streaming returned the executor itself = %v, want %v", same, c.native)
			}
			_, ra := se.(odbc.ReconnectAware)
			_, ds := se.(odbc.DivergenceSource)
			_, pn := se.(pinner)
			if ra != c.reconnect || ds != c.divergence || pn != c.pin {
				t.Fatalf("ReconnectAware/DivergenceSource/pinner = %v/%v/%v, want %v/%v/%v",
					ra, ds, pn, c.reconnect, c.divergence, c.pin)
			}

			viaConnect, err := odbc.ConnectContext(context.Background(), c.d)
			if err != nil {
				t.Fatal(err)
			}
			defer viaConnect.Close()
			if got, want := reflect.TypeOf(viaConnect), reflect.TypeOf(se); got != want {
				t.Fatalf("ConnectContext returned %v, Streaming %v", got, want)
			}
			st, err := viaConnect.ExecStream(context.Background(), "SELECT x FROM rt ORDER BY x")
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			evs, serr := drainStream(t, st)
			if serr != io.EOF || countRows(evs) != 3 {
				t.Fatalf("stream: %d rows, terminal %v; want 3 rows, io.EOF", countRows(evs), serr)
			}
		})
	}
}

// collectOnly has the shape of an executor that cannot stream (a recording
// or canned test backend): ExecContext and Close, nothing else.
type collectOnly struct {
	results []*cwp.StatementResult
	err     error
	calls   int
}

func (e *collectOnly) ExecContext(context.Context, string) ([]*cwp.StatementResult, error) {
	e.calls++
	return e.results, e.err
}

func (e *collectOnly) Close() error { return nil }

// Streaming's adapter must replay ExecContext's answer event for event —
// metadata, every batch (the same batch values, in order), each statement's
// completion — and fail ExecStream itself when ExecContext fails.
func TestStreamingAdapterReplaysExecContext(t *testing.T) {
	cols := []tdf.ColumnMeta{{Name: "x", Type: types.Int}}
	b1 := &tdf.Batch{Cols: cols, Rows: [][]types.Datum{{types.NewInt(1)}, {types.NewInt(2)}}}
	b2 := &tdf.Batch{Cols: cols, Rows: [][]types.Datum{{types.NewInt(3)}}}
	empty := &tdf.Batch{Cols: cols}
	ex := &collectOnly{results: []*cwp.StatementResult{
		{Cols: cols, Batches: []*tdf.Batch{b1, b2}, Command: "SELECT"},
		{Command: "INSERT", Affected: 4},
		{Cols: cols, Batches: []*tdf.Batch{empty}, Command: "SELECT"},
	}}
	want := []cwp.StreamEvent{
		{Kind: cwp.StreamMeta, Cols: cols},
		{Kind: cwp.StreamBatch, Batch: b1},
		{Kind: cwp.StreamBatch, Batch: b2},
		{Kind: cwp.StreamComplete, Command: "SELECT"},
		{Kind: cwp.StreamComplete, Command: "INSERT", Affected: 4},
		{Kind: cwp.StreamMeta, Cols: cols},
		{Kind: cwp.StreamBatch, Batch: empty},
		{Kind: cwp.StreamComplete, Command: "SELECT"},
	}
	se := odbc.Streaming(ex)
	st, err := se.ExecStream(context.Background(), "SELECT x FROM t; INSERT INTO t VALUES (4); SELECT x FROM t WHERE 1=0")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	evs, serr := drainStream(t, st)
	if serr != io.EOF {
		t.Fatalf("terminal = %v, want io.EOF", serr)
	}
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i := range want {
		if evs[i].Batch != want[i].Batch || !reflect.DeepEqual(evs[i], want[i]) {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
	if ex.calls != 1 {
		t.Fatalf("ExecContext ran %d times, want 1", ex.calls)
	}

	boom := errors.New("backend rejected the request")
	ex.err = boom
	if _, err := se.ExecStream(context.Background(), "SELECT x FROM t"); !errors.Is(err, boom) {
		t.Fatalf("ExecStream error = %v, want ExecContext's", err)
	}
}
