package cwp

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"hyperq/internal/tdf"
	"hyperq/internal/wire"
)

// collect drains a stream into its event list, returning the terminal error.
func collect(t *testing.T, s *Stream) ([]StreamEvent, error) {
	t.Helper()
	var evs []StreamEvent
	for {
		ev, err := s.Next(context.Background())
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.ExecStreamContext(context.Background(), "SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	evs, err := collect(t, st)
	if err != io.EOF {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	if len(evs) != 3 {
		t.Fatalf("events = %d, want meta+batch+complete", len(evs))
	}
	if evs[0].Kind != StreamMeta || len(evs[0].Cols) != 2 || evs[0].Cols[0].Name != "a" {
		t.Fatalf("meta = %+v", evs[0])
	}
	if evs[1].Kind != StreamBatch || len(decodedRows(evs[1].Batch)) != 2 {
		t.Fatalf("batch = %+v", evs[1])
	}
	if evs[2].Kind != StreamComplete || evs[2].Command != "SELECT" {
		t.Fatalf("complete = %+v", evs[2])
	}
	if c.Broken() {
		t.Fatal("clean stream broke the client")
	}
	// The connection stays synchronized for buffered requests.
	if _, err := c.Exec("SELECT 1"); err != nil {
		t.Fatalf("post-stream exec: %v", err)
	}
}

func TestStreamMultiStatement(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.ExecStreamContext(context.Background(), "INSERT INTO t (a) VALUES (7); SELECT COUNT(*) FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	evs, err := collect(t, st)
	if err != io.EOF {
		t.Fatalf("terminal error = %v", err)
	}
	// INSERT: complete only. SELECT: meta+batch+complete.
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	if evs[0].Kind != StreamComplete || evs[0].Command != "INSERT" || evs[0].Affected != 1 {
		t.Fatalf("insert complete = %+v", evs[0])
	}
	if evs[1].Kind != StreamMeta || evs[2].Kind != StreamBatch || evs[3].Kind != StreamComplete {
		t.Fatalf("select events = %+v", evs[1:])
	}
}

func TestStreamMatchesBufferedExec(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sql = "SELECT a, b, c, d FROM t ORDER BY a"
	buffered, err := c.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.ExecStreamContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := collect(t, st)
	if err != io.EOF {
		t.Fatal(err)
	}
	var streamed []*tdf.Batch
	for _, ev := range evs {
		if ev.Kind == StreamBatch {
			streamed = append(streamed, ev.Batch)
		}
	}
	if len(streamed) != len(buffered[0].Batches) {
		t.Fatalf("batches: streamed %d, buffered %d", len(streamed), len(buffered[0].Batches))
	}
	want := buffered[0].Rows()
	var got int
	for _, b := range streamed {
		got += len(decodedRows(b))
	}
	if got != len(want) {
		t.Fatalf("rows: streamed %d, buffered %d", got, len(want))
	}
}

func TestStreamBackendErrorKeepsConnection(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A failed request surfaces as a terminal *BackendError and the
	// connection must stay synchronized (MsgError is followed by MsgEnd,
	// which the stream consumes).
	st, err := c.ExecStreamContext(context.Background(), "SELECT a FROM no_such_table")
	if err != nil {
		t.Fatal(err)
	}
	_, err = collect(t, st)
	var be *BackendError
	if !errors.As(err, &be) {
		t.Fatalf("terminal error = %v, want *BackendError", err)
	}
	if c.Broken() {
		t.Fatal("backend error broke the connection")
	}
	if _, err := c.Exec("SELECT 1"); err != nil {
		t.Fatalf("post-error exec: %v", err)
	}
}

func TestStreamAbandonBreaksClient(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.ExecStreamContext(context.Background(), "SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	// Abandon mid-result: the request/response protocol cannot be
	// re-synchronized, so the connection must be condemned.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !c.Broken() {
		t.Fatal("abandoned stream did not mark the client broken")
	}
	if _, err := c.Exec("SELECT 1"); err == nil {
		t.Fatal("exec on a desynchronized connection succeeded")
	}
	// Close is idempotent.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamContextCancel(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	st, err := c.ExecStreamContext(ctx, "SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	// Consume what is buffered, then cancel: Next must return promptly with
	// the context error even if the reader is blocked.
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		var ev StreamEvent
		done := make(chan error, 1)
		go func() {
			var err error
			ev, err = st.Next(ctx)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				_ = ev
				continue
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("terminal error = %v, want context.Canceled", err)
			}
			if !c.Broken() {
				t.Fatal("cancelled stream did not mark the client broken")
			}
			_ = st.Close()
			return
		case <-deadline:
			t.Fatal("Next did not return after cancel")
		}
	}
}

// A backend process dying mid-request sends a socket EOF where protocol
// messages should be. io.EOF is the stream's clean-end sentinel, so the
// reader must rewrite it — otherwise a killed backend reads as a successful
// empty result.
func TestStreamBackendDeathIsNotCleanEOF(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Minimal logon handshake, then die on the first query.
		if kind, _, err := wire.ReadMessage(conn); err != nil || kind != MsgLogon {
			conn.Close()
			return
		}
		var ok wire.Buffer
		ok.PutU32(1)
		_ = wire.WriteMessage(conn, MsgLogonOK, ok.Bytes())
		_, _, _ = wire.ReadMessage(conn) // the query
		conn.Close()                     // FIN mid-request: reader sees bare EOF
	}()

	c, err := Dial(ln.Addr().String(), "user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.ExecStreamContext(context.Background(), "SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, serr := collect(t, st)
	if serr == nil || serr == io.EOF {
		t.Fatalf("terminal = %v — backend death read as a clean end of stream", serr)
	}
	if !errors.Is(serr, io.ErrUnexpectedEOF) {
		t.Fatalf("terminal = %v, want an unexpected-EOF connection error", serr)
	}
}

func TestStreamExpiredContext(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ExecStreamContext(ctx, "SELECT 1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The request was never sent: the connection is still usable.
	if _, err := c.Exec("SELECT 1"); err != nil {
		t.Fatalf("exec after refused stream: %v", err)
	}
}

// Next reads in its caller's goroutine: a streamed request, one batch or
// several, starts no goroutine at any event, cancel hook included.
func TestStreamStartsNoGoroutine(t *testing.T) {
	for _, nbatches := range []int{1, 4} {
		c, err := Dial(serveCanned(t, cannedReply(t, nbatches, 64)), "user", "pw")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		base := runtime.NumGoroutine()
		st, err := c.ExecStreamContext(ctx, "SELECT * FROM wide")
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		for {
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d-batch request, after %d events: %d goroutines, %d before the request", nbatches, events, n, base)
			}
			_, err := st.Next(ctx)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			events++
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d-batch request, at io.EOF: %d goroutines, %d before the request", nbatches, n, base)
		}
		if events != nbatches+2 {
			t.Fatalf("%d-batch request: %d events, want meta, batches, complete", nbatches, events)
		}
		cancel()
		c.Close()
	}
}

// stallServer completes the logon, reads one query, writes prefix (whole wire
// messages) and then goes silent until the test ends.
func stallServer(t *testing.T, prefix []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	quit := make(chan struct{})
	t.Cleanup(func() { close(quit); ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if kind, _, err := wire.ReadMessage(conn); err != nil || kind != MsgLogon {
			return
		}
		var ok wire.Buffer
		ok.PutString("session")
		_ = wire.WriteMessage(conn, MsgLogonOK, ok.Bytes())
		_, _, _ = wire.ReadMessage(conn) // the query
		_, _ = conn.Write(prefix)
		<-quit
	}()
	return ln.Addr().String()
}

// A Next blocked on a backend that stopped answering returns ctx's error
// promptly once another goroutine cancels ctx, and condemns the connection —
// both under the context the stream's first Next watched and after a hand-over
// to a second context, as the gateway's fetch stage does at a second batch.
func TestStreamCancelUnblocksStalledRead(t *testing.T) {
	reply := cannedReply(t, 1, 8)
	// The reply's first message is the metadata: [kind][u32 length][payload].
	metaLen := 5 + (int(reply[1])<<24 | int(reply[2])<<16 | int(reply[3])<<8 | int(reply[4]))
	for _, handOver := range []bool{false, true} {
		var prefix []byte
		if handOver {
			prefix = reply[:metaLen]
		}
		c, err := Dial(stallServer(t, prefix), "user", "pw")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		st, err := c.ExecStreamContext(ctx, "SELECT * FROM wide")
		if err != nil {
			t.Fatal(err)
		}
		if handOver {
			// The first event under a context that is never cancelled: only
			// the hook moved to ctx by the next Next can unblock it.
			first, stopFirst := context.WithCancel(context.Background())
			defer stopFirst()
			if ev, err := st.Next(first); err != nil || ev.Kind != StreamMeta {
				t.Fatalf("first event = %+v, %v; want the metadata", ev, err)
			}
		}
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err = st.Next(ctx)
		if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > time.Second {
			t.Errorf("hand-over %v: Next returned after %v, want within 1s of the cancel at 50ms", handOver, elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("hand-over %v: Next = %v, want context.Canceled", handOver, err)
		}
		if !c.Broken() {
			t.Errorf("hand-over %v: a cancelled stream left the client usable", handOver)
		}
		if _, err := st.Next(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("hand-over %v: Next after the terminal event = %v, want it repeated", handOver, err)
		}
		_ = st.Close()
		c.Close()
	}
}

// Cancelling the context after the stream ended cleanly does not touch the
// connection: the cancel hook is gone with the stream, so a cancel that lands
// while the client's next request is in flight poisons no deadline, and that
// request completes.
func TestStreamCancelAfterEOFKeepsClient(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	st, err := c.ExecStreamContext(ctx, "SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := st.Next(ctx); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("first request: terminal error = %v, want io.EOF", err)
			}
			break
		}
	}
	next, err := c.ExecStreamContext(context.Background(), "SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	time.Sleep(10 * time.Millisecond) // room for a hook that wrongly survived to run
	evs, err := collect(t, next)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("request after the cancel: terminal error = %v, want io.EOF", err)
	}
	if len(evs) != 3 || len(decodedRows(evs[1].Batch)) != 2 {
		t.Fatalf("request after the cancel: events %+v", evs)
	}
	if c.Broken() {
		t.Fatal("a cancel after io.EOF broke the client")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// A cancel that lands after the last event was read but before the stream
// reached its end must not pass for a clean end: the hook has poisoned the
// socket deadline, so the stream ends with ctx's error and a broken client,
// which the layers above drop instead of handing to the next lease. The rest
// of the reply is already in the read buffer, so the read itself succeeds.
func TestStreamCancelBeforeEndIsNotCleanEOF(t *testing.T) {
	c, err := Dial(serveCanned(t, cannedReply(t, 1, 8)), "user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fired := make(chan struct{})
	hook := c.interrupt
	c.interrupt = func() { hook(); close(fired) }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := c.ExecStreamContext(ctx, "SELECT * FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []StreamEventKind{StreamMeta, StreamBatch, StreamComplete} {
		if ev, err := st.Next(ctx); err != nil || ev.Kind != want {
			t.Fatalf("event = %+v, %v; want kind %d", ev, err, want)
		}
	}
	cancel()
	<-fired
	_, err = st.Next(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Next after the hook fired = %v, want context.Canceled", err)
	}
	if !c.Broken() {
		t.Error("a fired hook left the client usable")
	}
	if _, err := c.ExecContext(context.Background(), "SELECT 1"); err == nil {
		t.Error("a request on the poisoned connection succeeded")
	}
}
