package tdp

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hyperq/internal/types"
	"hyperq/internal/wire"
)

// panicHandler serves sessions whose Request panics on the "BOOM" request.
type panicHandler struct{}

func (panicHandler) Logon(user, password string) (SessionHandler, error) {
	return &panicSession{}, nil
}

type panicSession struct{}

func (s *panicSession) Request(sql string, w ResponseWriter) error {
	if sql == "BOOM" {
		panic("handler bug")
	}
	return w.EndStatement(1, "OK")
}

func (s *panicSession) Close() {}

// A panicking session handler must tear down only its own connection; the
// server keeps accepting and serving other sessions.
func TestServeRecoversSessionPanic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = Serve(ln, panicHandler{}) }()

	victim, err := Dial(ln.Addr().String(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	if _, err := victim.Request("BOOM"); err == nil {
		t.Fatal("panicking request reported success")
	}

	// The server survived: a fresh session still works end to end.
	survivor, err := Dial(ln.Addr().String(), "u", "p")
	if err != nil {
		t.Fatalf("logon after handler panic: %v", err)
	}
	defer survivor.Close()
	stmts, err := survivor.Request("SELECT 1")
	if err != nil {
		t.Fatalf("request after handler panic: %v", err)
	}
	if len(stmts) != 1 || stmts[0].Command != "OK" {
		t.Fatalf("stmts = %+v", stmts)
	}
}

// scriptListener replays a fixed sequence of Accept outcomes, then reports
// closed.
type scriptListener struct {
	mu     sync.Mutex
	script []any // net.Conn or error
}

func (l *scriptListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.script) == 0 {
		return nil, net.ErrClosed
	}
	v := l.script[0]
	l.script = l.script[1:]
	switch v := v.(type) {
	case net.Conn:
		return v, nil
	case error:
		return nil, v
	}
	panic("bad script entry")
}

func (l *scriptListener) Close() error   { return nil }
func (l *scriptListener) Addr() net.Addr { return &net.TCPAddr{} }

// Serve must survive transient Accept failures and still serve the
// connection that follows them.
func TestServeSurvivesTransientAccept(t *testing.T) {
	server, client := net.Pipe()
	ln := &scriptListener{script: []any{
		&net.OpError{Op: "accept", Err: syscall.ECONNABORTED},
		&net.OpError{Op: "accept", Err: syscall.EMFILE},
		server,
	}}
	done := make(chan error, 1)
	go func() { done <- Serve(ln, panicHandler{}) }()

	var b wire.Buffer
	b.PutString("u")
	b.PutString("p")
	if err := wire.WriteMessage(client, MsgLogon, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	kind, _, err := wire.ReadMessage(client)
	if err != nil || kind != MsgLogonOK {
		t.Fatalf("logon after transient accepts: kind=0x%02x err=%v", kind, err)
	}
	client.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve exited with %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not exit on closed listener")
	}
}

// countConn counts the socket writes and the write deadlines armed on it.
type countConn struct {
	net.Conn
	mu                sync.Mutex
	writes, deadlines int
}

func (c *countConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadlines++
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// rowsHandler answers every request with n one-column rows.
type rowsHandler struct{ n int }

func (h rowsHandler) Logon(user, password string) (SessionHandler, error) { return h, nil }
func (h rowsHandler) Close()                                              {}

func (h rowsHandler) Request(sql string, w ResponseWriter) error {
	if err := w.BeginResultSet([]ColumnDef{{Name: "v", Type: types.Int}}); err != nil {
		return err
	}
	for i := 0; i < h.n; i++ {
		if err := w.Row([]types.Datum{types.NewInt(int64(i))}); err != nil {
			return err
		}
	}
	return w.EndStatement(int64(h.n), "SELECT")
}

// The write deadline is armed once for each write that reaches the socket —
// a few per buffer-full of parcels — not once per parcel.
func TestWriteDeadlineArmedPerSocketWrite(t *testing.T) {
	const rows = 20000
	server, client := net.Pipe()
	conn := &countConn{Conn: server}
	ln := &scriptListener{script: []any{conn}}
	go func() { _ = ServeOptions(ln, rowsHandler{n: rows}, Options{WriteTimeout: time.Minute}) }()

	var b wire.Buffer
	b.PutString("u")
	b.PutString("p")
	if err := wire.WriteMessage(client, MsgLogon, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	c := &Client{conn: client}
	if kind, _, err := wire.ReadMessage(client); err != nil || kind != MsgLogonOK {
		t.Fatalf("logon: kind=0x%02x err=%v", kind, err)
	}
	stmts, err := c.Request("ROWS")
	if err != nil || len(stmts) != 1 || len(stmts[0].Rows) != rows {
		t.Fatalf("request: %v, %+v", err, stmts)
	}
	client.Close()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.deadlines != conn.writes {
		t.Errorf("%d deadlines armed for %d socket writes", conn.deadlines, conn.writes)
	}
	if conn.writes == 0 || conn.writes > rows/100 {
		t.Errorf("%d socket writes for %d rows", conn.writes, rows)
	}
}

// failingConn is a server connection whose writes fail once broken is set,
// as a client that has gone away makes them fail.
type failingConn struct {
	net.Conn
	broken atomic.Bool
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, syscall.EPIPE
	}
	return c.Conn.Write(p)
}

// A flush that fails ends the connection: the server must not go on to read
// a next request from a client its reply never reached. Both flushes of the
// conversation are covered, the logon reply's and the end of a request's.
func TestFailedFlushClosesConnection(t *testing.T) {
	for _, tc := range []struct {
		name       string
		afterLogon bool // the writes break after the logon reply instead of before
	}{
		{name: "logon reply", afterLogon: false},
		{name: "end of request", afterLogon: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server, client := net.Pipe()
			defer client.Close()
			conn := &failingConn{Conn: server}
			conn.broken.Store(!tc.afterLogon)
			go serveConn(conn, &echoHandler{}, Options{})

			var b wire.Buffer
			b.PutString("u")
			b.PutString("p")
			if err := wire.WriteMessage(client, MsgLogon, b.Bytes()); err != nil {
				t.Fatal(err)
			}
			if tc.afterLogon {
				if kind, _, err := wire.ReadMessage(client); err != nil || kind != MsgLogonOK {
					t.Fatalf("logon: kind=0x%02x err=%v", kind, err)
				}
				conn.broken.Store(true)
				var req wire.Buffer
				req.PutString("OK")
				if err := wire.WriteMessage(client, MsgRunRequest, req.Bytes()); err != nil {
					t.Fatal(err)
				}
			}
			_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := wire.ReadMessage(client); !errors.Is(err, io.EOF) {
				t.Fatalf("read after the failed flush: %v, want io.EOF (connection closed)", err)
			}
		})
	}
}
