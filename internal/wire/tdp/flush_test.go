package tdp

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"hyperq/internal/wire"
)

// The echo session's "BIG" answer: 1,000 records of 214 bytes, a little over
// three response buffers.
const (
	bigRows = 1000
	bigCell = 200
)

// writeLog records every Write the server makes on its connections.
type writeLog struct {
	mu     sync.Mutex
	writes [][]byte
}

func (l *writeLog) take() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.writes
	l.writes = nil
	return w
}

type loggingListener struct {
	net.Listener
	log *writeLog
}

func (l loggingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return loggingConn{Conn: c, log: l.log}, nil
}

type loggingConn struct {
	net.Conn
	log *writeLog
}

func (c loggingConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.log.writes = append(c.log.writes, append([]byte(nil), p...))
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// startLogged serves the echo handler through a listener whose connections
// log their writes, and returns a logged-on client with the log emptied.
func startLogged(t *testing.T) (*Client, *writeLog) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	log := &writeLog{}
	go func() { _ = Serve(loggingListener{Listener: ln, log: log}, &echoHandler{}) }()
	c, err := Dial(ln.Addr().String(), "app", "pw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	log.take() // the logon reply
	return c, log
}

// A response that fits the buffer leaves the server in one socket write,
// however many statements it has; its bytes are the parcels in order.
func TestSmallResponseIsOneWrite(t *testing.T) {
	c, log := startLogged(t)
	for _, sql := range []string{"ROWS", "OK", "MULTI", "FAIL"} {
		_, _ = c.Request(sql)
		if got := len(log.take()); got != 1 {
			t.Errorf("%s: %d socket writes, want 1", sql, got)
		}
	}

	// The multi-statement transcript is the one a flush per statement sent
	// in three writes: two Success parcels, then EndRequest.
	var want bytes.Buffer
	for _, s := range []struct {
		activity int64
		name     string
	}{{1, "INSERT"}, {2, "UPDATE"}} {
		var b wire.Buffer
		b.PutI64(s.activity)
		b.PutString(s.name)
		if err := wire.WriteMessage(&want, MsgSuccess, b.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := wire.WriteMessage(&want, MsgEndRequest, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("MULTI"); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(log.take(), nil); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("MULTI transcript = %x\nwant %x", got, want.Bytes())
	}
}

// A response larger than the buffer still goes out every time a record would
// not fit, so the server never holds more than one buffer of it.
func TestLargeResponseFlushesWhenBufferFills(t *testing.T) {
	c, log := startLogged(t)
	stmts, err := c.Request("BIG")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 || len(stmts[0].Rows) != bigRows {
		t.Fatalf("BIG answered %d statements", len(stmts))
	}
	writes := log.take()
	total := 0
	for _, w := range writes {
		total += len(w)
	}
	const record = 5 + 4 + 1 + 4 + bigCell
	if want := (total + responseBufferSize - 1) / responseBufferSize; len(writes) != want {
		t.Errorf("%d bytes in %d socket writes, want %d", total, len(writes), want)
	}
	for i, w := range writes[:len(writes)-1] {
		if len(w) > responseBufferSize || len(w) <= responseBufferSize-2*record {
			t.Errorf("write %d is %d bytes, want a full %d-byte buffer less under two records", i, len(w), responseBufferSize)
		}
	}
}
