package hyperq

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/israce"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/tdf"
	"hyperq/internal/wire"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
)

// wireStack is the production request path in one process: a tdp front
// with a client write timeout, a gateway with a backend deadline over a
// two-connection pool of resilient network connections, and a backend at
// beAddr.
type wireStack struct {
	g    *Gateway
	addr string
}

func newWireStack(t testing.TB, beAddr string, backendTimeout time.Duration) *wireStack {
	t.Helper()
	eng := engine.New(dialect.CloudA())
	if _, err := eng.NewSession().ExecSQL(`CREATE TABLE wide (
		id INTEGER, big BIGINT, qty INTEGER, score FLOAT, price DECIMAL(12,2), d DATE, ts TIMESTAMP,
		code CHAR(20), n1 VARCHAR(50), n2 VARCHAR(50), n3 VARCHAR(50), n4 VARCHAR(50), n5 VARCHAR(50))`); err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(pool.Config{
		Driver: &odbc.ResilientDriver{Inner: &odbc.NetworkDriver{Addr: beAddr}, Timeout: backendTimeout, Sleep: func(time.Duration) {}},
		Size:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	g, err := New(Config{
		Target:         dialect.CloudA(),
		Driver:         p,
		Pool:           p,
		Catalog:        eng.Catalog().Clone(),
		BackendTimeout: backendTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = tdp.ServeOptions(ln, g, tdp.Options{WriteTimeout: 30 * time.Second}) }()
	return &wireStack{g: g, addr: ln.Addr().String()}
}

// frameClient is a tdp client that allocates nothing per request: the
// request frame is encoded once and every parcel is read into one buffer.
type frameClient struct {
	c   net.Conn
	in  *bufio.Reader
	buf []byte
}

func dialFrames(t testing.TB, addr string) *frameClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var b wire.Buffer
	b.PutString("appuser")
	b.PutString("secret")
	if err := wire.WriteMessage(c, tdp.MsgLogon, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	fc := &frameClient{c: c, in: bufio.NewReader(c), buf: make([]byte, 64<<10)}
	if kind, _, err := wire.ReadMessageInto(fc.in, fc.buf); err != nil || kind != tdp.MsgLogonOK {
		t.Fatalf("logon: kind=0x%02x err=%v", kind, err)
	}
	return fc
}

// requestFrame encodes a request for send.
func requestFrame(sql string) []byte {
	var b wire.Buffer
	b.PutString(sql)
	var f frameBuf
	_ = wire.WriteMessage(&f, tdp.MsgRunRequest, b.Bytes())
	return f
}

type frameBuf []byte

func (f *frameBuf) Write(p []byte) (int, error) { *f = append(*f, p...); return len(p), nil }

// send writes one request frame and reads its response to the end; it
// returns the failure parcel's payload, nil when the request succeeded.
func (fc *frameClient) send(frame []byte) ([]byte, error) {
	if _, err := fc.c.Write(frame); err != nil {
		return nil, err
	}
	var failure []byte
	for {
		kind, payload, err := wire.ReadMessageInto(fc.in, fc.buf)
		if err != nil {
			return nil, err
		}
		if kind == tdp.MsgFailure {
			failure = append([]byte(nil), payload...)
		}
		if kind == tdp.MsgEndRequest {
			return failure, nil
		}
	}
}

// TestWireCacheHitAllocs counts the allocations of a request-tier cache hit
// served the way the gateway serves one in production: tdp in, a leased
// connection of a pool of resilient network connections out to a cwp
// backend, one batch back, streamed to the client. The count is the whole
// process's — client, gateway and the canned backend, which allocates one
// read buffer per query — and it is pinned at the measured value: it may only
// go down.
func TestWireCacheHitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's runtime changes allocation counts")
	}
	_, b := wideFixture(8, true)
	st := newWireStack(t, serveCannedCWP(t, b, 1), 30*time.Second)
	fc := dialFrames(t, st.addr)
	frame := requestFrame("SEL * FROM wide")
	for i := 0; i < 3; i++ { // the miss that fills both tiers, then warm hits
		if failure, err := fc.send(frame); err != nil || failure != nil {
			t.Fatalf("request: %v %s", err, failure)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if failure, err := fc.send(frame); err != nil || failure != nil {
			t.Fatalf("request: %v %s", err, failure)
		}
	})
	const budget = 19
	t.Logf("%.0f allocs/request", got)
	if got > budget {
		t.Errorf("%.0f allocs per request-tier hit over the wire, budget %d", got, budget)
	}
}

// stallingCWP is a cwp backend that answers every query with the metadata,
// one batch, the completion and the end of b's result, except that the
// first query it is sent stalls after the batch until the test ends.
func stallingCWP(t *testing.T, b *tdf.Batch) string {
	t.Helper()
	var meta, done wire.Buffer
	meta.PutU32(uint32(len(b.Cols)))
	for _, c := range b.Cols {
		meta.PutString(c.Name)
		meta.PutU8(uint8(c.Type.Kind))
		meta.PutU32(uint32(c.Type.Scale))
		meta.PutU8(uint8(c.Type.Elem))
	}
	done.PutString("SELECT")
	done.PutI64(int64(len(b.Rows)))
	var head, tail bytes.Buffer
	_ = wire.WriteMessage(&head, cwp.MsgMeta, meta.Bytes())
	_ = wire.WriteMessage(&head, cwp.MsgBatch, encoded(t, b))
	_ = wire.WriteMessage(&tail, cwp.MsgComplete, done.Bytes())
	_ = wire.WriteMessage(&tail, cwp.MsgEnd, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	t.Cleanup(func() { close(release); ln.Close() })
	var stalled atomic.Bool
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
					if _, err := conn.Write(head.Bytes()); err != nil {
						return
					}
					if stalled.CompareAndSwap(false, true) {
						<-release
						return
					}
					if _, err := conn.Write(tail.Bytes()); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// A backend that stalls mid-result past the backend deadline fails the
// request within the deadline (plus scheduling slack) with the code a
// client sees for a result interrupted after rows reached it, and the
// session's next request succeeds on a fresh backend connection. The
// deadline is the request's: nothing but the socket deadline and the
// request context end the stalled read, so a deadline that waited on a
// timer nobody armed would hang here.
func TestWireDeadlineMidResult(t *testing.T) {
	const timeout = 300 * time.Millisecond
	_, b := wideFixture(8, true)
	st := newWireStack(t, stallingCWP(t, b), timeout)
	fc := dialFrames(t, st.addr)
	_ = fc.c.SetDeadline(time.Now().Add(20 * time.Second))
	frame := requestFrame("SEL * FROM wide")
	start := time.Now()
	failure, err := fc.send(frame)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if failure == nil {
		t.Fatal("the stalled request succeeded")
	}
	if code := binary.BigEndian.Uint32(failure); code != tdp.CodeResultInterrupted {
		t.Errorf("stalled request failed with code %d (%s), want %d", code, failure[4:], tdp.CodeResultInterrupted)
	}
	if elapsed < timeout || elapsed > timeout+2*time.Second {
		t.Errorf("stalled request failed after %v, want the %v deadline", elapsed, timeout)
	}
	if failure, err := fc.send(frame); err != nil || failure != nil {
		t.Fatalf("next request: %v %s", err, failure)
	}
}

// A client cannot grow a session's settings without bound: 20,000 distinct
// SET SESSION options end at the bound's error (3707) within a second, the
// session keeps serving — an option it has can still be set, and a value
// that would push the settings past their byte bound fails alike — and a
// request-tier hit afterwards costs the allocations it costs in a fresh
// session.
func TestWireSessionSettingsBounded(t *testing.T) {
	_, b := wideFixture(8, true)
	st := newWireStack(t, serveCannedCWP(t, b, 1), 30*time.Second)
	query := requestFrame("SEL * FROM wide")
	hitAllocs := func(fc *frameClient) float64 {
		t.Helper()
		for i := 0; i < 3; i++ {
			if failure, err := fc.send(query); err != nil || failure != nil {
				t.Fatalf("request: %v %s", err, failure)
			}
		}
		return testing.AllocsPerRun(100, func() {
			if failure, err := fc.send(query); err != nil || failure != nil {
				t.Fatalf("request: %v %s", err, failure)
			}
		})
	}
	failCode := func(failure []byte) uint32 {
		if len(failure) < 4 {
			return 0
		}
		return binary.BigEndian.Uint32(failure)
	}
	fresh := hitAllocs(dialFrames(t, st.addr))

	fc := dialFrames(t, st.addr)
	const sets, perRequest = 20000, 1000
	start := time.Now()
	var last []byte
	for n := 0; n < sets; n += perRequest {
		var sql bytes.Buffer
		for i := n; i < n+perRequest; i++ {
			fmt.Fprintf(&sql, "SET SESSION OPT%05d = 'v';", i)
		}
		failure, err := fc.send(requestFrame(sql.String()))
		if err != nil {
			t.Fatal(err)
		}
		if code := failCode(failure); code != tdp.CodeSemanticError {
			t.Fatalf("SETs %d-%d: failure code %d (%s), want %d", n, n+perRequest-1, code, failure, tdp.CodeSemanticError)
		}
		last = failure
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("%d SETs took %v, want under a second", sets, elapsed)
	}
	t.Logf("the last SET failed with %s", last[8:])
	if failure, err := fc.send(requestFrame("SET SESSION DATEFORM = ansidate")); err != nil || failure != nil {
		t.Fatalf("re-setting an existing option: %v %s", err, failure)
	}
	long := requestFrame("SET SESSION DATEFORM = '" + strings.Repeat("x", maxSettingsSigBytes) + "'")
	if failure, err := fc.send(long); err != nil || failCode(failure) != tdp.CodeSemanticError {
		t.Fatalf("a value past the byte bound: %v %s", err, failure)
	}
	// Under the race detector sync.Pool drops Puts at random, so the two
	// counts are compared only without it.
	if bounded := hitAllocs(fc); bounded != fresh && !israce.Enabled {
		t.Errorf("a request-tier hit costs %.0f allocations in a session at its settings bound, %.0f in a fresh one", bounded, fresh)
	}
}
