package hyperq

import (
	"bytes"
	"fmt"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/faultdriver"
	"hyperq/internal/wire"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/workload/customer"
)

// bigRowPad is the filler column of the streaming tests' large results:
// ~300 bytes per row, so a TDF batch (1024 rows) carries ~300 KiB.
var bigRowPad = strings.Repeat("x", 300)

// bigTableEngine loads a backend engine with BIG: seedN³ rows of ~300 bytes
// each, built by a cross-join insert so the setup stays cheap.
func bigTableEngine(t *testing.T, target *dialect.Profile, seedN int) *engine.Engine {
	t.Helper()
	eng := engine.New(target)
	s := eng.NewSession()
	for _, sql := range []string{
		"CREATE TABLE SEED (I INT)",
		"CREATE TABLE BIG (PAD VARCHAR(400))",
	} {
		if _, err := s.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < seedN; i++ {
		if _, err := s.ExecSQL(fmt.Sprintf("INSERT INTO SEED VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ExecSQL(fmt.Sprintf(
		"INSERT INTO BIG SELECT '%s' FROM SEED a, SEED b, SEED c", bigRowPad)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// streamStack is a full Figure 1(b) wire stack with a fault-injection layer
// between the gateway and the backend: TDP client → gateway → resilient
// driver → faultdriver → CWP → engine.
type streamStack struct {
	g    *Gateway
	fd   *faultdriver.Driver
	met  *odbc.ResilienceMetrics
	addr string
}

// newStreamStack builds the stack over a fresh backend. tune, when given,
// adjusts the gateway (its result-memory bounds) before it serves.
func newStreamStack(t *testing.T, target *dialect.Profile, eng *engine.Engine, cfg Config, opts tdp.Options, tune ...func(*Gateway)) *streamStack {
	t.Helper()
	return newStreamStackVia(t, target, eng, serveBackend(t, eng), cfg, opts, tune...)
}

// serveBackend starts a CWP server over eng and returns its address.
func serveBackend(t *testing.T, eng *engine.Engine) string {
	t.Helper()
	beLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { beLn.Close() })
	go func() { _ = cwp.Serve(beLn, eng) }()
	return beLn.Addr().String()
}

// newStreamStackVia builds the gateway against an explicit backend address
// (possibly a fault-injecting proxy rather than the backend itself).
func newStreamStackVia(t *testing.T, target *dialect.Profile, eng *engine.Engine, beAddr string, cfg Config, opts tdp.Options, tune ...func(*Gateway)) *streamStack {
	t.Helper()
	fd := faultdriver.New(&odbc.NetworkDriver{Addr: beAddr, User: "gw", Password: "pw"})
	met := &odbc.ResilienceMetrics{}
	cfg.Target = target
	cfg.Driver = &odbc.ResilientDriver{Inner: fd, Metrics: met, Sleep: func(time.Duration) {}}
	cfg.Catalog = eng.Catalog().Clone()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tune {
		f(g)
	}
	feLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { feLn.Close() })
	go func() { _ = tdp.ServeOptions(feLn, g, opts) }()
	return &streamStack{g: g, fd: fd, met: met, addr: feLn.Addr().String()}
}

// withResultBudget and withResultCap shrink the gateway's result-memory
// bounds so a test-sized result crosses them.
func withResultBudget(n int64) func(*Gateway) { return func(g *Gateway) { g.resultBudget = n } }
func withResultCap(n int64) func(*Gateway)    { return func(g *Gateway) { g.resultCap = n } }

// rawConn is a parcel-level TDP client: the tests drive reads one parcel at
// a time to model slow, stalled, and vanished clients.
type rawConn struct {
	t *testing.T
	c net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var b wire.Buffer
	b.PutString("appuser")
	b.PutString("secret")
	if err := wire.WriteMessage(c, tdp.MsgLogon, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	kind, _, err := wire.ReadMessage(c)
	if err != nil || kind != tdp.MsgLogonOK {
		t.Fatalf("logon: kind=0x%02x err=%v", kind, err)
	}
	return &rawConn{t: t, c: c}
}

func (r *rawConn) request(sql string) {
	r.t.Helper()
	var b wire.Buffer
	b.PutString(sql)
	if err := wire.WriteMessage(r.c, tdp.MsgRunRequest, b.Bytes()); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) read() (byte, []byte, error) { return wire.ReadMessage(r.c) }

func (r *rawConn) close() { _ = r.c.Close() }

// settleGoroutines waits for the goroutine count to drop back to the
// baseline, failing the test if it never does (a leaked pipeline stage,
// stream reader, or server session).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// The acceptance e2e: a result ~10x the configured result budget streams
// through the gateway to a slow client while the gateway-wide in-flight
// gauge never exceeds the budget, and is fully reconciled to zero after.
func TestStreamingBackpressureBoundsResultMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("large streamed result")
	}
	target := dialect.CloudA()
	const budget = 768 << 10             // ~2.5 TDF batches of BIG rows
	eng := bigTableEngine(t, target, 30) // 27000 rows × ~305 B ≈ 8.2 MiB ≥ 10× budget
	st := newStreamStack(t, target, eng, Config{}, tdp.Options{}, withResultBudget(budget))

	c := dialRaw(t, st.addr)
	defer c.close()
	c.request("SEL PAD FROM BIG")
	var rows, payloadBytes int
	for {
		kind, payload, err := c.read()
		if err != nil {
			t.Fatalf("read after %d rows: %v", rows, err)
		}
		if kind == tdp.MsgRecord {
			rows++
			payloadBytes += len(payload)
			if rows%2048 == 0 {
				time.Sleep(2 * time.Millisecond) // slow reader: let backpressure engage
			}
		}
		if kind == tdp.MsgFailure {
			r := wire.NewReader(payload)
			t.Fatalf("request failed [%d]: %s", r.U32(), r.String())
		}
		if kind == tdp.MsgEndRequest {
			break
		}
	}
	if rows != 27000 {
		t.Fatalf("rows = %d, want 27000", rows)
	}
	if payloadBytes < 10*budget {
		t.Fatalf("result size %d < 10x budget %d — test data too small to prove anything", payloadBytes, 10*budget)
	}
	m := st.g.MetricsSnapshot()
	if m.StreamedResults != 1 {
		t.Errorf("streamed results = %d, want 1", m.StreamedResults)
	}
	if m.ResultPeakBytes == 0 {
		t.Error("in-flight peak is zero — the accountant never saw the result")
	}
	if m.ResultPeakBytes > budget {
		t.Errorf("in-flight peak %d exceeded the %d budget", m.ResultPeakBytes, budget)
	}
	if got := st.g.ResultInflightBytes(); got != 0 {
		t.Errorf("in-flight gauge = %d after request end, want 0 (leaked reservation)", got)
	}
}

// A client that stops reading entirely is evicted once a frontend write
// stalls past the write deadline; the gauge drains and the gateway stays
// healthy for other sessions.
func TestStreamingSlowClientEvicted(t *testing.T) {
	if testing.Short() {
		t.Skip("stalls for the write deadline")
	}
	target := dialect.CloudA()
	eng := bigTableEngine(t, target, 40) // 64000 rows ≈ 19.5 MiB: larger than socket+bufio capacity
	st := newStreamStack(t, target, eng, Config{},
		tdp.Options{WriteTimeout: 300 * time.Millisecond}, withResultBudget(512<<10))

	c := dialRaw(t, st.addr)
	defer c.close()
	// Shrink the client's receive window so kernel buffering cannot absorb
	// the whole result while the application stalls.
	if tc, ok := c.c.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(32 << 10)
	}
	c.request("SEL PAD FROM BIG")
	// Read a little, then stall far past the write deadline.
	for rows := 0; rows < 100; {
		kind, _, err := c.read()
		if err != nil {
			t.Fatal(err)
		}
		if kind == tdp.MsgRecord {
			rows++
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for st.g.MetricsSnapshot().ClientsEvicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never evicted")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The server tore the connection down: draining eventually errors (the
	// best-effort 3136 failure parcel may or may not make it through the
	// stalled socket).
	_ = c.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	sawFailure := false
	for {
		kind, payload, err := c.read()
		if err != nil {
			break
		}
		if kind == tdp.MsgFailure {
			r := wire.NewReader(payload)
			if code := int(r.U32()); code != tdp.CodeClientTooSlow {
				t.Errorf("failure code = %d, want %d", code, tdp.CodeClientTooSlow)
			}
			sawFailure = true
		}
	}
	t.Logf("eviction failure parcel delivered: %v", sawFailure)

	// The gauge reconciles and the gateway still serves new sessions.
	deadline = time.Now().Add(10 * time.Second)
	for st.g.ResultInflightBytes() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gauge stuck at %d after eviction", st.g.ResultInflightBytes())
		}
		time.Sleep(20 * time.Millisecond)
	}
	c2, err := tdp.Dial(st.addr, "appuser", "secret")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Request("SEL COUNT(*) FROM BIG"); err != nil {
		t.Fatalf("gateway unusable after eviction: %v", err)
	}
}

// Killing the backend connection mid-result yields one clean 3610 failure:
// no transparent retry, no hang, no goroutine leak, and the same session
// keeps working on a replacement backend connection.
func TestStreamingMidStreamBackendDeathFailsCleanly(t *testing.T) {
	target := dialect.CloudA()
	eng := bigTableEngine(t, target, 20) // 8000 rows: several batches
	st := newStreamStack(t, target, eng, Config{}, tdp.Options{})

	c, err := tdp.Dial(st.addr, "appuser", "secret")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Warm the session (logon + backend connect), then measure goroutines.
	if _, err := c.Request("SEL COUNT(*) FROM BIG"); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	execsBefore := st.fd.Execs()
	connectsBefore := st.fd.Connects()

	st.fd.DropAfterBatches(1)
	_, err = c.Request("SEL PAD FROM BIG")
	st.fd.DropAfterBatches(0)
	re, ok := err.(*tdp.RequestError)
	if !ok {
		t.Fatalf("err = %v, want RequestError", err)
	}
	if re.Code != tdp.CodeResultInterrupted {
		t.Fatalf("failure code = %d, want %d (result interrupted)", re.Code, tdp.CodeResultInterrupted)
	}
	if got := st.fd.Execs() - execsBefore; got != 1 {
		t.Fatalf("backend execs for the interrupted request = %d, want 1 — rows reached the client, a retry would duplicate them", got)
	}
	if st.met.Retries() != 0 {
		t.Errorf("retries = %d, want 0", st.met.Retries())
	}
	if m := st.g.MetricsSnapshot(); m.MidstreamFailures != 1 {
		t.Errorf("midstream failures = %d, want 1", m.MidstreamFailures)
	}

	// Same TDP session, next request: the dead backend connection was
	// discarded, a replacement is dialed, and the request succeeds.
	res, err := c.Request("SEL COUNT(*) FROM BIG")
	if err != nil {
		t.Fatalf("session did not survive the mid-stream failure: %v", err)
	}
	if len(res) != 1 || res[0].Rows[0][0].I != 8000 {
		t.Fatalf("recovery result = %+v", res)
	}
	if got := st.fd.Connects() - connectsBefore; got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
	if got := st.g.ResultInflightBytes(); got != 0 {
		t.Errorf("in-flight gauge = %d, want 0", got)
	}
	settleGoroutines(t, baseline)
}

// A request deadline that fires while the client is still reading its result
// is an interrupted result, not a short one: the rows already sent are
// followed by one 3610 failure — never by a bare end of request — the gauge
// drains, and the session serves its next request.
func TestStreamingDeadlineMidStreamFailsCleanly(t *testing.T) {
	target := dialect.CloudA()
	eng := bigTableEngine(t, target, 40) // 64000 rows ≈ 19.5 MiB
	st := newStreamStack(t, target, eng,
		Config{BackendTimeout: 500 * time.Millisecond}, tdp.Options{}, withResultBudget(512<<10))

	c := dialRaw(t, st.addr)
	defer c.close()
	// Warm the session (backend connect) so the deadline is spent on the result.
	transcript(t, c, "SEL COUNT(*) FROM BIG")
	c.request("SEL PAD FROM BIG")
	var rows, failure, ended int
	for done := false; !done; {
		kind, payload, err := c.read()
		if err != nil {
			t.Fatalf("read after %d rows: %v", rows, err)
		}
		switch kind {
		case tdp.MsgRecord:
			// A steady but slow reader: draining the result takes longer than
			// the deadline allows, and the fetch stage spends that time
			// blocked behind the frontend write.
			if rows++; rows%256 == 0 {
				time.Sleep(3 * time.Millisecond)
			}
		case tdp.MsgSuccess:
			ended++
		case tdp.MsgFailure:
			failure = int(wire.NewReader(payload).U32())
		case tdp.MsgEndRequest:
			done = true
		}
	}
	if rows == 0 || rows >= 64000 || ended != 0 {
		t.Fatalf("%d rows, %d statements ended, failure %d — the deadline did not fire mid-result", rows, ended, failure)
	}
	if failure != tdp.CodeResultInterrupted {
		t.Fatalf("failure code = %d after %d of 64000 rows, want %d (result interrupted)", failure, rows, tdp.CodeResultInterrupted)
	}
	if m := st.g.MetricsSnapshot(); m.MidstreamFailures != 1 {
		t.Errorf("midstream failures = %d, want 1", m.MidstreamFailures)
	}
	if got := st.g.ResultInflightBytes(); got != 0 {
		t.Errorf("in-flight gauge = %d, want 0", got)
	}
	for _, p := range transcript(t, c, "SEL COUNT(*) FROM BIG") {
		if p.kind == tdp.MsgFailure {
			t.Fatalf("session did not survive the interrupted result: failure %d", wire.NewReader(p.payload).U32())
		}
	}
}

// A client that vanishes mid-result tears the whole pipeline down — backend
// stream, pipeline stages, accountant reservations, server session — with
// nothing leaked.
func TestStreamingClientDisconnectReleasesEverything(t *testing.T) {
	target := dialect.CloudA()
	eng := bigTableEngine(t, target, 20)
	st := newStreamStack(t, target, eng, Config{}, tdp.Options{}, withResultBudget(256<<10))

	// Warm-up connection proves the stack works, and its teardown settles
	// the baseline.
	warm, err := tdp.Dial(st.addr, "appuser", "secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Request("SEL COUNT(*) FROM BIG"); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	c := dialRaw(t, st.addr)
	c.request("SEL PAD FROM BIG")
	for rows := 0; rows < 10; {
		kind, _, err := c.read()
		if err != nil {
			t.Fatal(err)
		}
		if kind == tdp.MsgRecord {
			rows++
		}
	}
	c.close() // vanish mid-result

	settleGoroutines(t, baseline)
	deadline := time.Now().Add(5 * time.Second)
	for st.g.ResultInflightBytes() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gauge stuck at %d after disconnect", st.g.ResultInflightBytes())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The gateway still serves new sessions.
	c2, err := tdp.Dial(st.addr, "appuser", "secret")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Request("SEL COUNT(*) FROM BIG"); err != nil {
		t.Fatal(err)
	}
}

// The gateway-wide result-memory cap sheds a request whose next batch would
// blow past it, with the saturation code clients already know how to retry.
func TestStreamingResultMemoryCapSheds(t *testing.T) {
	target := dialect.CloudA()
	eng := bigTableEngine(t, target, 20)
	// Cap below a single batch: the first is admitted (an empty gauge always
	// admits, so one huge batch degrades to sequential admission), the
	// second sheds.
	st := newStreamStack(t, target, eng, Config{}, tdp.Options{}, withResultCap(100<<10))

	c, err := tdp.Dial(st.addr, "appuser", "secret")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Request("SEL PAD FROM BIG")
	re, ok := err.(*tdp.RequestError)
	if !ok || re.Code != tdp.CodeGatewaySaturated {
		t.Fatalf("err = %v, want gateway-saturated failure", err)
	}
	if m := st.g.MetricsSnapshot(); m.ResultShed != 1 {
		t.Errorf("result shed = %d, want 1", m.ResultShed)
	}
	if got := st.g.ResultInflightBytes(); got != 0 {
		t.Errorf("in-flight gauge = %d, want 0", got)
	}
	// The session survives shedding.
	if _, err := c.Request("SEL COUNT(*) FROM BIG"); err != nil {
		t.Fatalf("session did not survive the shed: %v", err)
	}
}

// With a cap that holds several batches the gauge itself does the shedding:
// a client that stops reading lets the pipeline fill until the next batch
// no longer fits, and the gauge never exceeds the cap on the way.
func TestStreamingResultMemoryCapShedsStalledClient(t *testing.T) {
	target := dialect.CloudA()
	eng := bigTableEngine(t, target, 40) // 64000 rows ≈ 19.5 MiB: more than the sockets buffer
	const capBytes = 1 << 20             // three batches
	st := newStreamStack(t, target, eng, Config{}, tdp.Options{}, withResultCap(capBytes))

	c := dialRaw(t, st.addr)
	defer c.close()
	c.request("SEL PAD FROM BIG")
	// Stall until the pipeline has stopped moving: the refusal travels behind
	// the batches stuck at the blocked frontend write and reaches the client
	// once it reads on.
	deadline := time.Now().Add(15 * time.Second)
	for last, still := int64(-1), 0; still < 20 && st.g.MetricsSnapshot().ResultShed == 0; {
		if time.Now().After(deadline) {
			t.Fatal("request neither shed nor stalled")
		}
		time.Sleep(10 * time.Millisecond)
		if got := st.g.ResultInflightBytes(); got > 0 && got == last {
			still++
		} else {
			last, still = got, 0
		}
	}
	// readReply drains one response and returns its failure code (0: none).
	readReply := func() (code int) {
		for {
			kind, payload, err := c.read()
			if err != nil {
				t.Fatal(err)
			}
			switch kind {
			case tdp.MsgFailure:
				code = int(wire.NewReader(payload).U32())
			case tdp.MsgEndRequest:
				return code
			}
		}
	}
	if code := readReply(); code != tdp.CodeGatewaySaturated {
		t.Fatalf("failure code = %d, want gateway-saturated failure", code)
	}
	m := st.g.MetricsSnapshot()
	if m.ResultShed != 1 {
		t.Errorf("result shed = %d, want 1", m.ResultShed)
	}
	if m.ResultPeakBytes > capBytes {
		t.Errorf("in-flight peak %d exceeded the %d cap", m.ResultPeakBytes, capBytes)
	}
	if got := st.g.ResultInflightBytes(); got != 0 {
		t.Errorf("in-flight gauge = %d, want 0", got)
	}
	// The session survives shedding.
	c.request("SEL COUNT(*) FROM BIG")
	if code := readReply(); code != 0 {
		t.Fatalf("session did not survive the shed: failure %d", code)
	}
}

// proxyBackend forwards TCP between the gateway and the backend, severing
// each connection with a FIN after cutAfter backend→gateway bytes — a
// backend process dying mid-result, as the gateway's socket actually sees
// it (bare EOF, not a reset or an error parcel).
func proxyBackend(t *testing.T, target string, cutAfter int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			up, err := ln.Accept()
			if err != nil {
				return
			}
			down, err := net.Dial("tcp", target)
			if err != nil {
				up.Close()
				continue
			}
			go func() {
				buf := make([]byte, 32<<10)
				for {
					n, err := up.Read(buf)
					if n > 0 {
						if _, werr := down.Write(buf[:n]); werr != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
			}()
			go func() {
				var total int
				buf := make([]byte, 32<<10)
				for {
					n, err := down.Read(buf)
					if n > 0 {
						if _, werr := up.Write(buf[:n]); werr != nil {
							break
						}
						total += n
						if total >= cutAfter {
							break // the backend "dies" mid-result
						}
					}
					if err != nil {
						break
					}
				}
				down.Close()
				up.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// The regression this drives was found at the live wire: killing the
// backend process mid-result used to surface as a SUCCESSFUL EMPTY response
// (the socket EOF leaked through as the stream's clean-end sentinel and the
// statement ended with neither Success nor Failure). It must be a single
// clean failure with the result-interrupted code, no retry, and the session
// must heal on its next request.
func TestStreamingBackendProcessDeathSurfacesFailure(t *testing.T) {
	target := dialect.CloudA()
	eng := bigTableEngine(t, target, 30) // ~8.2 MiB result
	// Sever each backend connection after ~1.5 MiB of response bytes: mid-way
	// through the big result, but far past logon and the warm-up request.
	proxyAddr := proxyBackend(t, serveBackend(t, eng), 1<<20+512<<10)
	st := newStreamStackVia(t, target, eng, proxyAddr, Config{}, tdp.Options{})

	c, err := tdp.Dial(st.addr, "appuser", "secret")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request("SEL COUNT(*) FROM BIG"); err != nil {
		t.Fatal(err)
	}

	_, err = c.Request("SEL PAD FROM BIG")
	if err == nil {
		t.Fatal("backend death mid-result produced a successful response")
	}
	re, ok := err.(*tdp.RequestError)
	if !ok {
		t.Fatalf("err = %v, want RequestError", err)
	}
	if re.Code != tdp.CodeResultInterrupted {
		t.Fatalf("failure code = %d, want %d (result interrupted)", re.Code, tdp.CodeResultInterrupted)
	}
	if st.met.Retries() != 0 {
		t.Errorf("retries = %d, want 0 — rows reached the client", st.met.Retries())
	}
	if m := st.g.MetricsSnapshot(); m.MidstreamFailures != 1 {
		t.Errorf("midstream failures = %d, want 1", m.MidstreamFailures)
	}
	if got := st.g.ResultInflightBytes(); got != 0 {
		t.Errorf("in-flight gauge = %d, want 0", got)
	}

	// The session heals: the dead connection is replaced (through a fresh
	// proxy connection) and a small request succeeds.
	res, err := c.Request("SEL COUNT(*) FROM BIG")
	if err != nil {
		t.Fatalf("session did not survive the backend death: %v", err)
	}
	if len(res) != 1 || res[0].Rows[0][0].I != 27000 {
		t.Fatalf("recovery result = %+v", res)
	}
}

// parcel is one captured wire parcel of a transcript.
type parcel struct {
	kind    byte
	payload []byte
}

// transcript runs sql and captures every response parcel through the end of
// the request.
func transcript(t *testing.T, c *rawConn, sql string) []parcel {
	t.Helper()
	c.request(sql)
	var out []parcel
	for {
		kind, payload, err := c.read()
		if err != nil {
			t.Fatalf("transcript read for %q: %v", sql, err)
		}
		out = append(out, parcel{kind: kind, payload: append([]byte(nil), payload...)})
		if kind == tdp.MsgEndRequest {
			return out
		}
	}
}

// The streamed and buffered result paths must be wire-indistinguishable:
// replaying both customer workloads through two identically-loaded stacks —
// one streaming, one with streaming disabled — must produce byte-identical
// TDP parcel sequences for every request.
func TestStreamingMatchesBufferedWireTranscripts(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two customer workloads twice")
	}
	target := dialect.CloudA()
	newSide := func(disable bool) (*rawConn, *streamStack) {
		eng := engine.New(target)
		be := eng.NewSession()
		for _, ddl := range customer.SchemaDDL {
			if _, err := be.ExecSQL(ddl); err != nil {
				t.Fatal(err)
			}
		}
		st := newStreamStack(t, target, eng, Config{DisableStreaming: disable}, tdp.Options{})
		c := dialRaw(t, st.addr)
		for _, sql := range customer.GatewaySetup {
			for _, p := range transcript(t, c, sql) {
				if p.kind == tdp.MsgFailure {
					t.Fatalf("setup %q failed: %s", sql, p.payload)
				}
			}
		}
		return c, st
	}
	streamed, streamedStack := newSide(false)
	defer streamed.close()
	buffered, bufferedStack := newSide(true)
	defer buffered.close()

	var queries []string
	for _, spec := range []customer.Spec{customer.Workload1(), customer.Workload2()} {
		spec.Distinct = 120
		spec.Total = spec.Distinct
		for _, q := range customer.Generate(spec) {
			queries = append(queries, q.SQL)
		}
	}
	var compared int
	for _, sql := range queries {
		a := transcript(t, streamed, sql)
		b := transcript(t, buffered, sql)
		if len(a) != len(b) {
			t.Fatalf("parcel count diverged on %q: streamed %d, buffered %d", sql, len(a), len(b))
		}
		for i := range a {
			if a[i].kind != b[i].kind || !bytes.Equal(a[i].payload, b[i].payload) {
				t.Fatalf("parcel %d diverged on %q:\nstreamed 0x%02x %x\nbuffered 0x%02x %x",
					i, sql, a[i].kind, a[i].payload, b[i].kind, b[i].payload)
			}
		}
		compared++
	}
	if compared < 200 {
		t.Fatalf("only %d requests compared — workload generation drifted", compared)
	}
	// The comparison only means something if the two sides really took
	// different result paths.
	if n := streamedStack.g.MetricsSnapshot().StreamedResults; n == 0 {
		t.Fatal("streaming side never streamed a result — both sides ran buffered")
	}
	if n := bufferedStack.g.MetricsSnapshot().StreamedResults; n != 0 {
		t.Fatalf("buffered side streamed %d results despite DisableStreaming", n)
	}
}

// capture is transcript for goroutines that are not the test's: it returns
// the failure instead of calling t.Fatal.
func capture(c *rawConn, sql string) ([]parcel, error) {
	var b wire.Buffer
	b.PutString(sql)
	if err := wire.WriteMessage(c.c, tdp.MsgRunRequest, b.Bytes()); err != nil {
		return nil, err
	}
	var out []parcel
	for {
		kind, payload, err := c.read()
		if err != nil {
			return nil, fmt.Errorf("after %d parcels: %w", len(out), err)
		}
		out = append(out, parcel{kind: kind, payload: append([]byte(nil), payload...)})
		if kind == tdp.MsgEndRequest {
			return out, nil
		}
	}
}

// Decode memory is recycled across every session of the process, so the
// ownership rules are only as good as their behaviour under concurrency: four
// sessions stream different multi-batch results — each batch transcoded,
// its QTY, PRICE and CODE through tdp.Cast ops (the backend stores them in
// other types than the client was promised), and released when its records
// are written — while a fifth runs a
// macro whose multi-batch SELECT is collected and must keep its rows. Every
// response is byte-compared with the one a DisableStreaming gateway gave for
// the same request: a batch released before its rows were written, or handed
// to two sessions, shows up as another query's rows.
func TestStreamingConcurrentSessionsMatchBuffered(t *testing.T) {
	target := dialect.CloudA()
	const seedN = 18 // 18³ = 5832 rows, 1458 per G: two batches per streamed result
	backend, front := engine.New(target), engine.New(target)
	be := backend.NewSession()
	for _, sql := range []string{
		"CREATE TABLE SEED (I INTEGER)",
		"CREATE TABLE WIDE (ID INTEGER, G INTEGER, QTY BIGINT, PRICE DECIMAL(12,4), CODE VARCHAR(20), PAD VARCHAR(200))",
	} {
		if _, err := be.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < seedN; i++ {
		if _, err := be.ExecSQL(fmt.Sprintf("INSERT INTO SEED VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := be.ExecSQL(fmt.Sprintf(`INSERT INTO WIDE
		SELECT a.I*%d + b.I*%d + c.I, c.I MOD 4, (a.I*%d + b.I*%d + c.I) * 7, CAST(a.I*%d + b.I*%d + c.I AS DECIMAL(12,4)) / 8,
			CASE WHEN b.I = 3 THEN NULL ELSE 'code-' || CAST(a.I*%d + b.I AS VARCHAR(10)) END, '%s'
		FROM SEED a, SEED b, SEED c`,
		seedN*seedN, seedN, seedN*seedN, seedN, seedN*seedN, seedN, seedN, bigRowPad[:150])); err != nil {
		t.Fatal(err)
	}
	if _, err := front.NewSession().ExecSQL(
		"CREATE TABLE WIDE (ID INTEGER, G INTEGER, QTY INTEGER, PRICE DECIMAL(12,2), CODE CHAR(20), PAD VARCHAR(200))"); err != nil {
		t.Fatal(err)
	}
	beAddr := serveBackend(t, backend)
	streamed := newStreamStackVia(t, target, front, beAddr, Config{}, tdp.Options{})
	buffered := newStreamStackVia(t, target, front, beAddr, Config{DisableStreaming: true}, tdp.Options{})

	const macro = "CREATE MACRO wide_head AS (SEL * FROM WIDE WHERE ID < 2500 ORDER BY ID;)"
	queries := []string{"EXEC wide_head"} // the collected one; the rest stream
	for g := 0; g < 4; g++ {
		queries = append(queries, fmt.Sprintf("SEL * FROM WIDE WHERE G = %d ORDER BY ID", g))
	}
	ref := dialRaw(t, buffered.addr)
	defer ref.close()
	transcript(t, ref, macro)
	want := make([][]parcel, len(queries))
	for i, sql := range queries {
		want[i] = transcript(t, ref, sql)
		records := 0
		for _, p := range want[i] {
			if p.kind == tdp.MsgFailure {
				t.Fatalf("reference %q failed: %s", sql, p.payload)
			}
			if p.kind == tdp.MsgRecord {
				records++
			}
		}
		if records <= 1024 {
			t.Fatalf("reference %q: %d rows, want more than one batch", sql, records)
		}
	}

	conns := make([]*rawConn, len(queries))
	for i := range conns {
		conns[i] = dialRaw(t, streamed.addr)
		defer conns[i].close()
	}
	transcript(t, conns[0], macro)
	const rounds = 4
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				got, err := capture(conns[i], queries[i])
				if err != nil {
					t.Errorf("%q round %d: %v", queries[i], round, err)
					return
				}
				if len(got) != len(want[i]) {
					t.Errorf("%q round %d: %d parcels, want %d", queries[i], round, len(got), len(want[i]))
					return
				}
				for pi := range got {
					if got[pi].kind != want[i][pi].kind || !bytes.Equal(got[pi].payload, want[i][pi].payload) {
						t.Errorf("%q round %d: parcel %d diverged:\nstreamed 0x%02x %x\nbuffered 0x%02x %x",
							queries[i], round, pi, got[pi].kind, got[pi].payload, want[i][pi].kind, want[i][pi].payload)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	m := streamed.g.MetricsSnapshot()
	if m.StreamedResults != 4*rounds || m.BufferedResults < rounds {
		t.Errorf("streamed %d results and collected %d, want %d and at least %d", m.StreamedResults, m.BufferedResults, 4*rounds, rounds)
	}
	if got := streamed.g.ResultInflightBytes(); got != 0 {
		t.Errorf("in-flight gauge = %d after every request ended", got)
	}
}

// exactCompare is compare mode's comparator for this package's tests: the
// first cell that differs, by position. (replay.Differ, the one comparator
// outside tests, imports this package.)
func exactCompare(sql string, base, obs []*cwp.StatementResult) *odbc.Divergence {
	if len(base) != len(obs) {
		return &odbc.Divergence{SQL: sql, Kind: odbc.DivStatementCount, Stmt: -1, Row: -1, Col: -1}
	}
	for si := range base {
		brows, orows := base[si].Rows(), obs[si].Rows()
		if len(brows) != len(orows) {
			return &odbc.Divergence{SQL: sql, Kind: odbc.DivRowCount, Stmt: si, Row: -1, Col: -1}
		}
		for ri, row := range brows {
			for ci, v := range row {
				if v != orows[ri][ci] {
					return &odbc.Divergence{SQL: sql, Kind: odbc.DivCell, Stmt: si, Row: ri, Col: ci,
						Baseline: v.SQLLiteral(), Observed: orows[ri][ci].SQLLiteral()}
				}
			}
		}
	}
	return nil
}

// A replicated backend streams like any other: its executor is a native
// StreamExecutor, so a top-level SELECT through a wire gateway over
// ReplicatedDriver takes the wire sink — load-balancing and compare mode
// alike — and sends the bytes the DisableStreaming reference sends, while
// compare mode still attributes each divergence to the statement that
// produced it.
func TestStreamingReplicatedMatchesBuffered(t *testing.T) {
	target := dialect.CloudA()
	const seedN = 14 // 14³ = 2744 rows: the full scan spans three batches
	queries := []struct {
		sql   string
		drift int // divergences compare mode records against the perturbed replica
	}{
		{"SEL ID, V FROM T WHERE ID < 5 ORDER BY ID", 0},
		{"SEL ID, V FROM T WHERE ID = 7", 1},
		{"SEL * FROM T ORDER BY ID", 1},
		{"SEL COUNT(*) FROM T", 0},
	}
	for _, compare := range []bool{false, true} {
		t.Run(fmt.Sprintf("compare=%v", compare), func(t *testing.T) {
			var cmp odbc.CompareFunc
			if compare {
				cmp = exactCompare
			}
			addrs := make([]string, 2)
			var front *engine.Engine
			for i := range addrs {
				eng := engine.New(target)
				be := eng.NewSession()
				for _, sql := range []string{"CREATE TABLE SEED (I INTEGER)", "CREATE TABLE T (ID INTEGER, V VARCHAR(20))"} {
					if _, err := be.ExecSQL(sql); err != nil {
						t.Fatal(err)
					}
				}
				for j := 0; j < seedN; j++ {
					if _, err := be.ExecSQL(fmt.Sprintf("INSERT INTO SEED VALUES (%d)", j)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := be.ExecSQL(fmt.Sprintf(`INSERT INTO T
					SELECT a.I*%d + b.I*%d + c.I, 'v-' || CAST(a.I*%d + b.I*%d + c.I AS VARCHAR(10))
					FROM SEED a, SEED b, SEED c`, seedN*seedN, seedN, seedN*seedN, seedN)); err != nil {
					t.Fatal(err)
				}
				if compare && i == 1 {
					// The migration candidate drifted on one cell.
					if _, err := be.ExecSQL("UPDATE T SET V = 'drift' WHERE ID = 7"); err != nil {
						t.Fatal(err)
					}
				}
				addrs[i] = serveBackend(t, eng)
				if i == 0 {
					front = eng
				}
			}
			side := func(disable bool) (*Gateway, *rawConn) {
				drivers := make([]odbc.Driver, len(addrs))
				for i, a := range addrs {
					drivers[i] = &odbc.NetworkDriver{Addr: a, User: "gw", Password: "pw"}
				}
				g, err := New(Config{
					Target:           target,
					Driver:           &odbc.ReplicatedDriver{Replicas: drivers, Compare: cmp},
					Catalog:          front.Catalog().Clone(),
					DisableStreaming: disable,
				})
				if err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ln.Close() })
				go func() { _ = tdp.ServeOptions(ln, g, tdp.Options{}) }()
				c := dialRaw(t, ln.Addr().String())
				t.Cleanup(c.close)
				return g, c
			}
			streamed, sc := side(false)
			buffered, bc := side(true)
			// The gateway's one session, from the test goroutine: the executor
			// serves a request at a time, so draining between requests
			// attributes every record to its statement.
			divergences := func(g *Gateway) int {
				g.sessMu.Lock()
				defer g.sessMu.Unlock()
				if len(g.sessions) != 1 {
					t.Fatalf("%d sessions, want 1", len(g.sessions))
				}
				for _, s := range g.sessions {
					return len(s.TakeDivergences())
				}
				return 0
			}

			for _, q := range queries {
				a, b := transcript(t, sc, q.sql), transcript(t, bc, q.sql)
				if len(a) != len(b) {
					t.Fatalf("parcel count diverged on %q: streamed %d, buffered %d", q.sql, len(a), len(b))
				}
				for i := range a {
					if a[i].kind == tdp.MsgFailure {
						t.Fatalf("%q failed: %s", q.sql, a[i].payload)
					}
					if a[i].kind != b[i].kind || !bytes.Equal(a[i].payload, b[i].payload) {
						t.Fatalf("parcel %d diverged on %q:\nstreamed 0x%02x %x\nbuffered 0x%02x %x",
							i, q.sql, a[i].kind, a[i].payload, b[i].kind, b[i].payload)
					}
				}
				want := 0
				if compare {
					want = q.drift
				}
				if got := divergences(streamed); got != want {
					t.Fatalf("streamed side drained %d divergences after %q, want %d", got, q.sql, want)
				}
				if got := divergences(buffered); got != want {
					t.Fatalf("buffered side drained %d divergences after %q, want %d", got, q.sql, want)
				}
			}

			rec := httptest.NewRecorder()
			streamed.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if line := fmt.Sprintf("hyperq_results_streamed_total %d\n", len(queries)); !strings.Contains(rec.Body.String(), line) {
				t.Fatalf("streaming side's /metrics lacks %q: a replicated SELECT took the collector", line)
			}
			if n := buffered.MetricsSnapshot().StreamedResults; n != 0 {
				t.Fatalf("buffered side streamed %d results despite DisableStreaming", n)
			}
		})
	}
}
