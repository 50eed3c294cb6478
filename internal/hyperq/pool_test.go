package hyperq

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/faultdriver"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/wire"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
)

// newPooledGateway fronts the shared test schema with the full pooled
// execution stack: frontend sessions multiplex over a bounded connection
// pool whose connections are individually fault-tolerant
// (pool → ResilientDriver → faultdriver → LocalDriver).
func newPooledGateway(t *testing.T, pcfg pool.Config) (*Gateway, *pool.Pool, *faultdriver.Driver) {
	t.Helper()
	target := dialect.CloudA()
	eng := engine.New(target)
	setup := eng.NewSession()
	for _, stmt := range []string{
		`CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, STORE INT)`,
		`INSERT INTO SALES VALUES
		   (100.00, DATE '2014-02-01', 1),
		   (250.00, DATE '2014-03-15', 1),
		   (80.00,  DATE '2013-12-31', 2)`,
	} {
		if _, err := setup.ExecSQL(stmt); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	fd := faultdriver.New(&odbc.LocalDriver{Engine: eng})
	resilience := &odbc.ResilienceMetrics{}
	rd := &odbc.ResilientDriver{Inner: fd, Metrics: resilience, Sleep: func(time.Duration) {}}
	pcfg.Driver = rd
	p, err := pool.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	g, err := New(Config{
		Target:     target,
		Driver:     p,
		Catalog:    eng.Catalog().Clone(),
		Resilience: resilience,
		Pool:       p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, p, fd
}

// The acceptance scenario: 8 concurrent frontend wire sessions complete over
// a 2-connection pool (4x oversubscription). Every session establishes a
// volatile table with a session-distinct value and reads it back — pinning
// must keep each session's state on its own backend connection — and the
// pool wait time is visible in /metrics afterwards. The overlap is made, not
// hoped for: the first two sessions pin both connections and hold them until
// the pool reports a queued waiter, and the other six start only once both
// are pinned.
func TestPooledGatewayConcurrentWireSessions(t *testing.T) {
	const poolSize, sessions = 2, 8
	g, p, _ := newPooledGateway(t, pool.Config{
		Size:           poolSize,
		MaxWaiters:     -1,
		AcquireTimeout: 30 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = tdp.Serve(ln, g) }()

	var wg, holding sync.WaitGroup
	pinnedAll, queued := make(chan struct{}), make(chan struct{})
	holding.Add(poolSize)
	go func() {
		holding.Wait()
		close(pinnedAll)
		defer close(queued)
		for deadline := time.Now().Add(30 * time.Second); p.Stats().Waiters == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("no session queued behind the two pinned connections")
				return
			}
		}
	}()
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		i := i
		holder := i < poolSize
		wg.Add(1)
		go func() {
			defer wg.Done()
			pinned := func() {}
			if holder {
				// Once, on whichever path the session leaves by.
				pinned = sync.OnceFunc(holding.Done)
				defer pinned()
			}
			errs <- func() error {
				if !holder {
					<-pinnedAll
				}
				c, err := tdp.Dial(ln.Addr().String(), fmt.Sprintf("app%d", i), "pw")
				if err != nil {
					return fmt.Errorf("session %d: dial: %w", i, err)
				}
				defer c.Close()
				// Shared-table reads run under statement-level leases.
				if _, err := c.Request("SEL COUNT(*) FROM SALES"); err != nil {
					return fmt.Errorf("session %d: read: %w", i, err)
				}
				// Session-distinct volatile state: requires pinning.
				if _, err := c.Request("CREATE VOLATILE TABLE VT (X INT) ON COMMIT PRESERVE ROWS"); err != nil {
					return fmt.Errorf("session %d: create: %w", i, err)
				}
				if holder {
					pinned()
					<-queued
				}
				if _, err := c.Request(fmt.Sprintf("INSERT INTO VT VALUES (%d)", i)); err != nil {
					return fmt.Errorf("session %d: insert: %w", i, err)
				}
				stmts, err := c.Request("SEL X FROM VT")
				if err != nil {
					return fmt.Errorf("session %d: volatile read: %w", i, err)
				}
				if len(stmts[0].Rows) != 1 || stmts[0].Rows[0][0].I != int64(i) {
					return fmt.Errorf("session %d: volatile state leaked or lost: rows = %v", i, stmts[0].Rows)
				}
				if _, err := c.Request("DROP TABLE VT"); err != nil {
					return fmt.Errorf("session %d: drop: %w", i, err)
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	s := p.Stats()
	if s.Pinned != 0 || s.InUse != 0 {
		t.Errorf("pinned/in_use after all sessions done = %d/%d, want 0/0", s.Pinned, s.InUse)
	}
	if s.Pins < sessions {
		t.Errorf("pins = %d, want >= %d (each session pinned for its volatile table)", s.Pins, sessions)
	}
	if s.Waits == 0 {
		t.Error("waits = 0, want > 0 (8 sessions over 2 connections must queue)")
	}

	// Pool wait time is operator-visible on /metrics.
	rec := httptest.NewRecorder()
	g.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, series := range []string{
		"hyperq_pool_wait_seconds_count",
		"hyperq_pool_acquires_total",
		"hyperq_pool_pins_total",
	} {
		idx := strings.Index(body, series+" ")
		if idx < 0 {
			t.Errorf("series %s missing from /metrics", series)
			continue
		}
		line := body[idx:]
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		if strings.HasSuffix(line, " 0") {
			t.Errorf("series %s is zero: %q", series, line)
		}
	}

	// /pool serves the same snapshot as JSON.
	rec = httptest.NewRecorder()
	g.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/pool", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/pool status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"acquires"`) {
		t.Errorf("/pool body missing pool stats: %s", rec.Body.String())
	}
}

// A session whose backend state is dropped unpins: the dedicated connection
// returns to general service as soon as the replay log empties.
func TestPooledSessionUnpinsWhenStateDropped(t *testing.T) {
	g, p, _ := newPooledGateway(t, pool.Config{Size: 2})
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// No backend connection is held before the first statement.
	if st := p.Stats(); st.Dials != 0 {
		t.Errorf("dials at logon = %d, want 0 (acquire per statement, not per logon)", st.Dials)
	}
	if _, err := s.Run("CREATE VOLATILE TABLE VT (X INT) ON COMMIT PRESERVE ROWS"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Pinned != 1 {
		t.Errorf("pinned after volatile CREATE = %d, want 1", st.Pinned)
	}
	if _, err := s.Run("INSERT INTO VT VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("DROP TABLE VT"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Pinned != 0 {
		t.Errorf("pinned after DROP = %d, want 0 (state gone, connection unpinned)", st.Pinned)
	}
	// The unpinned connection is clean and reusable.
	if _, err := s.Run("SEL COUNT(*) FROM SALES"); err != nil {
		t.Fatal(err)
	}
}

// An explicit transaction pins for its whole extent: BT pins, ET unpins.
func TestPooledTransactionPins(t *testing.T) {
	g, p, _ := newPooledGateway(t, pool.Config{Size: 2})
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("BT"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Pinned != 1 {
		t.Errorf("pinned after BT = %d, want 1", st.Pinned)
	}
	if _, err := s.Run("INSERT INTO SALES VALUES (5.00, DATE '2020-01-01', 3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("ET"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Pinned != 0 {
		t.Errorf("pinned after ET = %d, want 0", st.Pinned)
	}
}

// A failed transaction-end statement must not unpin: the transaction may
// still be open on the backend session, and unpinning would return a
// connection with live uncommitted state to the shared pool, where the next
// frontend session would silently inherit it.
func TestPooledFailedCommitStaysPinned(t *testing.T) {
	g, p, fd := newPooledGateway(t, pool.Config{Size: 2})
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("BT"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("INSERT INTO SALES VALUES (5.00, DATE '2020-01-01', 3)"); err != nil {
		t.Fatal(err)
	}
	// The ET itself fails (non-transient backend error injected before the
	// request reaches the engine, so the transaction stays open).
	fd.QueueExecErrors(&cwp.BackendError{Code: 3706, Message: "injected commit failure"})
	if _, err := s.Run("ET"); err == nil {
		t.Fatal("ET with injected backend error: err = nil, want failure")
	}
	if st := p.Stats(); st.Pinned != 1 {
		t.Fatalf("pinned after failed ET = %d, want 1 (open transaction must keep the connection dedicated)", st.Pinned)
	}
	// A retried ET commits the still-open transaction and unpins.
	if _, err := s.Run("ET"); err != nil {
		t.Fatalf("retried ET: %v", err)
	}
	if st := p.Stats(); st.Pinned != 0 {
		t.Errorf("pinned after successful ET = %d, want 0", st.Pinned)
	}
}

// A pinned session survives a backend bounce: the resilient connection under
// the pin reconnects and replays the volatile-table DDL.
func TestPooledPinnedSessionSurvivesBounce(t *testing.T) {
	g, p, fd := newPooledGateway(t, pool.Config{Size: 2})
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("CREATE VOLATILE TABLE VT (X INT) ON COMMIT PRESERVE ROWS"); err != nil {
		t.Fatal(err)
	}
	fd.DropActiveSessions()
	if _, err := s.Run("SEL COUNT(*) FROM VT"); err != nil {
		t.Fatalf("volatile read after bounce: %v", err)
	}
	snap := g.MetricsSnapshot()
	if snap.Reconnects == 0 || snap.Replays == 0 {
		t.Errorf("Reconnects/Replays = %d/%d, want > 0 (pinned connection replayed)", snap.Reconnects, snap.Replays)
	}
	if st := p.Stats(); st.Pinned != 1 {
		t.Errorf("pinned after bounce = %d, want 1", st.Pinned)
	}
}

// Pool exhaustion surfaces as a clean frontend failure code
// (tdp.CodeGatewaySaturated), not a
// hang or a raw Go error.
func TestPooledAcquireTimeoutFrontendCode(t *testing.T) {
	g, _, _ := newPooledGateway(t, pool.Config{Size: 1, AcquireTimeout: 30 * time.Millisecond})
	holder, err := g.NewLocalSession("holder")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	// The holder pins the pool's only connection.
	if _, err := holder.Run("CREATE VOLATILE TABLE VT (X INT) ON COMMIT PRESERVE ROWS"); err != nil {
		t.Fatal(err)
	}
	starved, err := g.NewLocalSession("starved")
	if err != nil {
		t.Fatal(err)
	}
	defer starved.Close()
	_, err = starved.Run("SEL COUNT(*) FROM SALES")
	var re *RequestError
	if !errors.As(err, &re) || re.Code != tdp.CodeGatewaySaturated {
		t.Fatalf("starved session: err = %v, want RequestError %d", err, tdp.CodeGatewaySaturated)
	}
	// Dropping the holder's state frees the connection; the starved session
	// recovers without reconnecting its frontend.
	if _, err := holder.Run("DROP TABLE VT"); err != nil {
		t.Fatal(err)
	}
	if _, err := starved.Run("SEL COUNT(*) FROM SALES"); err != nil {
		t.Fatalf("after pool freed: %v", err)
	}
}

// The leak test of the teardown satellite: a frontend that vanishes without
// logoff (no MsgLogoff, socket just closes) while holding a pinned
// connection must not strand pool capacity — the tdp server's deferred
// session close destroys the dirty pinned connection and frees the slot.
func TestPooledAbruptDisconnectReleasesLease(t *testing.T) {
	g, p, _ := newPooledGateway(t, pool.Config{Size: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = tdp.Serve(ln, g) }()

	// Raw protocol: logon, pin via volatile DDL, then vanish mid-session.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var b wire.Buffer
	b.PutString("ghost")
	b.PutString("pw")
	if err := wire.WriteMessage(conn, tdp.MsgLogon, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := wire.ReadMessage(conn); err != nil || kind != tdp.MsgLogonOK {
		t.Fatalf("logon: kind=%#x err=%v", kind, err)
	}
	b = wire.Buffer{}
	b.PutString("CREATE VOLATILE TABLE VT (X INT) ON COMMIT PRESERVE ROWS")
	if err := wire.WriteMessage(conn, tdp.MsgRunRequest, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Drain the response so the pin is definitely established server-side.
	for {
		kind, _, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatalf("response: %v", err)
		}
		if kind == tdp.MsgEndRequest {
			break
		}
	}
	if st := p.Stats(); st.Pinned != 1 {
		t.Fatalf("pinned = %d, want 1 before the disconnect", st.Pinned)
	}
	// Abrupt disconnect: no logoff parcel, the socket just dies.
	_ = conn.Close()

	// The server notices on its next read and tears the session down; the
	// pinned lease must come back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Stats()
		if st.Pinned == 0 && st.InUse == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked lease: pinned=%d in_use=%d after abrupt disconnect", st.Pinned, st.InUse)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The freed capacity serves a new session on the 1-slot pool.
	c, err := tdp.Dial(ln.Addr().String(), "next", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request("SEL COUNT(*) FROM SALES"); err != nil {
		t.Fatalf("request after reclaimed lease: %v", err)
	}
}
