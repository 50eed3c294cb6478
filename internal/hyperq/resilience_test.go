package hyperq

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/faultdriver"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/wire/tdp"
)

// newFaultGateway fronts the shared test schema with a gateway whose backend
// driver is a ResilientDriver over a fault-injection driver — the full
// fault-tolerant execution stack of DESIGN.md §7, minus the real network.
func newFaultGateway(t *testing.T, tune func(*odbc.ResilientDriver)) (*Gateway, *engine.Engine, *faultdriver.Driver) {
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
	rd := &odbc.ResilientDriver{
		Inner:   fd,
		Metrics: resilience,
		Sleep:   func(time.Duration) {},
	}
	if tune != nil {
		tune(rd)
	}
	g, err := New(Config{
		Target:     target,
		Driver:     rd,
		Catalog:    eng.Catalog().Clone(),
		Resilience: resilience,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, eng, fd
}

// The acceptance scenario: a frontend session survives a mid-session backend
// drop — the gateway reconnects, replays the session state (SET overlay and
// volatile-table DDL), re-executes the read, and returns correct results,
// with the frontend connection never noticing.
func TestGatewaySurvivesBackendBounce(t *testing.T) {
	g, _, fd := newFaultGateway(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = tdp.Serve(ln, g) }()
	c, err := tdp.Dial(ln.Addr().String(), "appuser", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Establish session state on both sides of the gateway: a SET overlay
	// (gateway-side) and a volatile table (backend session state).
	if _, err := c.Request("SET SESSION DATEFORM = ansidate"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("CREATE VOLATILE TABLE VT (X INT) ON COMMIT PRESERVE ROWS"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("INSERT INTO VT VALUES (1)"); err != nil {
		t.Fatal(err)
	}

	// The backend bounces: every live backend session drops.
	fd.DropActiveSessions()

	// The next read succeeds transparently with correct results.
	stmts, err := c.Request("SEL COUNT(*) FROM SALES")
	if err != nil {
		t.Fatalf("read after backend bounce: %v", err)
	}
	if got := stmts[0].Rows[0][0].I; got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	// The volatile table was re-created on the replacement session (its
	// contents reset, as after a warehouse session bounce): it answers
	// queries instead of failing with "table does not exist".
	stmts, err = c.Request("SEL COUNT(*) FROM VT")
	if err != nil {
		t.Fatalf("volatile table lost across reconnect: %v", err)
	}
	if got := stmts[0].Rows[0][0].I; got != 0 {
		t.Errorf("replayed volatile table rows = %d, want 0 (DDL replays, contents do not)", got)
	}
	// The gateway-side SET overlay survived too.
	stmts, err = c.Request("HELP SESSION")
	if err != nil {
		t.Fatal(err)
	}
	var dateform string
	for _, row := range stmts[0].Rows {
		if row[0].S == "Current DateForm" {
			dateform = row[1].S
		}
	}
	if dateform != "ansidate" {
		t.Errorf("DateForm after reconnect = %q, want ansidate", dateform)
	}
	snap := g.MetricsSnapshot()
	if snap.Reconnects != 1 || snap.Replays != 1 {
		t.Errorf("Reconnects/Replays = %d/%d, want 1/1", snap.Reconnects, snap.Replays)
	}
	if snap.Retries == 0 {
		t.Error("Retries = 0, want > 0")
	}
}

// A write that was already on the wire when the connection died must NOT be
// retried: the frontend sees a transient-failure code and the engine state
// shows the statement executed at most once.
func TestGatewayWriteNotRetriedAfterDrop(t *testing.T) {
	g, eng, fd := newFaultGateway(t, nil)
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("SEL COUNT(*) FROM SALES"); err != nil {
		t.Fatal(err)
	}
	fd.DropActiveSessions()
	before := fd.Execs()
	_, err = s.Run("INSERT INTO SALES VALUES (1.00, DATE '2020-01-01', 9)")
	var re *RequestError
	if !errors.As(err, &re) || re.Code != tdp.CodeWriteStateUnknown {
		t.Fatalf("write after drop: err = %v, want RequestError %d", err, tdp.CodeWriteStateUnknown)
	}
	if got := fd.Execs() - before; got != 1 {
		t.Errorf("exec attempts = %d, want exactly 1 (write never retried)", got)
	}
	res, err := eng.NewSession().ExecSQL("SELECT COUNT(*) FROM SALES")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows[0][0].I; got != 3 {
		t.Errorf("engine rows = %d, want 3 (dropped insert not applied)", got)
	}
	// The session heals: re-issuing the write (the application's decision)
	// succeeds on a replacement connection.
	if _, err := s.Run("INSERT INTO SALES VALUES (1.00, DATE '2020-01-01', 9)"); err != nil {
		t.Fatalf("re-issued write: %v", err)
	}
}

// A hard-down backend trips the circuit breaker: subsequent requests fail
// fast (well under any backoff/deadline budget) with a frontend-visible
// failure code instead of hanging.
func TestGatewayBreakerFailsFast(t *testing.T) {
	g, _, fd := newFaultGateway(t, func(rd *odbc.ResilientDriver) {
		rd.BreakerThreshold = 2
		rd.BreakerCooldown = time.Hour
		rd.MaxRetries = 2
	})
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("SEL COUNT(*) FROM SALES"); err != nil {
		t.Fatal(err)
	}
	fd.DropActiveSessions()
	fd.RefuseConnects(-1)
	// First request: exec fails, reconnect attempts exhaust and trip the
	// breaker.
	if _, err := s.Run("SEL COUNT(*) FROM SALES"); err == nil {
		t.Fatal("request against hard-down backend succeeded")
	}
	snap := g.MetricsSnapshot()
	if snap.BreakerOpen == 0 {
		t.Fatal("BreakerOpen = 0, want > 0")
	}
	// Second request: the open breaker fails it fast, without dialing.
	attempts := fd.Connects()
	start := time.Now()
	_, err = s.Run("SEL COUNT(*) FROM SALES")
	elapsed := time.Since(start)
	var re *RequestError
	if !errors.As(err, &re) || re.Code != tdp.CodeBackendUnavailable {
		t.Fatalf("open breaker: err = %v, want RequestError %d", err, tdp.CodeBackendUnavailable)
	}
	if fd.Connects() != attempts {
		t.Error("open breaker still dialed the backend")
	}
	if elapsed > time.Second {
		t.Errorf("fail-fast took %v", elapsed)
	}
	if !strings.Contains(re.Message, "temporarily unavailable") {
		t.Errorf("message = %q", re.Message)
	}
}

// The configured BackendTimeout bounds a stalled backend request.
func TestGatewayBackendTimeout(t *testing.T) {
	target := dialect.CloudA()
	eng := engine.New(target)
	if _, err := eng.NewSession().ExecSQL(`CREATE TABLE SALES (AMOUNT DECIMAL(12,2))`); err != nil {
		t.Fatal(err)
	}
	fd := faultdriver.New(&odbc.LocalDriver{Engine: eng})
	resilience := &odbc.ResilienceMetrics{}
	rd := &odbc.ResilientDriver{Inner: fd, Metrics: resilience, Sleep: func(time.Duration) {}}
	g, err := New(Config{
		Target:         target,
		Driver:         rd,
		Catalog:        eng.Catalog().Clone(),
		Resilience:     resilience,
		BackendTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fd.SetLatency(5 * time.Second)
	start := time.Now()
	_, err = s.Run("SEL COUNT(*) FROM SALES")
	elapsed := time.Since(start)
	var re *RequestError
	if !errors.As(err, &re) || re.Code != tdp.CodeWriteStateUnknown {
		t.Fatalf("stalled backend: err = %v, want RequestError %d", err, tdp.CodeWriteStateUnknown)
	}
	if elapsed > 2*time.Second {
		t.Errorf("request took %v, want bounded by the 30ms deadline", elapsed)
	}
	// Later requests recover once the stall clears.
	fd.SetLatency(0)
	if _, err := s.Run("SEL COUNT(*) FROM SALES"); err != nil {
		t.Fatalf("request after stall cleared: %v", err)
	}
}

// An unreachable backend at logon yields a clean logon-failure record: the
// bteq-visible error is one actionable line, not a wrapped Go error chain.
func TestGatewayLogonBackendUnavailable(t *testing.T) {
	g, _, fd := newFaultGateway(t, func(rd *odbc.ResilientDriver) {
		rd.MaxRetries = -1
	})
	fd.RefuseConnects(-1)

	// Direct handler check: typed LogonError with the logons-denied code.
	_, err := g.Logon("appuser", "pw")
	var le *LogonError
	if !errors.As(err, &le) || le.Code != tdp.CodeLogonDenied {
		t.Fatalf("Logon err = %v, want LogonError %d", err, tdp.CodeLogonDenied)
	}

	// Over the wire: the client sees the same clean record.
	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatal(lerr)
	}
	defer ln.Close()
	go func() { _ = tdp.Serve(ln, g) }()
	_, err = tdp.Dial(ln.Addr().String(), "appuser", "pw")
	if err == nil {
		t.Fatal("logon against down backend succeeded")
	}
	if !strings.Contains(err.Error(), "backend system unavailable") {
		t.Errorf("wire logon error = %q, want the backend-unavailable record", err)
	}
	if strings.Contains(err.Error(), "connection refused") {
		t.Errorf("raw connection error leaked to the frontend: %q", err)
	}
}

// Every layer under the session wraps the errors it passes on, so the
// frontend code of each backend failure must be chosen through the wrap.
func TestBackendErrorCodesSeeThroughWraps(t *testing.T) {
	for _, c := range []struct {
		sentinel error
		code     int
	}{
		{pool.ErrSaturated, tdp.CodeGatewaySaturated},
		{pool.ErrAcquireTimeout, tdp.CodeGatewaySaturated},
		{odbc.ErrBreakerOpen, tdp.CodeBackendUnavailable},
		{odbc.ErrMaybeApplied, tdp.CodeWriteStateUnknown},
		{odbc.ErrReplicaDivergent, tdp.CodeWriteStateUnknown},
	} {
		if re := mapBackendError(fmt.Errorf("layer: %w", c.sentinel)); re.Code != c.code {
			t.Errorf("wrapped %v: code %d, want %d", c.sentinel, re.Code, c.code)
		}
	}
}
