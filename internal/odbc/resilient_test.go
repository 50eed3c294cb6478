package odbc_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/faultdriver"
	"hyperq/internal/wire/cwp"
)

func resilienceEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New(dialect.TeradataProfile())
	s := eng.NewSession()
	for _, sql := range []string{
		"CREATE TABLE rt (x INT)",
		"INSERT INTO rt VALUES (1), (2), (3)",
	} {
		if _, err := s.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// resilientStack wires engine -> faultdriver -> ResilientDriver with a no-op
// Sleep so retry loops run instantly.
func resilientStack(t *testing.T) (*faultdriver.Driver, *odbc.ResilientDriver, *odbc.ResilienceMetrics) {
	t.Helper()
	eng := resilienceEngine(t)
	fd := faultdriver.New(&odbc.LocalDriver{Engine: eng, User: "u"})
	met := &odbc.ResilienceMetrics{}
	rd := &odbc.ResilientDriver{
		Inner:   fd,
		Metrics: met,
		Sleep:   func(time.Duration) {},
	}
	return fd, rd, met
}

// Transient connect failures happen strictly before any request is sent, so
// they are retried unconditionally.
func TestResilientConnectRetriesTransient(t *testing.T) {
	fd, rd, met := resilientStack(t)
	fd.RefuseConnects(2)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatalf("Connect after transient refusals: %v", err)
	}
	defer ex.Close()
	if got := fd.Connects(); got != 3 {
		t.Errorf("connect attempts = %d, want 3", got)
	}
	if got := met.Retries(); got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
	res, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Rows()[0][0].I != 3 {
		t.Errorf("count = %v, want 3", res[0].Rows()[0][0])
	}
}

// A non-transient connect failure (e.g. authentication rejection) must not
// be retried.
func TestResilientConnectPermanentFailureNotRetried(t *testing.T) {
	fd, rd, _ := resilientStack(t)
	authErr := &cwp.BackendError{Code: 8017, Message: "user not authorized"}
	fd.FailConnect(1, authErr)
	_, err := rd.Connect()
	var be *cwp.BackendError
	if !errors.As(err, &be) || be.Code != 8017 {
		t.Fatalf("Connect error = %v, want backend error 8017", err)
	}
	if got := fd.Connects(); got != 1 {
		t.Errorf("connect attempts = %d, want 1 (no retry)", got)
	}
}

// A mid-session connection drop on a read-only request is healed
// transparently: reconnect, replay registered session state, re-execute.
func TestResilientReconnectReplaysAndRetriesRead(t *testing.T) {
	fd, rd, met := resilientStack(t)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ra, ok := ex.(odbc.ReconnectAware)
	if !ok {
		t.Fatal("resilient executor is not ReconnectAware")
	}
	var replayed int
	ra.OnReconnect(func(repl odbc.Executor) error {
		replayed++
		// Stand-in for session state: visible through the replacement session.
		_, err := repl.ExecContext(context.Background(), "INSERT INTO rt VALUES (42)")
		return err
	})
	if _, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt"); err != nil {
		t.Fatal(err)
	}
	fd.DropActiveSessions()
	res, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt")
	if err != nil {
		t.Fatalf("read after backend bounce: %v", err)
	}
	if got := res[0].Rows()[0][0].I; got != 4 {
		t.Errorf("count = %d, want 4 (3 seed rows + 1 replayed)", got)
	}
	if replayed != 1 {
		t.Errorf("restore ran %d times, want 1", replayed)
	}
	if met.Reconnects() != 1 || met.Replays() != 1 {
		t.Errorf("Reconnects/Replays = %d/%d, want 1/1", met.Reconnects(), met.Replays())
	}
}

// A connection drop on a non-idempotent write must NOT be retried: the
// request may already have been applied.
func TestResilientWriteNotRetriedAfterDrop(t *testing.T) {
	fd, rd, _ := resilientStack(t)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	fd.DropActiveSessions()
	before := fd.Execs()
	_, err = ex.ExecContext(context.Background(), "INSERT INTO rt VALUES (99)")
	if !errors.Is(err, odbc.ErrMaybeApplied) {
		t.Fatalf("write after drop: err = %v, want ErrMaybeApplied", err)
	}
	if got := fd.Execs() - before; got != 1 {
		t.Errorf("exec attempts = %d, want exactly 1 (never retried)", got)
	}
	// The session heals on the next request.
	res, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows()[0][0].I; got != 3 {
		t.Errorf("count = %d, want 3 (failed insert not applied, not retried)", got)
	}
}

// A transient backend abort (deadlock class) means the statement rolled
// back: safe to retry in place, even for a write.
func TestResilientTransientBackendAbortRetried(t *testing.T) {
	fd, rd, met := resilientStack(t)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	fd.QueueExecErrors(&cwp.BackendError{Code: 2631, Message: "transaction aborted, retry"})
	if _, err := ex.ExecContext(context.Background(), "INSERT INTO rt VALUES (7)"); err != nil {
		t.Fatalf("write after transient abort: %v", err)
	}
	res, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Rows()[0][0].I; got != 4 {
		t.Errorf("count = %d, want 4 (insert applied exactly once)", got)
	}
	if met.Retries() == 0 {
		t.Error("Retries = 0, want > 0")
	}
}

// Permanent SQL errors are surfaced immediately, with no retry.
func TestResilientSQLErrorNotRetried(t *testing.T) {
	fd, rd, met := resilientStack(t)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	before := fd.Execs()
	_, err = ex.ExecContext(context.Background(), "SELECT nope FROM rt")
	if err == nil {
		t.Fatal("SQL error not surfaced")
	}
	if errors.Is(err, odbc.ErrMaybeApplied) {
		t.Errorf("SQL error misclassified as maybe-applied: %v", err)
	}
	if got := fd.Execs() - before; got != 1 {
		t.Errorf("exec attempts = %d, want 1", got)
	}
	if met.Retries() != 0 {
		t.Errorf("Retries = %d, want 0", met.Retries())
	}
}

// Hard-down backend: consecutive connection failures open the breaker, and
// subsequent requests fail fast without touching the backend. After the
// cooldown a single half-open probe is admitted; success closes the circuit.
func TestResilientBreakerOpensAndRecovers(t *testing.T) {
	fd, rd, met := resilientStack(t)
	now := time.Unix(1000, 0)
	rd.Now = func() time.Time { return now }
	rd.MaxRetries = -1 // isolate breaker behavior from retry loops
	rd.BreakerThreshold = 2
	rd.BreakerCooldown = time.Minute

	fd.RefuseConnects(-1)
	for i := 0; i < 2; i++ {
		if _, err := rd.Connect(); err == nil {
			t.Fatalf("connect %d to hard-down backend succeeded", i)
		}
	}
	if met.BreakerOpen() != 1 {
		t.Fatalf("BreakerOpen = %d, want 1", met.BreakerOpen())
	}
	attempts := fd.Connects()
	_, err := rd.Connect()
	if !errors.Is(err, odbc.ErrBreakerOpen) {
		t.Fatalf("open breaker: err = %v, want ErrBreakerOpen", err)
	}
	if fd.Connects() != attempts {
		t.Error("open breaker still dialed the backend")
	}

	// Cooldown elapses while the backend is still down: the probe fails and
	// the breaker reopens immediately (one attempt only).
	now = now.Add(2 * time.Minute)
	if _, err := rd.Connect(); errors.Is(err, odbc.ErrBreakerOpen) || err == nil {
		t.Fatalf("half-open probe: err = %v, want the connect error", err)
	}
	if met.BreakerOpen() != 2 {
		t.Errorf("BreakerOpen = %d, want 2 (probe failure reopened)", met.BreakerOpen())
	}
	if _, err := rd.Connect(); !errors.Is(err, odbc.ErrBreakerOpen) {
		t.Fatalf("after failed probe: err = %v, want ErrBreakerOpen", err)
	}

	// Backend heals; the next probe closes the circuit.
	now = now.Add(2 * time.Minute)
	fd.RefuseConnects(0)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatalf("probe against healed backend: %v", err)
	}
	defer ex.Close()
	if res, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt"); err != nil || res[0].Rows()[0][0].I != 3 {
		t.Fatalf("exec after recovery: res=%v err=%v", res, err)
	}
}

// The per-request deadline bounds a stalled backend: the request fails
// quickly with a transient (deadline) error instead of hanging.
func TestResilientDeadlineBoundsStalledBackend(t *testing.T) {
	fd, rd, _ := resilientStack(t)
	rd.Timeout = 30 * time.Millisecond
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	fd.SetLatency(5 * time.Second)
	start := time.Now()
	_, err = ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled backend request succeeded")
	}
	if !odbc.Transient(err) {
		t.Errorf("deadline error not classified transient: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("request took %v, want bounded by the 30ms deadline", elapsed)
	}
	// The next request (with the stall cleared) reconnects and succeeds.
	fd.SetLatency(0)
	if res, err := ex.ExecContext(context.Background(), "SELECT COUNT(*) FROM rt"); err != nil || res[0].Rows()[0][0].I != 3 {
		t.Fatalf("exec after stall cleared: res=%v err=%v", res, err)
	}
}

// A caller-supplied context deadline takes precedence and cancels waiting.
func TestResilientCallerContextHonored(t *testing.T) {
	fd, rd, _ := resilientStack(t)
	ex, err := rd.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	fd.SetLatency(5 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := ex.ExecContext(ctx, "SELECT COUNT(*) FROM rt"); err == nil {
		t.Fatal("request outlived its context")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("request took %v, want bounded by the caller deadline", elapsed)
	}
}
