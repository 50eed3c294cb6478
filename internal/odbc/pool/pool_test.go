package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperq/internal/odbc"
	"hyperq/internal/wire/cwp"
)

// fakeDriver is a minimal in-memory backend for pool tests: it counts dials
// and closes, can refuse dials with an injected error, can delay execs, and
// can hold a Close (reporting on closeEntered, waiting for closeGate).
type fakeDriver struct {
	mu           sync.Mutex
	dials        int
	closes       int
	dialErr      error
	execDelay    time.Duration
	closeEntered chan struct{}
	closeGate    chan struct{}
}

func (d *fakeDriver) Connect() (odbc.Executor, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dialErr != nil {
		return nil, d.dialErr
	}
	d.dials++
	return &fakeExec{d: d, id: d.dials}, nil
}

func (d *fakeDriver) setDialErr(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dialErr = err
}

func (d *fakeDriver) counts() (dials, closes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials, d.closes
}

type fakeExec struct {
	d  *fakeDriver
	id int

	mu      sync.Mutex
	execs   int
	closed  bool
	restore func(odbc.Executor) error
}

// ExecStream makes the fake a native streamer, so pooled connections hold
// it as itself and its ReconnectAware hook stays reachable.
func (e *fakeExec) ExecStream(ctx context.Context, sql string) (odbc.ResultStream, error) {
	results, err := e.ExecContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return odbc.BufferStream(results), nil
}

func (e *fakeExec) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	e.d.mu.Lock()
	delay := e.d.execDelay
	e.d.mu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("exec on closed connection %d", e.id)
	}
	e.execs++
	return []*cwp.StatementResult{{Command: "OK"}}, nil
}

func (e *fakeExec) Close() error {
	e.mu.Lock()
	wasClosed := e.closed
	e.closed = true
	e.mu.Unlock()
	if !wasClosed {
		e.d.mu.Lock()
		e.d.closes++
		entered, gate := e.d.closeEntered, e.d.closeGate
		e.d.mu.Unlock()
		if gate != nil {
			entered <- struct{}{}
			<-gate
		}
	}
	return nil
}

func (e *fakeExec) OnReconnect(restore func(odbc.Executor) error) {
	e.mu.Lock()
	e.restore = restore
	e.mu.Unlock()
}

func (e *fakeExec) restoreHook() func(odbc.Executor) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.restore
}

var _ odbc.ReconnectAware = (*fakeExec)(nil)

func newTestPool(t *testing.T, cfg Config) (*Pool, *fakeDriver) {
	t.Helper()
	d := &fakeDriver{}
	if cfg.Driver == nil {
		cfg.Driver = d
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p, d
}

// New dials nothing and starts no goroutine: connections are dialed on
// demand and closed only when broken, pinned at disconnect, or at Close.
func TestNewStartsNoGoroutine(t *testing.T) {
	d := &fakeDriver{}
	before := runtime.NumGoroutine()
	p, err := New(Config{Driver: d, Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("goroutines after New = %d, want %d", n, before)
	}
	if dials, _ := d.counts(); dials != 0 {
		t.Errorf("dials after New = %d, want 0", dials)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// A statement-level lease dials lazily, executes, and parks the connection
// for reuse: two sequential sessions share one backend connection.
func TestStatementLeaseReuse(t *testing.T) {
	p, d := newTestPool(t, Config{Size: 4})
	for i := 0; i < 2; i++ {
		sc := p.Session()
		if _, err := sc.ExecContext(context.Background(), "SEL 1"); err != nil {
			t.Fatal(err)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if dials, _ := d.counts(); dials != 1 {
		t.Errorf("dials = %d, want 1 (sequential statements share one connection)", dials)
	}
	s := p.Stats()
	if s.Idle != 1 || s.InUse != 0 {
		t.Errorf("idle/in_use = %d/%d, want 1/0", s.Idle, s.InUse)
	}
	if s.Acquires != 2 {
		t.Errorf("acquires = %d, want 2", s.Acquires)
	}
}

// The pool never opens more than Size backend connections, no matter how
// many sessions run concurrently.
func TestPoolBoundsBackendConnections(t *testing.T) {
	const size, sessions = 2, 16
	p, d := newTestPool(t, Config{Size: size, MaxWaiters: -1, AcquireTimeout: 30 * time.Second})
	d.execDelay = time.Millisecond
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := p.Session()
			defer sc.Close()
			for j := 0; j < 5; j++ {
				if _, err := sc.ExecContext(context.Background(), "SEL 1"); err != nil {
					t.Errorf("exec: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if dials, _ := d.counts(); dials > size {
		t.Errorf("dials = %d, want <= %d", dials, size)
	}
	if s := p.Stats(); s.Waits == 0 {
		t.Error("waits = 0, want > 0 (16 sessions over 2 connections must queue)")
	}
}

// holdConn leases the pool's only connection and returns a release func.
func holdConn(t *testing.T, p *Pool) func(broken bool) {
	t.Helper()
	c, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return func(broken bool) { p.release(c, broken) }
}

// waitForWaiters polls until the wait queue reaches n.
func waitForWaiters(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Stats().Waiters >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("wait queue never reached %d (now %d)", n, p.Stats().Waiters)
}

// Queued waiters are served in arrival order: fair FIFO handoff.
func TestFIFOFairness(t *testing.T) {
	p, _ := newTestPool(t, Config{Size: 1, MaxWaiters: -1, AcquireTimeout: 30 * time.Second})
	release := holdConn(t, p)
	const waiters = 8
	served := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		waitForWaiters(t, p, i) // previous waiter is enqueued before the next starts
		go func() {
			c, err := p.acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				served <- -1
				return
			}
			served <- i
			p.release(c, false)
		}()
	}
	waitForWaiters(t, p, waiters)
	release(false)
	for want := 0; want < waiters; want++ {
		got := <-served
		if got != want {
			t.Fatalf("waiter served out of order: got %d, want %d", got, want)
		}
	}
}

// The max-waiters cap rejects excess demand immediately with ErrSaturated.
func TestAdmissionControlSaturation(t *testing.T) {
	p, _ := newTestPool(t, Config{Size: 1, MaxWaiters: 2})
	release := holdConn(t, p)
	defer release(false)
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := p.acquire(context.Background())
			if err == nil {
				defer p.release(c, false)
			}
			results <- err
		}()
	}
	waitForWaiters(t, p, 2)
	_, err := p.acquire(context.Background())
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("acquire over cap: err = %v, want ErrSaturated", err)
	}
	if s := p.Stats(); s.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", s.Rejected)
	}
	release(false)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued waiter: %v", err)
		}
	}
}

// An acquire that cannot be served within its deadline fails with
// ErrAcquireTimeout instead of hanging.
func TestAcquireTimeout(t *testing.T) {
	p, _ := newTestPool(t, Config{Size: 1, AcquireTimeout: 20 * time.Millisecond})
	release := holdConn(t, p)
	defer release(false)
	start := time.Now()
	_, err := p.acquire(context.Background())
	if !errors.Is(err, ErrAcquireTimeout) {
		t.Fatalf("err = %v, want ErrAcquireTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timed-out acquire took %v", elapsed)
	}
	s := p.Stats()
	if s.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", s.Timeouts)
	}
	if s.WaitSeconds.Count == 0 {
		t.Error("wait histogram empty: timed-out waits must still observe")
	}
}

// Parked idle connections count against Size: a pool that went quiet with
// every connection idle reuses them, and an acquire beyond Size queues (and
// times out) instead of dialing another.
func TestIdleConnectionsKeepCapacity(t *testing.T) {
	p, d := newTestPool(t, Config{Size: 2})
	c1, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.release(c1, false)
	p.release(c2, false)
	if s := p.Stats(); s.Idle != 2 {
		t.Fatalf("idle = %d, want 2", s.Idle)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.acquire(ctx); !errors.Is(err, ErrAcquireTimeout) {
		t.Fatalf("third acquire = %v, want ErrAcquireTimeout", err)
	}
	if dials, _ := d.counts(); dials != 2 {
		t.Fatalf("dials = %d, want 2 (capacity leaked)", dials)
	}
}

// A failed dial gives back the slot it reserved: acquires against a down
// backend must not wedge the pool at numOpen == Size with no connections.
func TestDialFailureReleasesReservedSlot(t *testing.T) {
	p, d := newTestPool(t, Config{Size: 4, AcquireTimeout: 200 * time.Millisecond})
	d.setDialErr(errors.New("backend down"))
	for i := 0; i < 10; i++ {
		if _, err := p.acquire(context.Background()); err == nil {
			t.Fatal("acquire succeeded against a down backend")
		}
	}
	p.mu.Lock()
	open := p.numOpen
	p.mu.Unlock()
	if open != 0 {
		t.Fatalf("numOpen after failed dials = %d, want 0 (reserved slots leaked)", open)
	}
	// The backend recovers: the pool must still open all Size connections.
	d.setDialErr(nil)
	var conns []odbc.StreamExecutor
	for i := 0; i < 4; i++ {
		c, err := p.acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire %d after backend recovery: %v", i, err)
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		p.release(c, false)
	}
	if dials, _ := d.counts(); dials != 4 {
		t.Errorf("dials = %d, want 4", dials)
	}
}

// When a replacement dial hits an open circuit breaker the whole wait queue
// is shed with the breaker error: every queued session would fail the same
// way, and holding them only delays the failure.
func TestBreakerOpenShedsWaitQueue(t *testing.T) {
	p, d := newTestPool(t, Config{Size: 1})
	release := holdConn(t, p)
	const waiters = 3
	results := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			c, err := p.acquire(context.Background())
			if err == nil {
				p.release(c, false)
			}
			results <- err
		}()
	}
	waitForWaiters(t, p, waiters)
	// The backend goes hard-down: the held connection breaks and the
	// replacement dial is rejected by the open breaker.
	d.setDialErr(fmt.Errorf("connect: %w", odbc.ErrBreakerOpen))
	release(true)
	for i := 0; i < waiters; i++ {
		if err := <-results; !errors.Is(err, odbc.ErrBreakerOpen) {
			t.Errorf("waiter %d: err = %v, want ErrBreakerOpen", i, err)
		}
	}
	if s := p.Stats(); s.Shed == 0 {
		t.Error("shed = 0, want > 0")
	}
}

// Pin dedicates one connection across statements; Unpin returns it clean.
func TestPinUnpin(t *testing.T) {
	p, d := newTestPool(t, Config{Size: 2})
	sc := p.Session()
	defer sc.Close()
	if err := sc.Pin(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !sc.Pinned() {
		t.Fatal("Pinned() = false after Pin")
	}
	var ids []int
	for i := 0; i < 3; i++ {
		if _, err := sc.ExecContext(context.Background(), "SEL 1"); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sc.pinConn.(*fakeExec).id)
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Errorf("pinned statements used connections %v, want one connection", ids)
	}
	if s := p.Stats(); s.Pinned != 1 || s.Pins != 1 {
		t.Errorf("pinned/pins = %d/%d, want 1/1", s.Pinned, s.Pins)
	}
	sc.Unpin()
	if sc.Pinned() {
		t.Error("Pinned() = true after Unpin")
	}
	s := p.Stats()
	if s.Pinned != 0 || s.Unpins != 1 || s.Idle != 1 {
		t.Errorf("pinned/unpins/idle = %d/%d/%d, want 0/1/1", s.Pinned, s.Unpins, s.Idle)
	}
	if _, closes := d.counts(); closes != 0 {
		t.Errorf("closes = %d, want 0 (unpinned clean connection is reused)", closes)
	}
}

// The session replay hook installs on the pinned connection and is cleared
// before the connection can serve another session.
func TestPinInstallsReconnectHook(t *testing.T) {
	p, _ := newTestPool(t, Config{Size: 1})
	sc := p.Session()
	defer sc.Close()
	restore := func(odbc.Executor) error { return nil }
	sc.OnReconnect(restore)
	if err := sc.Pin(context.Background()); err != nil {
		t.Fatal(err)
	}
	ex := sc.pinConn.(*fakeExec)
	if ex.restoreHook() == nil {
		t.Fatal("restore hook not installed on pinned connection")
	}
	sc.Unpin()
	if ex.restoreHook() != nil {
		t.Error("restore hook survived release: would replay another session's state")
	}
	// A plain statement lease never carries the hook.
	if _, err := sc.ExecContext(context.Background(), "SEL 1"); err != nil {
		t.Fatal(err)
	}
	if ex.restoreHook() != nil {
		t.Error("restore hook installed on a statement-level lease")
	}
}

// Closing a session with a pinned connection destroys the connection: it
// holds session state (volatile tables, an open transaction) that must not
// leak to another session — and the slot frees for a fresh dial.
func TestCloseDestroysPinnedConnection(t *testing.T) {
	p, d := newTestPool(t, Config{Size: 1})
	sc := p.Session()
	if err := sc.Pin(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, closes := d.counts(); closes != 1 {
		t.Errorf("closes = %d, want 1 (dirty pinned connection destroyed)", closes)
	}
	s := p.Stats()
	if s.Idle != 0 || s.InUse != 0 || s.Pinned != 0 {
		t.Errorf("idle/in_use/pinned = %d/%d/%d, want 0/0/0", s.Idle, s.InUse, s.Pinned)
	}
	// The slot is free: a new session acquires without waiting.
	sc2 := p.Session()
	defer sc2.Close()
	if _, err := sc2.ExecContext(context.Background(), "SEL 1"); err != nil {
		t.Fatalf("exec after dirty close: %v", err)
	}
}

// A session closed while its Pin waits for a connection hands the connection
// the Pin then gets straight back: the pool keeps its capacity.
func TestCloseDuringPinReturnsConnection(t *testing.T) {
	p, _ := newTestPool(t, Config{Size: 1, AcquireTimeout: 30 * time.Second})
	release := holdConn(t, p)
	sc := p.Session()
	pinned := make(chan error, 1)
	go func() { pinned <- sc.Pin(context.Background()) }()
	waitForWaiters(t, p, 1)
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	release(false)
	if err := <-pinned; !errors.Is(err, ErrClosed) {
		t.Fatalf("Pin on a closed session: %v, want ErrClosed", err)
	}
	if s := p.Stats(); s.InUse != 0 || s.Pinned != 0 || s.Idle != 1 {
		t.Errorf("in_use/pinned/idle = %d/%d/%d, want 0/0/1", s.InUse, s.Pinned, s.Idle)
	}
}

// A connection's Close can block (a cwp client writes its logoff), so the
// pool never holds its lock across one: while a discarded connection's Close
// hangs, the pool still answers.
func TestDiscardClosesOutsideTheLock(t *testing.T) {
	p, d := newTestPool(t, Config{Size: 1})
	entered, gate := make(chan struct{}), make(chan struct{})
	d.mu.Lock()
	d.closeEntered, d.closeGate = entered, gate
	d.mu.Unlock()
	release := holdConn(t, p)
	go release(true)
	<-entered
	answered := make(chan struct{})
	go func() {
		p.Stats()
		close(answered)
	}()
	select {
	case <-answered:
	case <-time.After(5 * time.Second):
		t.Error("Stats blocked while a discarded connection was closing")
	}
	close(gate)
	<-answered
	d.mu.Lock()
	d.closeEntered, d.closeGate = nil, nil
	d.mu.Unlock()
}

// A broken connection is discarded at release, never handed to a waiter.
func TestBrokenConnectionDiscarded(t *testing.T) {
	p, d := newTestPool(t, Config{Size: 1})
	release := holdConn(t, p)
	done := make(chan error, 1)
	go func() {
		c, err := p.acquire(context.Background())
		if err == nil {
			p.release(c, false)
		}
		done <- err
	}()
	waitForWaiters(t, p, 1)
	release(true)
	if err := <-done; err != nil {
		t.Fatalf("waiter after broken release: %v", err)
	}
	dials, closes := d.counts()
	if dials != 2 || closes != 1 {
		t.Errorf("dials/closes = %d/%d, want 2/1 (broken conn replaced by fresh dial)", dials, closes)
	}
	if s := p.Stats(); s.Discarded != 1 {
		t.Errorf("discarded = %d, want 1", s.Discarded)
	}
}

// Close fails queued waiters with ErrClosed and closes idle connections.
func TestCloseFailsWaiters(t *testing.T) {
	p, d := newTestPool(t, Config{Size: 1})
	release := holdConn(t, p)
	done := make(chan error, 1)
	go func() {
		_, err := p.acquire(context.Background())
		done <- err
	}()
	waitForWaiters(t, p, 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Errorf("waiter after Close: err = %v, want ErrClosed", err)
	}
	release(false) // leased connection closes on release after pool close
	if _, closes := d.counts(); closes != 1 {
		t.Errorf("closes = %d, want 1", closes)
	}
	if _, err := p.Connect(); !errors.Is(err, ErrClosed) {
		t.Errorf("Connect after Close: err = %v, want ErrClosed", err)
	}
}

// The race-enabled stress test: 100 goroutines acquire, execute, pin, unpin
// and close against a small pool. Run under -race in scripts/check.sh; the
// invariant checks catch leaked or double-released connections.
func TestPoolStressRace(t *testing.T) {
	const goroutines = 100
	p, d := newTestPool(t, Config{Size: 4, MaxWaiters: -1, AcquireTimeout: 10 * time.Second})
	var execs int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := p.Session()
			defer sc.Close()
			for j := 0; j < 20; j++ {
				switch (i + j) % 4 {
				case 0: // pinned burst: state established, used, dropped
					if err := sc.Pin(context.Background()); err != nil {
						t.Errorf("pin: %v", err)
						return
					}
					if _, err := sc.ExecContext(context.Background(), "SEL 1"); err != nil {
						t.Errorf("pinned exec: %v", err)
						return
					}
					atomic.AddInt64(&execs, 1)
					sc.Unpin()
				default: // statement-level lease
					if _, err := sc.ExecContext(context.Background(), "SEL 1"); err != nil {
						t.Errorf("exec: %v", err)
						return
					}
					atomic.AddInt64(&execs, 1)
				}
			}
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt64(&execs); got != goroutines*20 {
		t.Errorf("execs = %d, want %d", got, goroutines*20)
	}
	s := p.Stats()
	if s.InUse != 0 || s.Pinned != 0 || s.Waiters != 0 {
		t.Errorf("leak: in_use=%d pinned=%d waiters=%d, want all 0", s.InUse, s.Pinned, s.Waiters)
	}
	if s.Idle > 4 {
		t.Errorf("idle = %d, want <= pool size 4", s.Idle)
	}
	dials, closes := d.counts()
	if open := dials - closes; open != s.Idle {
		t.Errorf("driver sees %d open connections, pool parks %d", open, s.Idle)
	}
	if s.Pins != s.Unpins {
		t.Errorf("pins=%d unpins=%d, want equal", s.Pins, s.Unpins)
	}
}
