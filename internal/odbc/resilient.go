package odbc

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/trace"
	"hyperq/internal/wire/cwp"
)

// ResilienceMetrics counts fault-handling events across the drivers that
// share it. All methods are nil-safe so drivers work without metrics.
type ResilienceMetrics struct {
	retries            int64
	reconnects         int64
	replays            int64
	breakerOpen        int64
	replicaQuarantined int64
}

// Retries is the number of transparent re-attempts after transient failures.
func (m *ResilienceMetrics) Retries() int64 { return atomic.LoadInt64(&m.retries) }

// Reconnects is the number of replacement backend sessions established.
func (m *ResilienceMetrics) Reconnects() int64 { return atomic.LoadInt64(&m.reconnects) }

// Replays is the number of session-state replays onto replacement sessions.
func (m *ResilienceMetrics) Replays() int64 { return atomic.LoadInt64(&m.replays) }

// BreakerOpen is the number of closed-to-open circuit breaker transitions.
func (m *ResilienceMetrics) BreakerOpen() int64 { return atomic.LoadInt64(&m.breakerOpen) }

// ReplicaQuarantined is the number of replicas removed from read rotation.
func (m *ResilienceMetrics) ReplicaQuarantined() int64 {
	return atomic.LoadInt64(&m.replicaQuarantined)
}

// Reset zeroes every counter.
func (m *ResilienceMetrics) Reset() {
	if m == nil {
		return
	}
	for _, p := range []*int64{&m.retries, &m.reconnects, &m.replays, &m.breakerOpen, &m.replicaQuarantined} {
		atomic.StoreInt64(p, 0)
	}
}

func (m *ResilienceMetrics) bump(p *int64) {
	if m != nil {
		atomic.AddInt64(p, 1)
	}
}

func (m *ResilienceMetrics) addRetry() {
	if m != nil {
		m.bump(&m.retries)
	}
}
func (m *ResilienceMetrics) addReconnect() {
	if m != nil {
		m.bump(&m.reconnects)
	}
}
func (m *ResilienceMetrics) addReplay() {
	if m != nil {
		m.bump(&m.replays)
	}
}
func (m *ResilienceMetrics) addBreakerOpen() {
	if m != nil {
		m.bump(&m.breakerOpen)
	}
}
func (m *ResilienceMetrics) addQuarantine() {
	if m != nil {
		m.bump(&m.replicaQuarantined)
	}
}

// --- circuit breaker --------------------------------------------------------

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-backend circuit breaker over connection-level failures.
// Closed: requests flow, consecutive failures are counted. Open: requests
// fail fast with ErrBreakerOpen until the cooldown elapses. Half-open: one
// probe is admitted; success closes the breaker, failure reopens it.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	metrics   *ResilienceMetrics

	state    breakerState
	failures int
	openedAt time.Time
	probing  bool
}

// Allow reports whether a backend attempt may proceed.
func (b *breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return ErrBreakerOpen
		}
		b.state = breakerHalfOpen
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// Success records a healthy backend interaction.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
}

// Failure records a connection-level failure.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if b.state == breakerHalfOpen {
		b.trip()
		return
	}
	b.failures++
	if b.state == breakerClosed && b.failures >= b.threshold {
		b.trip()
	}
}

func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.metrics.addBreakerOpen()
}

// --- resilient driver -------------------------------------------------------

// ResilientDriver is a drop-in Driver wrapper that makes backend execution
// fault-tolerant: it classifies failures into transient-connection vs
// SQL/semantic, bounds every request with a deadline, retries transient
// failures with capped exponential backoff plus jitter, transparently
// reconnects (replaying registered session state) when a connection dies,
// and fails fast through a per-backend circuit breaker when the backend is
// hard down. Idempotency rule: a request that may already have reached the
// backend is re-executed only when it is read-only; non-idempotent writes
// surface ErrMaybeApplied instead.
type ResilientDriver struct {
	// Inner is the wrapped driver (required).
	Inner Driver
	// Timeout bounds each request (connect or exec) that arrives without
	// its own deadline. 0 leaves requests unbounded.
	Timeout time.Duration
	// MaxRetries is the number of transparent re-attempts after the first
	// failure. 0 selects 3; negative disables retries.
	MaxRetries int
	// BaseBackoff is the first retry delay, doubled per attempt up to
	// MaxBackoff, with ±50% jitter. Zero values select 5ms / 500ms.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold is the consecutive connection-failure count that
	// opens the circuit. 0 selects 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open-state duration before a half-open probe
	// is admitted. 0 selects 1s.
	BreakerCooldown time.Duration
	// Metrics, when non-nil, accumulates fault-handling counters.
	Metrics *ResilienceMetrics
	// Sleep and Now are injectable for deterministic tests.
	Sleep func(time.Duration)
	Now   func() time.Time
	// Seed fixes the jitter sequence (tests); 0 selects a fixed default.
	Seed int64

	initOnce sync.Once
	brk      *breaker
	rngMu    sync.Mutex
	rng      *rand.Rand
}

func (d *ResilientDriver) init() {
	d.initOnce.Do(func() {
		now := d.Now
		if now == nil {
			now = time.Now
		}
		threshold := d.BreakerThreshold
		if threshold == 0 {
			threshold = 5
		}
		if threshold < 0 {
			threshold = 1 << 30 // effectively disabled
		}
		cooldown := d.BreakerCooldown
		if cooldown == 0 {
			cooldown = time.Second
		}
		d.brk = &breaker{threshold: threshold, cooldown: cooldown, now: now, metrics: d.Metrics}
		seed := d.Seed
		if seed == 0 {
			seed = 1
		}
		d.rng = rand.New(rand.NewSource(seed))
	})
}

func (d *ResilientDriver) maxRetries() int {
	if d.MaxRetries > 0 {
		return d.MaxRetries
	}
	if d.MaxRetries < 0 {
		return 0
	}
	return 3
}

// backoff sleeps the capped exponential delay for retry attempt n (1-based)
// with ±50% jitter, returning early if the context expires.
func (d *ResilientDriver) backoff(ctx context.Context, attempt int) {
	base := d.BaseBackoff
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	max := d.MaxBackoff
	if max <= 0 {
		max = 500 * time.Millisecond
	}
	delay := base << (attempt - 1)
	if delay > max || delay <= 0 {
		delay = max
	}
	d.rngMu.Lock()
	jitter := 0.5 + d.rng.Float64() // factor in [0.5, 1.5)
	d.rngMu.Unlock()
	delay = time.Duration(float64(delay) * jitter)
	if d.Sleep != nil {
		d.Sleep(delay)
		return
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// reqContext applies the driver-level timeout when the caller supplied none.
func (d *ResilientDriver) reqContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if d.Timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			return context.WithTimeout(ctx, d.Timeout)
		}
	}
	return ctx, func() {}
}

// Connect opens a fault-tolerant backend session.
func (d *ResilientDriver) Connect() (Executor, error) {
	return d.ConnectContext(context.Background())
}

// ConnectContext opens a fault-tolerant backend session. Connection
// establishment happens strictly before any request is sent, so transient
// connect failures are retried unconditionally.
func (d *ResilientDriver) ConnectContext(ctx context.Context) (Executor, error) {
	d.init()
	ctx, cancel := d.reqContext(ctx)
	defer cancel()
	e := &resilientExecutor{d: d}
	if err := e.reconnect(ctx); err != nil {
		return nil, err
	}
	return e, nil
}

var (
	_ Driver         = (*ResilientDriver)(nil)
	_ ReconnectAware = (*resilientExecutor)(nil)
)

type resilientExecutor struct {
	d     *ResilientDriver
	inner StreamExecutor
	// restore rebuilds session state on replacement connections.
	restore func(Executor) error
	// everConnected distinguishes the initial connect (no replay, not a
	// reconnect) from replacements.
	everConnected bool
	// stream is the in-flight streaming request's (ExecStream).
	stream resilientStream
}

// OnReconnect implements ReconnectAware.
func (e *resilientExecutor) OnReconnect(restore func(Executor) error) { e.restore = restore }

// reconnect establishes a (replacement) inner session, retrying transient
// connect failures with backoff. Connect failures happen before any request
// is sent, so they are always safe to retry. A successful replacement
// session has the registered session state replayed onto it before use.
func (e *resilientExecutor) reconnect(ctx context.Context) error {
	d := e.d
	tr := trace.FromContext(ctx)
	var lastErr error
	for attempt := 0; attempt <= d.maxRetries(); attempt++ {
		if attempt > 0 {
			d.Metrics.addRetry()
			tr.Event("retry", "op", "connect", "attempt", strconv.Itoa(attempt))
			d.backoff(ctx, attempt)
			if ctx.Err() != nil {
				return lastErr
			}
		}
		if err := d.brk.Allow(); err != nil {
			// Open breaker: fail fast; waiting out the cooldown inside a
			// request would defeat the point.
			return err
		}
		// Within a request (trace present), a replacement connection is a
		// reconnect span; the initial logon-time connect is untraced.
		var sp *trace.Span
		if e.everConnected {
			sp = tr.Start("reconnect")
		}
		inner, err := ConnectContext(ctx, d.Inner)
		if err != nil {
			sp.Set("error", err.Error())
			sp.End()
			d.brk.Failure()
			lastErr = err
			if !Transient(err) {
				return err // e.g. authentication rejection: retrying is futile
			}
			continue
		}
		d.brk.Success()
		if e.everConnected {
			d.Metrics.addReconnect()
			if e.restore != nil {
				d.Metrics.addReplay()
				rsp := tr.Start("replay")
				rerr := e.restore(inner)
				rsp.End()
				if rerr != nil {
					sp.End()
					_ = inner.Close()
					d.brk.Failure()
					lastErr = fmt.Errorf("odbc: session replay: %w", rerr)
					if !Transient(rerr) {
						return lastErr
					}
					continue
				}
			}
		}
		sp.End()
		e.everConnected = true
		e.inner = inner
		return nil
	}
	return lastErr
}

func (e *resilientExecutor) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	e.d.init()
	ctx, cancel := e.d.reqContext(ctx)
	defer cancel()
	var res []*cwp.StatementResult
	err := e.retry(ctx, sql, "exec", func() (err error) {
		res, err = e.inner.ExecContext(ctx, sql)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// retry is the one request loop behind ExecContext and ExecStream: it makes
// sure a session exists (reconnecting, with session-state replay, when the
// last one died), runs attempt on it, and decides from the failure class
// whether another attempt is allowed. A nil error from attempt means the
// request is answered (for a stream: its first event arrived). op labels the
// retry events in the trace. The request is classified (isReadOnly parses it)
// only when a connection failure asks whether it may run again, at most once.
func (e *resilientExecutor) retry(ctx context.Context, sql, op string, attempt func() error) error {
	d := e.d
	readOnly := false
	for n := 0; ; n++ {
		if e.inner == nil {
			if err := e.reconnect(ctx); err != nil {
				return err
			}
		}
		err := attempt()
		if err == nil {
			d.brk.Success()
			return nil
		}
		if !ConnectionError(err) {
			// The backend answered: the connection is healthy.
			d.brk.Success()
			if !Transient(err) || n >= d.maxRetries() {
				return err
			}
			// Retryable abort (deadlock class): the backend rolled the
			// statement back, so re-executing is safe even for writes.
			d.Metrics.addRetry()
			trace.FromContext(ctx).Event("retry", "op", op, "class", "retryable-abort", "attempt", strconv.Itoa(n+1))
			d.backoff(ctx, n+1)
			if ctx.Err() != nil {
				return err
			}
			continue
		}
		// Connection-level failure: the session is unusable.
		d.brk.Failure()
		_ = e.inner.Close()
		e.inner = nil
		readOnly = readOnly || isReadOnly(sql) // a write returns below: parsed at most once
		if !readOnly {
			// The request was already on the wire and is not idempotent:
			// the backend may have applied it. Never retry.
			return fmt.Errorf("%w (%v)", ErrMaybeApplied, err)
		}
		if n >= d.maxRetries() || ctx.Err() != nil {
			return err
		}
		d.Metrics.addRetry()
		trace.FromContext(ctx).Event("retry", "op", op, "class", "connection-lost", "attempt", strconv.Itoa(n+1))
		d.backoff(ctx, n+1)
	}
}

func (e *resilientExecutor) Close() error {
	if e.inner == nil {
		return nil
	}
	err := e.inner.Close()
	e.inner = nil
	return err
}
