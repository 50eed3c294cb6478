// Package pool implements the gateway's shared backend connection pool —
// the ODBC Server / Gateway Manager mechanism (§4.5, §4.7) that lets one
// Hyper-Q instance front a large number of concurrent client connections
// against a backend with far fewer available sessions. Frontend sessions are
// multiplexed over a bounded set of backend executors, pgbouncer-style:
// statement-level leases by default (acquire → exec → release), with session
// pinning when gateway-side state (volatile tables, global-temporary
// instances, emulation work tables, open transactions) forces a dedicated
// backend connection.
//
// The pool layers under the fault-tolerant execution layer by composition:
// it dials through any odbc.Driver, so wrapping a ResilientDriver makes
// every pooled connection individually retry, reconnect, and respect the
// shared circuit breaker. Admission control keeps overload from piling up:
// a bounded FIFO wait queue with per-acquire deadlines, a max-waiters cap
// that rejects excess demand with a clean error, and load shedding of the
// whole queue when the backend's circuit breaker is open.
package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/metrics"
	"hyperq/internal/odbc"
	"hyperq/internal/trace"
)

// Sentinel errors surfaced to the gateway so each admission-control outcome
// maps onto a distinct frontend failure code.
var (
	// ErrSaturated rejects an acquire when the wait queue is already at the
	// max-waiters cap: admitting more waiters would only grow the pile-up.
	ErrSaturated = errors.New("pool: saturated, too many sessions waiting for a backend connection")
	// ErrAcquireTimeout fails an acquire whose deadline elapsed while
	// waiting for a backend connection.
	ErrAcquireTimeout = errors.New("pool: timed out waiting for a backend connection")
	// ErrClosed fails operations on a closed pool.
	ErrClosed = errors.New("pool: closed")
)

// Config configures a Pool.
type Config struct {
	// Driver dials backend sessions (required). Wrap it in an
	// odbc.ResilientDriver so each pooled connection is fault-tolerant.
	Driver odbc.Driver
	// Size bounds the number of backend connections. 0 selects 8.
	Size int
	// MaxWaiters caps the acquire wait queue; an acquire beyond the cap
	// fails immediately with ErrSaturated. 0 selects 4×Size; negative
	// removes the cap.
	MaxWaiters int
	// AcquireTimeout bounds how long an acquire that arrives without an
	// earlier context deadline may dial or queue; an idle connection is
	// handed out without arming it. 0 selects 5s; negative leaves acquires
	// unbounded.
	AcquireTimeout time.Duration
	// MaintainEvery is ignored: the pool runs no background goroutine. The
	// field stays only while perf/ still sets it (ROADMAP item 7).
	MaintainEvery time.Duration
}

// Pool is a shared backend connection pool. All methods are safe for
// concurrent use.
type Pool struct {
	cfg        Config
	size       int
	maxWaiters int

	mu      sync.Mutex
	idle    []odbc.StreamExecutor // LIFO: the hottest connection at the back
	waiters []*waiter
	numOpen int // connections open or being dialed (in-use + idle + dialing)
	inUse   int
	pinned  int
	closed  bool

	waitHist metrics.Compact
	// counters (atomic)
	acquires   int64
	waits      int64
	timeouts   int64
	rejected   int64
	shed       int64
	dials      int64
	dialErrors int64
	discarded  int64
	pins       int64
	unpins     int64
}

// waiter is one queued acquire. The channel is buffered so delivery never
// blocks the releasing goroutine; a zero message is a retry signal (capacity
// was freed, re-attempt the acquire).
type waiter struct {
	ch chan waitMsg
}

type waitMsg struct {
	c   odbc.StreamExecutor
	err error
}

// New creates the pool. It dials nothing and starts no goroutine: backend
// connections are dialed on demand by acquire.
func New(cfg Config) (*Pool, error) {
	if cfg.Driver == nil {
		return nil, fmt.Errorf("pool: driver required")
	}
	if cfg.Size == 0 {
		cfg.Size = 8
	}
	if cfg.Size < 0 {
		return nil, fmt.Errorf("pool: size must be positive")
	}
	if cfg.AcquireTimeout == 0 {
		cfg.AcquireTimeout = 5 * time.Second
	}
	maxWaiters := cfg.MaxWaiters
	if maxWaiters == 0 {
		maxWaiters = 4 * cfg.Size
	}
	p := &Pool{
		cfg:        cfg,
		size:       cfg.Size,
		maxWaiters: maxWaiters,
	}
	return p, nil
}

// Connect is ConnectContext with no deadline.
func (p *Pool) Connect() (odbc.Executor, error) {
	return p.ConnectContext(context.Background())
}

// ConnectContext returns a session-multiplexing view of the pool without
// dialing the backend: backend capacity is acquired per statement, not per
// logon, so it never blocks.
func (p *Pool) ConnectContext(ctx context.Context) (odbc.Executor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return p.Session(), nil
}

var _ odbc.Driver = (*Pool)(nil)

// acquire leases one backend connection, dialing up to Size connections and
// queueing FIFO behind them when the pool is full. The returned connection
// is owned by the caller until release. AcquireTimeout bounds only the paths
// that wait, dialing and queueing: handing out an idle connection arms no
// timer.
func (p *Pool) acquire(ctx context.Context) (odbc.StreamExecutor, error) {
	atomic.AddInt64(&p.acquires, 1)
	var cancel context.CancelFunc // non-nil once ctx is bounded for waiting
	waited := false
	var waitStart time.Time
	var wsp *trace.Span
	defer func() {
		if waited {
			p.waitHist.Observe(time.Since(waitStart))
			wsp.End()
		}
		if cancel != nil {
			cancel()
		}
	}()
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClosed
		}
		// Reuse the hottest idle connection.
		if n := len(p.idle); n > 0 {
			c := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.inUse++
			p.mu.Unlock()
			return c, nil
		}
		if p.numOpen < p.size {
			p.numOpen++ // reserve the slot before dialing
			p.mu.Unlock()
			if cancel == nil {
				ctx, cancel = p.waitContext(ctx)
			}
			c, err := p.dial(ctx)
			if err != nil {
				return nil, err
			}
			p.mu.Lock()
			p.inUse++
			p.mu.Unlock()
			return c, nil
		}
		// Pool full: admission control, then join the FIFO wait queue.
		if p.maxWaiters >= 0 && len(p.waiters) >= p.maxWaiters {
			p.mu.Unlock()
			atomic.AddInt64(&p.rejected, 1)
			return nil, fmt.Errorf("%w (%d waiting, cap %d)", ErrSaturated, p.maxWaiters, p.maxWaiters)
		}
		w := &waiter{ch: make(chan waitMsg, 1)}
		p.waiters = append(p.waiters, w)
		p.mu.Unlock()
		if cancel == nil {
			ctx, cancel = p.waitContext(ctx)
		}
		if !waited {
			waited = true
			waitStart = time.Now()
			atomic.AddInt64(&p.waits, 1)
			wsp = trace.FromContext(ctx).Start("pool-wait")
		}
		select {
		case m := <-w.ch:
			if m.err != nil {
				return nil, m.err
			}
			if m.c != nil {
				p.mu.Lock()
				p.inUse++
				p.mu.Unlock()
				return m.c, nil
			}
			// Retry signal: capacity was freed, loop and claim it.
		case <-ctx.Done():
			p.mu.Lock()
			removed := p.removeWaiterLocked(w)
			p.mu.Unlock()
			if !removed {
				// Delivery raced the deadline: the message is already in the
				// buffered channel. Pass whatever it carried along so the
				// freed capacity is not lost with this waiter.
				m := <-w.ch
				switch {
				case m.c != nil:
					p.handback(m.c)
				case m.err == nil: // retry signal
					p.mu.Lock()
					p.wakeOneLocked()
					p.mu.Unlock()
				}
			}
			atomic.AddInt64(&p.timeouts, 1)
			return nil, fmt.Errorf("%w (%v, pool size %d)", ErrAcquireTimeout, ctx.Err(), p.size)
		}
	}
}

// waitContext bounds ctx by AcquireTimeout unless ctx's own deadline is
// sooner.
func (p *Pool) waitContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if t := p.cfg.AcquireTimeout; t > 0 {
		if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > t {
			return context.WithTimeout(ctx, t)
		}
	}
	return ctx, func() {}
}

// dial opens one backend connection for a reserved slot, un-reserving on
// failure. A dial rejected by an open circuit breaker sheds the entire wait
// queue: every queued acquire would hit the same fast-failing backend, and
// holding them until their deadlines only delays the frontend failure the
// application must see anyway.
func (p *Pool) dial(ctx context.Context) (odbc.StreamExecutor, error) {
	atomic.AddInt64(&p.dials, 1)
	ex, err := odbc.ConnectContext(ctx, p.cfg.Driver)
	if err != nil {
		atomic.AddInt64(&p.dialErrors, 1)
		p.mu.Lock()
		p.numOpen--
		if errors.Is(err, odbc.ErrBreakerOpen) {
			ws := p.waiters
			p.waiters = nil
			atomic.AddInt64(&p.shed, int64(len(ws)))
			p.mu.Unlock()
			for _, w := range ws {
				w.ch <- waitMsg{err: err}
			}
			return nil, err
		}
		p.wakeOneLocked()
		p.mu.Unlock()
		return nil, err
	}
	return ex, nil
}

// release returns a leased connection. A broken connection is closed and its
// slot handed to a waiter to re-dial; a healthy one hands off directly to the
// first waiter or goes idle.
func (p *Pool) release(c odbc.StreamExecutor, broken bool) {
	// The connection is quiesced here: clear any session-pinning reconnect
	// hook before another session can lease it.
	if ra, ok := c.(odbc.ReconnectAware); ok {
		ra.OnReconnect(nil)
	}
	p.mu.Lock()
	p.inUse--
	if p.closed {
		p.numOpen--
		p.mu.Unlock()
		_ = c.Close()
		return
	}
	if broken {
		p.numOpen--
		atomic.AddInt64(&p.discarded, 1)
		p.wakeOneLocked()
		p.mu.Unlock()
		_ = c.Close()
		return
	}
	p.handbackLocked(c)
	p.mu.Unlock()
}

// handback re-parks a connection that never entered service (a delivery
// that raced its waiter's deadline).
func (p *Pool) handback(c odbc.StreamExecutor) {
	p.mu.Lock()
	if p.closed {
		p.numOpen--
		p.mu.Unlock()
		_ = c.Close()
		return
	}
	p.handbackLocked(c)
	p.mu.Unlock()
}

// handbackLocked hands a free connection to the first waiter (fair FIFO
// handoff) or parks it idle. Connections only go idle when nobody waits, so
// a later acquire can never barge past the queue.
func (p *Pool) handbackLocked(c odbc.StreamExecutor) {
	if w := p.popWaiterLocked(); w != nil {
		w.ch <- waitMsg{c: c}
		return
	}
	p.idle = append(p.idle, c)
}

func (p *Pool) popWaiterLocked() *waiter {
	if len(p.waiters) == 0 {
		return nil
	}
	w := p.waiters[0]
	p.waiters = p.waiters[1:]
	return w
}

// wakeOneLocked signals the first waiter to retry: a slot was freed without
// a connection to hand over (broken connection or failed dial).
func (p *Pool) wakeOneLocked() {
	if w := p.popWaiterLocked(); w != nil {
		w.ch <- waitMsg{}
	}
}

func (p *Pool) removeWaiterLocked(target *waiter) bool {
	for i, w := range p.waiters {
		if w == target {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// notePin / noteUnpin track the pinned-connection gauge.
func (p *Pool) notePin() {
	p.mu.Lock()
	p.pinned++
	p.mu.Unlock()
	atomic.AddInt64(&p.pins, 1)
}

func (p *Pool) noteUnpin() {
	p.mu.Lock()
	p.pinned--
	p.mu.Unlock()
	atomic.AddInt64(&p.unpins, 1)
}

// Close shuts the pool down: queued waiters fail with ErrClosed, idle
// connections close now, leased connections close on release.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.numOpen -= len(idle)
	ws := p.waiters
	p.waiters = nil
	p.mu.Unlock()
	for _, w := range ws {
		w.ch <- waitMsg{err: ErrClosed}
	}
	var errs []error
	for _, c := range idle {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Stats is a point-in-time snapshot of the pool: the operator surface behind
// /pool and the /metrics gauges.
type Stats struct {
	// Gauges.
	Size    int `json:"size"`
	InUse   int `json:"in_use"`
	Idle    int `json:"idle"`
	Pinned  int `json:"pinned"`
	Waiters int `json:"waiters"`
	// Counters.
	Acquires   int64 `json:"acquires"`
	Waits      int64 `json:"waits"`
	Timeouts   int64 `json:"timeouts"`
	Rejected   int64 `json:"rejected"`
	Shed       int64 `json:"shed"`
	Dials      int64 `json:"dials"`
	DialErrors int64 `json:"dial_errors"`
	Discarded  int64 `json:"discarded"`
	Pins       int64 `json:"pins"`
	Unpins     int64 `json:"unpins"`
	// WaitSeconds is the acquire wait-time distribution (only acquires that
	// actually queued observe it).
	WaitSeconds metrics.Snapshot `json:"wait_seconds"`
}

// Stats snapshots the pool state.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	s := Stats{
		Size:    p.size,
		InUse:   p.inUse,
		Idle:    len(p.idle),
		Pinned:  p.pinned,
		Waiters: len(p.waiters),
	}
	p.mu.Unlock()
	s.Acquires = atomic.LoadInt64(&p.acquires)
	s.Waits = atomic.LoadInt64(&p.waits)
	s.Timeouts = atomic.LoadInt64(&p.timeouts)
	s.Rejected = atomic.LoadInt64(&p.rejected)
	s.Shed = atomic.LoadInt64(&p.shed)
	s.Dials = atomic.LoadInt64(&p.dials)
	s.DialErrors = atomic.LoadInt64(&p.dialErrors)
	s.Discarded = atomic.LoadInt64(&p.discarded)
	s.Pins = atomic.LoadInt64(&p.pins)
	s.Unpins = atomic.LoadInt64(&p.unpins)
	s.WaitSeconds = p.waitHist.Snapshot().Histogram()
	return s
}
