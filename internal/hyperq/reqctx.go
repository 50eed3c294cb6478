package hyperq

import (
	"context"
	"sync"
	"time"

	"hyperq/internal/trace"
)

// requestContext is the context of a session's current request: the session
// keeps one and reuses it from request to request (a session serves one
// request at a time), so a request's context costs no allocation. It carries
// the request's deadline, and its trace as a field rather than a WithValue
// layer.
//
// It arms no timer unless a caller waits on Done. Nothing on a request's
// backend round trip does: cwp sets every connection's socket deadline from
// Deadline (so a read or write the backend stalls fails at the deadline by
// itself) and Err reads the clock. A caller that blocks on something else —
// a pool acquire queue, a retry backoff, the fetch goroutine's context — gets
// a channel made on its first Done call in the request, closed by the
// session's one timer at the deadline. AfterFunc lets context.WithCancel and
// context.AfterFunc register on the context without a goroutine each. When
// the request ends, a Done that was handed out closes with context.Canceled,
// as a cancelled WithTimeout's did, and that context stays ended for the
// children that read its Err afterwards: the session takes a fresh one.
//
// DeadlineOnly tells cwp that a stream read under the context needs no
// cancel hook: while a request runs its context ends only at its deadline.
type requestContext struct {
	deadline time.Time // zero: the request is unbounded
	tr       *trace.Trace
	timer    *requestTimer // the session's

	mu    sync.Mutex
	done  chan struct{} // nil until Done is called in this request
	err   error         // set when done closes
	hooks []*func()     // AfterFunc registrations, run when done closes
}

// requestTimer is a session's one deadline timer, Reset for each request
// that arms it: it expires the context that armed it last.
type requestTimer struct {
	mu  sync.Mutex
	t   *time.Timer
	ctx *requestContext
}

func (rt *requestTimer) arm(c *requestContext, d time.Duration) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ctx = c
	if rt.t == nil {
		rt.t = time.AfterFunc(d, rt.fire)
	} else {
		rt.t.Reset(d)
	}
}

func (rt *requestTimer) fire() {
	rt.mu.Lock()
	c := rt.ctx
	rt.mu.Unlock()
	if c != nil {
		c.expire()
	}
}

func (rt *requestTimer) stop() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.t != nil {
		rt.t.Stop()
	}
	rt.ctx = nil
}

// begin readies the context for a request bounded by deadline (zero: none).
func (c *requestContext) begin(deadline time.Time, tr *trace.Trace) {
	c.mu.Lock()
	c.deadline, c.tr = deadline, tr
	c.mu.Unlock()
}

// end closes the request and reports whether the context can serve the next
// one. A Done channel handed out closes (with context.Canceled unless the
// deadline closed it) and the context stays ended: child contexts read its
// Err after it closed.
func (c *requestContext) end() (reusable bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != nil {
		if c.err == nil {
			c.closeLocked(context.Canceled)
		}
		c.timer.stop()
		return false
	}
	c.deadline, c.tr = time.Time{}, nil
	clear(c.hooks)
	c.hooks = c.hooks[:0]
	return true
}

// closeLocked ends the request's context with err and runs the AfterFunc
// registrations, each in a goroutine of its own as context.AfterFunc does:
// a registration (a child context's cancel) calls back into Err.
func (c *requestContext) closeLocked(err error) {
	c.err = err
	close(c.done)
	for _, f := range c.hooks {
		go (*f)()
	}
	c.hooks = nil
}

// expire closes Done once the deadline has passed. A timer firing left over
// from an earlier request finds the deadline ahead, and does nothing.
func (c *requestContext) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != nil && c.err == nil && c.expired() {
		c.closeLocked(context.DeadlineExceeded)
	}
}

func (c *requestContext) expired() bool {
	return !c.deadline.IsZero() && !time.Now().Before(c.deadline)
}

// Deadline implements context.Context.
func (c *requestContext) Deadline() (time.Time, bool) {
	return c.deadline, !c.deadline.IsZero()
}

// Done implements context.Context: nil for an unbounded request, which never
// ends; otherwise a channel that closes at the deadline, made and armed on
// the first call.
func (c *requestContext) Done() <-chan struct{} {
	if c.deadline.IsZero() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if d := time.Until(c.deadline); d > 0 {
			c.timer.arm(c, d)
		} else {
			c.closeLocked(context.DeadlineExceeded)
		}
	}
	return c.done
}

// Err implements context.Context. Until someone waits on Done the clock
// decides: past the deadline the request has ended.
func (c *requestContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil && c.expired() {
		return context.DeadlineExceeded
	}
	return c.err
}

// Value implements context.Context: the request's trace, nothing else.
func (c *requestContext) Value(key any) any {
	if trace.IsContextKey(key) {
		return c.tr
	}
	return nil
}

// AfterFunc arranges for f to run, in a goroutine of its own, once the
// context ends; stop undoes that and reports whether it did. context.
// WithCancel and context.AfterFunc use it in place of a goroutine that waits
// on Done.
func (c *requestContext) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		go f()
		return func() bool { return false }
	}
	h := &f
	c.hooks = append(c.hooks, h)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, x := range c.hooks {
			if x == h {
				c.hooks = append(c.hooks[:i], c.hooks[i+1:]...)
				return true
			}
		}
		return false
	}
}

// DeadlineOnly marks the context as one that, while its request runs, ends
// only at its deadline (see cwp.Stream.Next).
func (c *requestContext) DeadlineOnly() {}

var _ context.Context = (*requestContext)(nil)
