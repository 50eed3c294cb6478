package hyperq

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hyperq/internal/trace"
)

func newRequestContext(deadline time.Time, tr *trace.Trace) (*requestContext, *requestTimer) {
	rt := &requestTimer{}
	c := &requestContext{timer: rt}
	c.begin(deadline, tr)
	return c, rt
}

// Until a caller waits on Done, the clock decides Err, no timer exists, and
// the context is reused for the next request.
func TestRequestContextErrWithoutTimer(t *testing.T) {
	tr := trace.New(1, 1, "u", "q")
	c, rt := newRequestContext(time.Now().Add(20*time.Millisecond), tr)
	if trace.FromContext(c) != tr {
		t.Fatal("trace not carried")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err past the deadline = %v, want DeadlineExceeded", err)
	}
	if rt.t != nil {
		t.Fatal("a timer was armed with nobody waiting")
	}
	if !c.end() {
		t.Fatal("a context nobody waited on is not reusable")
	}
	if err := c.Err(); err != nil || trace.FromContext(c) != nil {
		t.Fatalf("ended context kept its request: Err %v", err)
	}
}

// Done arms the session's timer, which closes it at the deadline with
// DeadlineExceeded; a WithCancel child registers through AfterFunc, with no
// goroutine of its own, and ends with its parent.
func TestRequestContextDoneArmsTimer(t *testing.T) {
	c, rt := newRequestContext(time.Now().Add(30*time.Millisecond), nil)
	before := runtime.NumGoroutine()
	child, cancel := context.WithCancel(c)
	defer cancel()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("WithCancel on the request context started %d goroutines", n-before)
	}
	if rt.t == nil {
		t.Fatal("Done armed no timer")
	}
	select {
	case <-child.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("child never ended at the deadline")
	}
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Fatalf("parent Err = %v, want DeadlineExceeded", err)
	}
	if err := child.Err(); err != context.DeadlineExceeded {
		t.Fatalf("child Err = %v, want DeadlineExceeded", err)
	}
	if c.end() {
		t.Fatal("a context whose Done was handed out was reused")
	}
}

// Ending the request closes a Done handed out with Canceled, and the child
// contexts end with it; a child cancelled first unregisters.
func TestRequestContextEndCancels(t *testing.T) {
	c, _ := newRequestContext(time.Now().Add(time.Hour), nil)
	early, cancelEarly := context.WithCancel(c)
	cancelEarly()
	if len(c.hooks) != 0 {
		t.Fatalf("cancelled child left %d hooks", len(c.hooks))
	}
	late, cancelLate := context.WithCancel(c)
	defer cancelLate()
	if c.end() {
		t.Fatal("a context whose Done was handed out was reused")
	}
	select {
	case <-late.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("child never ended with the request")
	}
	if !errors.Is(late.Err(), context.Canceled) || !errors.Is(early.Err(), context.Canceled) {
		t.Fatalf("children ended with %v and %v, want Canceled", early.Err(), late.Err())
	}
	if err := c.Err(); err != context.Canceled {
		t.Fatalf("ended context Err = %v, want Canceled", err)
	}
}

// An unbounded request never ends: Done is nil, so derived contexts do not
// link to it, and Err stays nil.
func TestRequestContextUnbounded(t *testing.T) {
	c, rt := newRequestContext(time.Time{}, nil)
	if c.Done() != nil || c.Err() != nil {
		t.Fatal("unbounded request context can end")
	}
	if _, ok := c.Deadline(); ok {
		t.Fatal("unbounded request context has a deadline")
	}
	child, cancel := context.WithCancel(c)
	cancel()
	if child.Err() != context.Canceled || rt.t != nil || !c.end() {
		t.Fatal("child of an unbounded request context misbehaved")
	}
}
