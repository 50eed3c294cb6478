// Package faultdriver is a deterministic fault-injection odbc.Driver for
// resilience tests: it wraps any inner driver and injects scripted faults —
// refuse the next N connects, fail a specific connect attempt, drop a
// session's connection after K execs, drop every live session at once (a
// backend bounce), add fixed latency, or fail execs with queued errors
// (e.g. transient backend abort codes). Faults use real syscall errno
// values (ECONNREFUSED, ECONNRESET) wrapped in *net.OpError so they
// exercise the same classification paths as genuine network failures.
package faultdriver

import (
	"context"
	"net"
	"sync"
	"syscall"
	"time"

	"hyperq/internal/odbc"
	"hyperq/internal/wire/cwp"
)

// Refused is the error injected for refused connect attempts.
func Refused() error {
	return &net.OpError{Op: "dial", Net: "fault", Err: syscall.ECONNREFUSED}
}

// Dropped is the error injected when a session's connection is dropped.
func Dropped() error {
	return &net.OpError{Op: "read", Net: "fault", Err: syscall.ECONNRESET}
}

// Driver wraps an inner odbc.Driver with scripted faults. All methods are
// safe for concurrent use; faults can be armed while sessions are live.
type Driver struct {
	inner odbc.Driver

	mu             sync.Mutex
	connects       int           // total connect attempts observed
	execs          int           // total exec attempts observed
	refuseConnects int           // >0: refuse that many; <0: refuse all
	failConnect    map[int]error // 1-based connect ordinal -> injected error
	dropAfter      int           // sessions opened from now on drop after this many execs
	latency        time.Duration
	execErrs       []error // queue consumed by exec attempts
	sessions       []*Executor

	dropAfterBatches int           // streams opened from now on drop after this many batches
	streamErrs       []streamFault // queue consumed by stream opens
}

// streamFault is one scripted mid-result failure: the stream delivers
// afterBatches batches, then terminates with err.
type streamFault struct {
	afterBatches int
	err          error
}

// New wraps inner.
func New(inner odbc.Driver) *Driver {
	return &Driver{inner: inner, failConnect: map[int]error{}}
}

// RefuseConnects makes the next n connect attempts fail with ECONNREFUSED;
// n < 0 refuses every future connect until called again with 0.
func (d *Driver) RefuseConnects(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.refuseConnects = n
}

// FailConnect injects err on the nth (1-based, counted from driver
// creation) connect attempt.
func (d *Driver) FailConnect(n int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failConnect[n] = err
}

// DropAfterExecs arms sessions opened from now on to drop their connection
// when exec attempt k+1 starts (the first k execs succeed). 0 disables.
func (d *Driver) DropAfterExecs(k int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropAfter = k
}

// DropActiveSessions drops every live session's connection — the scripted
// equivalent of a backend bounce. Each session's next exec fails with
// ECONNRESET.
func (d *Driver) DropActiveSessions() {
	d.mu.Lock()
	sessions := append([]*Executor(nil), d.sessions...)
	d.mu.Unlock()
	for _, s := range sessions {
		s.drop()
	}
}

// SetLatency injects a fixed delay before every exec (deadline tests).
func (d *Driver) SetLatency(l time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.latency = l
}

// QueueExecErrors injects errors consumed by the next exec attempts, in
// order, before the request reaches the inner executor. Use backend error
// values (e.g. &cwp.BackendError{Code: 2631}) for transient abort codes.
func (d *Driver) QueueExecErrors(errs ...error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.execErrs = append(d.execErrs, errs...)
}

// DropAfterBatches arms streams opened from now on to drop the session's
// connection after delivering n batches — the mid-result equivalent of a
// backend death: the first n batches arrive, then the stream terminates
// with ECONNRESET and the session is gone. 0 disables.
func (d *Driver) DropAfterBatches(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropAfterBatches = n
}

// QueueStreamError injects err as the terminal result of the next opened
// stream once it has delivered afterBatches batches. Unlike
// DropAfterBatches the connection survives: the remaining events are
// drained so the protocol stays synchronized, modelling a backend that
// fails a later statement of a multi-statement request mid-result.
func (d *Driver) QueueStreamError(afterBatches int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.streamErrs = append(d.streamErrs, streamFault{afterBatches: afterBatches, err: err})
}

// Connects reports the number of connect attempts observed.
func (d *Driver) Connects() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.connects
}

// Execs reports the number of exec attempts observed (including faulted
// ones).
func (d *Driver) Execs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.execs
}

// Connect implements odbc.Driver.
func (d *Driver) Connect() (odbc.Executor, error) {
	return d.ConnectContext(context.Background())
}

// ConnectContext opens a session under ctx (see odbc.ConnectContext).
func (d *Driver) ConnectContext(ctx context.Context) (odbc.Executor, error) {
	d.mu.Lock()
	d.connects++
	n := d.connects
	if err, ok := d.failConnect[n]; ok {
		delete(d.failConnect, n)
		d.mu.Unlock()
		return nil, err
	}
	if d.refuseConnects != 0 {
		if d.refuseConnects > 0 {
			d.refuseConnects--
		}
		d.mu.Unlock()
		return nil, Refused()
	}
	dropAfter := d.dropAfter
	d.mu.Unlock()
	inner, err := odbc.ConnectContext(ctx, d.inner)
	if err != nil {
		return nil, err
	}
	e := &Executor{d: d, inner: inner, dropAfter: dropAfter}
	d.mu.Lock()
	d.sessions = append(d.sessions, e)
	d.mu.Unlock()
	return e, nil
}

// Executor is one faultable backend session.
type Executor struct {
	d     *Driver
	inner odbc.StreamExecutor

	mu        sync.Mutex
	execs     int
	dropAfter int
	dropped   bool
}

func (e *Executor) drop() {
	e.mu.Lock()
	wasDropped := e.dropped
	e.dropped = true
	e.mu.Unlock()
	if !wasDropped {
		_ = e.inner.Close()
	}
}

// ExecContext implements odbc.Executor: the pre-result faults, then the
// inner executor.
func (e *Executor) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	if err := e.preResult(ctx, nil); err != nil {
		return nil, err
	}
	return e.inner.ExecContext(ctx, sql)
}

// ExecStream implements odbc.StreamExecutor: the pre-result faults behave
// exactly like ExecContext, then the returned stream applies the mid-result
// faults armed on the driver.
func (e *Executor) ExecStream(ctx context.Context, sql string) (odbc.ResultStream, error) {
	fs := &faultStream{e: e}
	if err := e.preResult(ctx, fs); err != nil {
		return nil, err
	}
	inner, err := e.inner.ExecStream(ctx, sql)
	if err != nil {
		return nil, err
	}
	fs.inner = inner
	return fs, nil
}

// preResult is the one fault step before any result, shared by both request
// methods so they consume the same scripts and counters: it counts the
// attempt, takes the next queued exec error, waits out the injected latency
// and fires an armed connection drop. A stream request passes its stream (fs
// non-nil), which takes the driver's stream faults in the same critical
// section — ExecContext never consumes them.
func (e *Executor) preResult(ctx context.Context, fs *faultStream) error {
	d := e.d
	d.mu.Lock()
	d.execs++
	var queued error
	if len(d.execErrs) > 0 {
		queued = d.execErrs[0]
		d.execErrs = d.execErrs[1:]
	}
	latency := d.latency
	if fs != nil {
		fs.dropAfter = d.dropAfterBatches
		if len(d.streamErrs) > 0 {
			f := d.streamErrs[0]
			d.streamErrs = d.streamErrs[1:]
			fs.fault = &f
		}
	}
	d.mu.Unlock()
	if latency > 0 {
		t := time.NewTimer(latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if queued != nil {
		return queued
	}
	e.mu.Lock()
	if !e.dropped && e.dropAfter > 0 && e.execs >= e.dropAfter {
		e.dropped = true
		e.mu.Unlock()
		_ = e.inner.Close()
		return Dropped()
	}
	if e.dropped {
		e.mu.Unlock()
		return Dropped()
	}
	e.execs++
	e.mu.Unlock()
	return nil
}

// faultStream counts delivered batches and fires the armed mid-result
// faults between events, so the consumer sees exactly N good batches before
// the failure.
type faultStream struct {
	e         *Executor
	inner     odbc.ResultStream
	dropAfter int
	fault     *streamFault

	batches     int
	pendingDrop bool
	err         error
}

func (s *faultStream) Next(ctx context.Context) (cwp.StreamEvent, error) {
	if s.err != nil {
		return cwp.StreamEvent{}, s.err
	}
	if s.pendingDrop {
		s.e.drop()
		_ = s.inner.Close()
		s.err = Dropped()
		return cwp.StreamEvent{}, s.err
	}
	if s.fault != nil && s.batches >= s.fault.afterBatches {
		ferr := s.fault.err
		s.fault = nil
		// Drain the real stream to completion so the connection stays
		// protocol-synchronized and reusable after the injected failure.
		for {
			if _, derr := s.inner.Next(ctx); derr != nil {
				break
			}
		}
		s.err = ferr
		return cwp.StreamEvent{}, s.err
	}
	ev, err := s.inner.Next(ctx)
	if err != nil {
		s.err = err
		return ev, err
	}
	if ev.Kind == cwp.StreamBatch {
		s.batches++
		if s.dropAfter > 0 && s.batches >= s.dropAfter {
			s.pendingDrop = true
		}
	}
	return ev, nil
}

func (s *faultStream) Close() error {
	return s.inner.Close()
}

func (e *Executor) Close() error {
	e.mu.Lock()
	dropped := e.dropped
	e.dropped = true
	e.mu.Unlock()
	d := e.d
	d.mu.Lock()
	for i, s := range d.sessions {
		if s == e {
			d.sessions = append(d.sessions[:i], d.sessions[i+1:]...)
			break
		}
	}
	d.mu.Unlock()
	if dropped {
		return nil
	}
	return e.inner.Close()
}

var (
	_ odbc.Driver         = (*Driver)(nil)
	_ odbc.Executor       = (*Executor)(nil)
	_ odbc.StreamExecutor = (*Executor)(nil)
)
