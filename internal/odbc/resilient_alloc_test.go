package odbc_test

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"hyperq/internal/israce"
	"hyperq/internal/odbc"
	"hyperq/internal/wire/cwp"
)

// longSelect is a Workload-1-sized SQL-B text (126 bytes, three tables): what
// a classification parse of the request would cost grows with it.
const longSelect = "SELECT o.o_orderkey, c.c_name, l.l_qty FROM orders o, customer c, lineitem l WHERE o.o_custkey = c.c_custkey AND l.l_ok = 1001"

// scriptedDriver connects scriptedExecutors that answer every request with
// one row-less statement, except that the next attempts fail with fail's
// errors, one each.
type scriptedDriver struct {
	fail     []error
	attempts int
}

func (d *scriptedDriver) Connect() (odbc.Executor, error) { return &scriptedExecutor{d: d}, nil }

// attempt counts one request and returns its scripted failure, if any.
func (d *scriptedDriver) attempt() error {
	d.attempts++
	if len(d.fail) == 0 {
		return nil
	}
	err := d.fail[0]
	d.fail = d.fail[1:]
	return err
}

var scriptedResult = []*cwp.StatementResult{{Command: "SELECT"}}

type scriptedExecutor struct {
	d  *scriptedDriver
	st completeStream // reused: a stream costs the executor nothing per request
}

func (e *scriptedExecutor) ExecContext(context.Context, string) ([]*cwp.StatementResult, error) {
	if err := e.d.attempt(); err != nil {
		return nil, err
	}
	return scriptedResult, nil
}

func (e *scriptedExecutor) ExecStream(context.Context, string) (odbc.ResultStream, error) {
	if err := e.d.attempt(); err != nil {
		return nil, err
	}
	e.st = completeStream{}
	return &e.st, nil
}

func (e *scriptedExecutor) Close() error { return nil }

// completeStream is one row-less statement: Complete, then io.EOF.
type completeStream struct{ done bool }

func (s *completeStream) Next(context.Context) (cwp.StreamEvent, error) {
	if s.done {
		return cwp.StreamEvent{}, io.EOF
	}
	s.done = true
	return cwp.StreamEvent{Kind: cwp.StreamComplete, Command: "SELECT"}, nil
}

func (s *completeStream) Close() error { return nil }

func scriptedStack(t *testing.T, fail ...error) (*scriptedDriver, odbc.StreamExecutor) {
	t.Helper()
	sd := &scriptedDriver{fail: fail}
	rd := &odbc.ResilientDriver{Inner: sd, Sleep: func(time.Duration) {}}
	ex, err := odbc.ConnectContext(context.Background(), rd)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ex.Close() })
	return sd, ex
}

// A request that succeeds costs the resilient layer the same whatever its
// text: the request is classified read-only or not only when a connection
// failure asks, so the success path never parses SQL-B.
func TestResilientSuccessAllocsIndependentOfSQL(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, ex := scriptedStack(t)
	ctx := context.Background()
	execAllocs := func(sql string) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := ex.ExecContext(ctx, sql); err != nil {
				t.Fatal(err)
			}
		})
	}
	streamAllocs := func(sql string) float64 {
		return testing.AllocsPerRun(200, func() {
			st, err := ex.ExecStream(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := st.Next(ctx); err != nil {
					if !errors.Is(err, io.EOF) {
						t.Fatal(err)
					}
					break
				}
			}
			_ = st.Close()
		})
	}
	if short, long := execAllocs("SELECT 1"), execAllocs(longSelect); short != long {
		t.Errorf("ExecContext allocs: SELECT 1 = %v, %d-byte SELECT = %v; want equal", short, len(longSelect), long)
	}
	if short, long := streamAllocs("SELECT 1"), streamAllocs(longSelect); short != long {
		t.Errorf("ExecStream allocs: SELECT 1 = %v, %d-byte SELECT = %v; want equal", short, len(longSelect), long)
	}
}

// Classifying on failure keeps the idempotency rule: after a connection
// failure a read is re-executed and a write surfaces ErrMaybeApplied, on
// both request methods.
func TestResilientConnectionFailureStillClassifies(t *testing.T) {
	ctx := context.Background()
	for _, method := range []string{"exec", "stream"} {
		run := func(ex odbc.StreamExecutor, sql string) error {
			if method == "exec" {
				_, err := ex.ExecContext(ctx, sql)
				return err
			}
			st, err := ex.ExecStream(ctx, sql)
			if err == nil {
				_ = st.Close()
			}
			return err
		}
		sd, ex := scriptedStack(t, io.ErrUnexpectedEOF)
		if err := run(ex, longSelect); err != nil {
			t.Errorf("%s: read after a connection failure: %v, want a transparent retry", method, err)
		}
		if sd.attempts != 2 {
			t.Errorf("%s: read attempts = %d, want 2", method, sd.attempts)
		}
		sd, ex = scriptedStack(t, io.ErrUnexpectedEOF)
		if err := run(ex, "INSERT INTO orders VALUES (1)"); !errors.Is(err, odbc.ErrMaybeApplied) {
			t.Errorf("%s: write after a connection failure: err = %v, want ErrMaybeApplied", method, err)
		}
		if sd.attempts != 1 {
			t.Errorf("%s: write attempts = %d, want 1 (never retried)", method, sd.attempts)
		}
	}
}
