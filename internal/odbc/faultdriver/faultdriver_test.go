package faultdriver_test

import (
	"context"
	"errors"
	"io"
	"syscall"
	"testing"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/faultdriver"
	"hyperq/internal/wire/cwp"
)

const query = "SELECT x FROM ft ORDER BY x"

func newDriver(t *testing.T) *faultdriver.Driver {
	t.Helper()
	eng := engine.New(dialect.TeradataProfile())
	s := eng.NewSession()
	for _, sql := range []string{"CREATE TABLE ft (x INT)", "INSERT INTO ft VALUES (1), (2)"} {
		if _, err := s.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	return faultdriver.New(&odbc.LocalDriver{Engine: eng, User: "u"})
}

func connect(t *testing.T, fd *faultdriver.Driver) odbc.StreamExecutor {
	t.Helper()
	ex, err := odbc.ConnectContext(context.Background(), fd)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ex.Close() })
	return ex
}

// method is one of the two request methods, run to completion: a stream is
// drained, so its error is whatever ended it early.
type method struct {
	name string
	run  func(ctx context.Context, ex odbc.StreamExecutor) error
}

var methods = []method{
	{"ExecContext", func(ctx context.Context, ex odbc.StreamExecutor) error {
		_, err := ex.ExecContext(ctx, query)
		return err
	}},
	{"ExecStream", func(ctx context.Context, ex odbc.StreamExecutor) error {
		st, err := ex.ExecStream(ctx, query)
		if err != nil {
			return err
		}
		defer st.Close()
		for {
			if _, err := st.Next(ctx); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
		}
	}},
}

// The faults armed before a result exists — a queued exec error, latency, a
// session drop after K execs — are one script shared by both request
// methods: whichever comes next consumes them, and the counters they advance
// are the same ones, so mixing the methods changes nothing.
func TestPreResultFaultsSharedByBothMethods(t *testing.T) {
	ctx := context.Background()
	for _, first := range methods {
		for _, second := range methods {
			t.Run(first.name+"-then-"+second.name, func(t *testing.T) {
				fd := newDriver(t)
				ex := connect(t, fd)

				injected := &cwp.BackendError{Code: 2631, Message: "injected abort"}
				fd.QueueExecErrors(injected)
				if err := first.run(ctx, ex); !errors.Is(err, injected) {
					t.Fatalf("%s with a queued error: %v, want the queued error", first.name, err)
				}
				if err := second.run(ctx, ex); err != nil {
					t.Fatalf("%s after the queue drained: %v", second.name, err)
				}

				fd.SetLatency(time.Hour)
				short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
				err := first.run(short, ex)
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("%s under injected latency: %v, want the deadline", first.name, err)
				}
				fd.SetLatency(0)

				fd.DropAfterExecs(1)
				dropping := connect(t, fd)
				if err := first.run(ctx, dropping); err != nil {
					t.Fatalf("%s before the drop: %v", first.name, err)
				}
				if err := second.run(ctx, dropping); !errors.Is(err, syscall.ECONNRESET) {
					t.Fatalf("%s after one exec with DropAfterExecs(1): %v, want ECONNRESET", second.name, err)
				}
				if err := first.run(ctx, dropping); !errors.Is(err, syscall.ECONNRESET) {
					t.Fatalf("%s on the dropped session: %v, want ECONNRESET", first.name, err)
				}

				if got := fd.Execs(); got != 6 {
					t.Fatalf("Execs() = %d, want 6: every attempt of either method counts, faulted ones included", got)
				}
			})
		}
	}
}

// Stream faults are taken only by ExecStream: ExecContext passes a queued
// stream fault by, and the next stream still fails with it.
func TestStreamFaultsOnlyTakenByExecStream(t *testing.T) {
	ctx := context.Background()
	fd := newDriver(t)
	ex := connect(t, fd)
	injected := &cwp.BackendError{Code: 3807, Message: "injected mid-result failure"}
	fd.QueueStreamError(0, injected)

	res, err := ex.ExecContext(ctx, query)
	if err != nil {
		t.Fatalf("ExecContext with a queued stream fault: %v", err)
	}
	if n := len(res[0].Rows()); n != 2 {
		t.Fatalf("ExecContext returned %d rows, want 2", n)
	}
	st, err := ex.ExecStream(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(ctx); !errors.Is(err, injected) {
		t.Fatalf("first stream event: %v, want the queued stream fault", err)
	}
	if got := fd.Execs(); got != 2 {
		t.Fatalf("Execs() = %d, want 2", got)
	}
}
