package canned

import (
	"context"
	"fmt"

	"hyperq/internal/odbc"
	"hyperq/internal/wire/cwp"
)

// Recorder is the set-up driver: it wraps a driver over a real engine and
// stores every successful request's reply in the table under its SQL-B text.
type Recorder struct {
	Inner odbc.Driver
	Table *Table
}

// Connect opens a recording session on the wrapped driver.
func (r *Recorder) Connect() (odbc.Executor, error) {
	ex, err := r.Inner.Connect()
	if err != nil {
		return nil, err
	}
	return &recExecutor{inner: ex, table: r.Table}, nil
}

type recExecutor struct {
	inner odbc.Executor
	table *Table
}

func (e *recExecutor) Exec(sql string) ([]*cwp.StatementResult, error) {
	return e.ExecContext(context.Background(), sql)
}

func (e *recExecutor) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	results, err := e.inner.ExecContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	if err := e.table.Record(sql, results); err != nil {
		return nil, err
	}
	return results, nil
}

func (e *recExecutor) Close() error { return e.inner.Close() }

// Driver is the in-process canned backend: every request is a table lookup.
// OnExec, when set, brackets each lookup so the per-layer pass can record
// the backend's share of a request as a span of its own.
type Driver struct {
	Table  *Table
	OnExec func(sql string) (done func())
}

// Connect opens a canned session.
func (d *Driver) Connect() (odbc.Executor, error) { return &Executor{d: d}, nil }

// Executor is one canned backend session. It implements odbc.StreamExecutor,
// so a gateway session over it takes the same streaming result path it takes
// over the network driver.
type Executor struct{ d *Driver }

// UnknownSQLError is returned for SQL-B text the table has no reply for.
type UnknownSQLError struct{ SQL string }

func (e *UnknownSQLError) Error() string {
	return fmt.Sprintf("canned: no recorded reply for %q", e.SQL)
}

func (e *Executor) Exec(sql string) ([]*cwp.StatementResult, error) {
	return e.ExecContext(context.Background(), sql)
}

func (e *Executor) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.d.OnExec != nil {
		defer e.d.OnExec(sql)()
	}
	r, ok := e.d.Table.Lookup(sql)
	if !ok {
		return nil, &UnknownSQLError{SQL: sql}
	}
	return r.Results, nil
}

// ExecStream replays the recorded results as the event sequence a network
// stream would yield.
func (e *Executor) ExecStream(ctx context.Context, sql string) (odbc.ResultStream, error) {
	results, err := e.ExecContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return odbc.BufferStream(results), nil
}

func (e *Executor) Close() error { return nil }

var (
	_ odbc.Driver         = (*Recorder)(nil)
	_ odbc.Driver         = (*Driver)(nil)
	_ odbc.StreamExecutor = (*Executor)(nil)
)
