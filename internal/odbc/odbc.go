// Package odbc is Hyper-Q's ODBC Server abstraction (§4.5): a uniform API
// over backend connectivity that "allows Hyper-Q to communicate with
// different target database systems using their corresponding drivers". Two
// base drivers exist: a network driver speaking the backend wire protocol
// (cwp) and an in-process driver that calls the engine directly, used by
// benchmarks to isolate gateway overhead from network noise. Composing
// drivers add fault tolerance (ResilientDriver) and replica scale-out
// (ReplicatedDriver) on top of any base driver.
package odbc

import (
	"context"
	"fmt"

	"hyperq/internal/engine"
	"hyperq/internal/tdf"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/xtra"
)

// Executor submits requests to one backend session and retrieves results in
// TDF batches. Executors are not safe for concurrent use; the gateway pairs
// each frontend session with its own executor.
type Executor interface {
	// ExecContext runs a (possibly multi-statement) SQL request to completion,
	// bounded by the context's deadline: a stalled or dead backend surfaces
	// as a timeout instead of hanging the session.
	ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error)
	// Close releases the backend session.
	Close() error
}

// Driver creates backend sessions. Connect opens one with no deadline; every
// caller in the gateway connects through ConnectContext below instead. The
// context-free method stays only because perf/'s canned drivers implement
// this interface with it (ROADMAP item 7).
type Driver interface {
	Connect() (Executor, error)
}

// ConnectContext is the one way the gateway connects: via d, under ctx. A
// context that has already ended opens nothing, and each driver in this
// module that can block on its logon bounds it by ctx, in its own
// ConnectContext method. The session comes back as a StreamExecutor (see
// Streaming), so whether it streams natively is settled here, once, and
// never again per request.
func ConnectContext(ctx context.Context, d Driver) (StreamExecutor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ex Executor
	var err error
	if cd, ok := d.(interface {
		ConnectContext(context.Context) (Executor, error)
	}); ok {
		ex, err = cd.ConnectContext(ctx)
	} else {
		ex, err = d.Connect()
	}
	if err != nil {
		return nil, err
	}
	return Streaming(ex), nil
}

// ReconnectAware is implemented by executors that can transparently replace
// their backend connection. The registered restore hook runs against every
// replacement session before any statement, rebuilding gateway-managed
// session state (the session SET overlay's backend footprint: volatile and
// temporary table DDL) so the frontend session survives a backend bounce.
type ReconnectAware interface {
	OnReconnect(restore func(Executor) error)
}

// NetworkDriver connects over the backend wire protocol.
type NetworkDriver struct {
	Addr     string
	User     string
	Password string
}

// Connect opens a backend session.
func (d *NetworkDriver) Connect() (Executor, error) {
	return d.ConnectContext(context.Background())
}

// ConnectContext opens a backend session, bounding the TCP connect and the
// logon handshake by the context's deadline.
func (d *NetworkDriver) ConnectContext(ctx context.Context) (Executor, error) {
	c, err := cwp.DialContext(ctx, d.Addr, d.User, d.Password)
	if err != nil {
		return nil, fmt.Errorf("odbc: connect %s: %w", d.Addr, err)
	}
	return &netExecutor{c: c}, nil
}

type netExecutor struct {
	c *cwp.Client
}

func (e *netExecutor) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	return e.c.ExecContext(ctx, sql)
}
func (e *netExecutor) Close() error { return e.c.Close() }

// LocalDriver executes against an in-process engine.
type LocalDriver struct {
	Engine *engine.Engine
	User   string
}

// Connect opens an in-process session.
func (d *LocalDriver) Connect() (Executor, error) {
	s := d.Engine.NewSession()
	if d.User != "" {
		s.SetUser(d.User)
	}
	return &localExecutor{s: s}, nil
}

type localExecutor struct {
	s *engine.Session
}

// ExecContext executes eagerly: the engine has no incremental API, so the
// session streams through Streaming's buffered adapter.
func (e *localExecutor) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	// In-process execution cannot be interrupted mid-statement; honour the
	// deadline at the request boundary.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results, err := e.s.ExecSQL(sql)
	if err != nil {
		return nil, err
	}
	out := make([]*cwp.StatementResult, len(results))
	for i, r := range results {
		sr := &cwp.StatementResult{Command: r.Command, Affected: r.RowsAffected}
		if r.Cols != nil {
			sr.Cols = metaFromCols(r.Cols)
			// Batch the rows like the network driver would.
			for off := 0; off < len(r.Rows); off += cwp.BatchRows {
				end := off + cwp.BatchRows
				if end > len(r.Rows) {
					end = len(r.Rows)
				}
				sr.Batches = append(sr.Batches, &tdf.Batch{Cols: sr.Cols, Rows: r.Rows[off:end]})
			}
			if len(r.Rows) == 0 {
				sr.Batches = append(sr.Batches, &tdf.Batch{Cols: sr.Cols})
			}
		}
		out[i] = sr
	}
	return out, nil
}

func (e *localExecutor) Close() error { return nil }

func metaFromCols(cols []xtra.Col) []tdf.ColumnMeta {
	out := make([]tdf.ColumnMeta, len(cols))
	for i, c := range cols {
		out[i] = tdf.ColumnMeta{Name: c.Name, Type: c.Type}
	}
	return out
}

var (
	_ Driver = (*NetworkDriver)(nil)
	_ Driver = (*LocalDriver)(nil)
)
