package odbc

import (
	"context"
	"io"

	"hyperq/internal/wire/cwp"
)

// ResultStream yields one request's results incrementally, in wire order.
// Next returns io.EOF after the request's final statement completed; any
// other error is terminal too (a backend SQL failure or a transport fault).
// Close releases the stream; closing before the terminal event abandons the
// in-flight request, which marks the underlying connection broken — streams
// cannot be re-synchronized mid-result. Streams are not safe for concurrent
// use.
type ResultStream interface {
	Next(ctx context.Context) (cwp.StreamEvent, error)
	Close() error
}

// StreamExecutor is an Executor that can additionally yield results
// incrementally, so a slow consumer exerts backpressure on the backend
// instead of forcing full materialization.
type StreamExecutor interface {
	Executor
	ExecStream(ctx context.Context, sql string) (ResultStream, error)
}

// OpenStream opens a result stream via ex, falling back to buffered
// execution behind a slice-backed stream when the executor has no native
// streaming support. The fallback preserves the streaming contract exactly
// (event order, io.EOF terminal) but not its memory profile.
func OpenStream(ctx context.Context, ex Executor, sql string) (ResultStream, error) {
	if se, ok := ex.(StreamExecutor); ok {
		return se.ExecStream(ctx, sql)
	}
	results, err := ex.ExecContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return BufferStream(results), nil
}

// BufferStream adapts materialized statement results to the ResultStream
// interface, replaying them as the event sequence a native stream would
// have produced. It is the adapter behind OpenStream's fallback, the
// faultdriver's stream shim and the gateway's collected results.
func BufferStream(results []*cwp.StatementResult) ResultStream {
	return &bufferedStream{results: results}
}

type bufferedStream struct {
	results []*cwp.StatementResult
	stmt    int
	// phase within the current statement: 0 = meta pending, 1..len(Batches)
	// = batch i-1 delivered next, len+1 = complete pending.
	phase int
}

func (b *bufferedStream) Next(ctx context.Context) (cwp.StreamEvent, error) {
	if err := ctx.Err(); err != nil {
		return cwp.StreamEvent{}, err
	}
	for b.stmt < len(b.results) {
		r := b.results[b.stmt]
		if r.Cols == nil {
			// Row-less statement: a single Complete event.
			b.stmt++
			b.phase = 0
			return cwp.StreamEvent{Kind: cwp.StreamComplete, Command: r.Command, Affected: r.Affected}, nil
		}
		switch {
		case b.phase == 0:
			b.phase = 1
			return cwp.StreamEvent{Kind: cwp.StreamMeta, Cols: r.Cols}, nil
		case b.phase <= len(r.Batches):
			batch := r.Batches[b.phase-1]
			b.phase++
			return cwp.StreamEvent{Kind: cwp.StreamBatch, Batch: batch}, nil
		default:
			b.stmt++
			b.phase = 0
			return cwp.StreamEvent{Kind: cwp.StreamComplete, Command: r.Command, Affected: r.Affected}, nil
		}
	}
	return cwp.StreamEvent{}, io.EOF
}

func (b *bufferedStream) Close() error { return nil }

// ExecStream yields the request's results batch by batch straight off the
// wire; the network driver is the path where streaming actually bounds
// memory and propagates backpressure to the backend.
func (e *netExecutor) ExecStream(ctx context.Context, sql string) (ResultStream, error) {
	return e.c.ExecStreamContext(ctx, sql)
}

// ExecStream on the in-process driver executes eagerly (the engine has no
// incremental API) and replays the materialized result as a stream.
func (e *localExecutor) ExecStream(ctx context.Context, sql string) (ResultStream, error) {
	results, err := e.ExecContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return BufferStream(results), nil
}

var (
	_ StreamExecutor = (*netExecutor)(nil)
	_ StreamExecutor = (*localExecutor)(nil)
	_ ResultStream   = (*cwp.Stream)(nil)
)
