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
// instead of forcing full materialization. Its two request methods are the
// two operations every backend session offers: ExecStream, and ExecContext —
// collect, the unit a retrying layer re-runs whole because nothing has been
// handed out yet.
type StreamExecutor interface {
	Executor
	ExecStream(ctx context.Context, sql string) (ResultStream, error)
}

// Streaming returns ex as a StreamExecutor. An executor that streams natively
// comes back as itself, so optional interfaces (ReconnectAware,
// DivergenceSource, a pool's pinning) still pass type assertions on the
// result; any other is wrapped in an adapter whose ExecStream replays
// ExecContext's materialized results. The adapter preserves the streaming
// contract exactly (event order, io.EOF terminal) but not its memory profile,
// and it hides every optional interface — so an executor that has one must
// stream natively. ConnectContext applies Streaming to every session it
// opens, so whether a session streams is decided once, at connect, rather
// than per request.
func Streaming(ex Executor) StreamExecutor {
	if se, ok := ex.(StreamExecutor); ok {
		return se
	}
	return bufferedExecutor{ex}
}

// bufferedExecutor is Streaming's adapter: ExecStream runs the request to
// completion and replays the results as a stream.
type bufferedExecutor struct{ Executor }

func (e bufferedExecutor) ExecStream(ctx context.Context, sql string) (ResultStream, error) {
	results, err := e.ExecContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return BufferStream(results), nil
}

// OpenStream opens a result stream via ex: Streaming(ex).ExecStream.
func OpenStream(ctx context.Context, ex Executor, sql string) (ResultStream, error) {
	return Streaming(ex).ExecStream(ctx, sql)
}

// BufferStream adapts materialized statement results to the ResultStream
// interface, replaying them as the event sequence a native stream would
// have produced. It is the stream behind Streaming's adapter, the replicated
// executor's ExecStream and the gateway's collected results.
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

var (
	_ StreamExecutor = (*netExecutor)(nil)
	_ ResultStream   = (*cwp.Stream)(nil)
)
