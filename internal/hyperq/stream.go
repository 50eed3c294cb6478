package hyperq

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"hyperq/internal/odbc"
	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/xtra"
)

// frontWriter is the resultSink over the request's tdp.ResponseWriter. Every
// write error is wrapped as *frontWriteError (distinguishing frontend faults
// from backend faults in the session's error handling), and the session knows
// whether any row of the current request has reached the client — the point
// past which backend failures become non-retryable.
type frontWriter struct {
	w tdp.ResponseWriter
	// cols is the open result set's; buf holds a batch's records for a
	// writer that takes only rows.
	cols []tdp.ColumnDef
	buf  []byte
	// rowsSent: at least one row parcel of the current request was handed to
	// the frontend writer.
	rowsSent bool
}

// frontWriteError marks a failure writing to the client connection. The
// request cannot produce further output; the session tears the connection
// down instead of emitting a failure parcel nobody can read.
type frontWriteError struct {
	err error
}

func (e *frontWriteError) Error() string { return "frontend write: " + e.err.Error() }
func (e *frontWriteError) Unwrap() error { return e.err }

// Timeout reports whether the write failed on the armed write deadline —
// the slow-client eviction case, as opposed to a vanished client.
func (e *frontWriteError) Timeout() bool {
	var ne net.Error
	return errors.As(e.err, &ne) && ne.Timeout()
}

// frontErr marks a failed client write as what it is.
func frontErr(err error) error {
	if err != nil {
		return &frontWriteError{err: err}
	}
	return nil
}

func (fw *frontWriter) begin(cols []tdp.ColumnDef) error {
	fw.cols = cols
	return frontErr(fw.w.BeginResultSet(cols))
}

// recordWriter is a response writer that writes records itself, as the one a
// tdp server hands its sessions does (tdp.NewResponseWriter). Any other
// writer is given rows decoded from the records.
type recordWriter interface {
	Transcode(b *tdf.Batch, ops []tdp.FieldOp) error
	Records(p []byte) error
}

// transcode writes a raw batch's records: straight from the batch through a
// recordWriter, through a buffer of records to any other writer. A cell that
// cannot be converted fails the request, not the connection.
func (fw *frontWriter) transcode(b *tdf.Batch, ops []tdp.FieldOp) error {
	rw, direct := fw.w.(recordWriter)
	var err error
	if direct {
		fw.rowsSent = fw.rowsSent || b.Len() > 0
		err = rw.Transcode(b, ops)
	} else {
		fw.buf, err = tdp.AppendRecords(fw.buf[:0], fw.cols, b, ops)
	}
	if err != nil && errors.As(err, new(*tdp.ConversionError)) {
		return conversionFailure(err)
	}
	if direct || err != nil {
		return frontErr(err)
	}
	return fw.records(fw.buf)
}

// records writes records made for the open result set.
func (fw *frontWriter) records(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	fw.rowsSent = true
	if rw, ok := fw.w.(recordWriter); ok {
		return frontErr(rw.Records(p))
	}
	rows, err := tdp.DecodeRecords(fw.cols, p)
	if err != nil {
		return err
	}
	return fw.rows(rows)
}

func (fw *frontWriter) rows(rows [][]types.Datum) error {
	for _, row := range rows {
		fw.rowsSent = true
		if err := fw.w.Row(row); err != nil {
			return frontErr(err)
		}
	}
	return nil
}

func (fw *frontWriter) end(activity int64, name string) error {
	fw.cols = nil
	return frontErr(fw.w.EndStatement(activity, name))
}

// writeResults emits materialized results: a collected result set's records,
// a gateway-made one's rows. A statement streamed to the wire returns no
// FrontResult, so nothing here was sent before.
func (fw *frontWriter) writeResults(results []*FrontResult) error {
	for _, res := range results {
		if res.Cols != nil {
			if err := fw.begin(res.Cols); err != nil {
				return err
			}
			if err := fw.records(res.recs); err != nil {
				return err
			}
			if err := fw.rows(res.Rows); err != nil {
				return err
			}
		}
		if err := fw.end(res.Activity, res.Command); err != nil {
			return err
		}
	}
	return nil
}

// errResultShed aborts a streamed request whose next batch would push the
// gateway-wide in-flight result memory past the hard cap.
var errResultShed = errors.New("gateway result memory cap exceeded")

// streamsToWire selects the sink per statement from its shape alone: straight
// to the wire only when a frontend is attached, the statement is top-level
// (not inside an emulation composite, whose results must emit together in
// statement order), it produces a result set (frontCols non-nil — DML/DDL
// activity counts are synthesized gateway-side) and streaming is not
// disabled; everything else is collected. Every backend session streams
// (odbc.Streaming), so the backend has no say.
func (s *Session) streamsToWire(frontCols []xtra.Col, e env) bool {
	return s.fw != nil && !e.composite && !s.g.cfg.DisableStreaming && frontCols != nil
}

// feedDepth is how many events the fetch stage may run ahead of the session
// goroutine: enough that fetching the next batches overlaps converting and
// writing the current one. Memory is bounded by the byte budgets, not by this.
const feedDepth = 4

// fedEvent is one backend event on its way to the session goroutine; bytes is
// the accountant reservation attached to a batch until its rows are delivered.
type fedEvent struct {
	ev    cwp.StreamEvent
	bytes int64
	err   error // terminal: whatever the backend stream ended with, io.EOF included
}

// resultFeed is the fetch stage of a streamed statement: it pulls events off
// the backend stream and reserves result memory per batch against the
// per-session budget and the gateway-wide accountant. Until the stream yields
// its second batch the session goroutine pulls for itself — a one-batch
// answer, every small request's, never costs a goroutine or a hand-off. From
// the second batch on a fetch goroutine pulls the rest and hands it over
// through one bounded channel, so reading the next batch overlaps converting
// and writing the current one. Backpressure is end-to-end: a slow client
// stalls the session goroutine's frontend write, the channel fills, the fetch
// stage stops pulling, and the backend's own socket writes block — bounded by
// the budgets rather than the result size. A batch's reservation is held until
// deliver comes back for the next event: until its rows are with the frontend
// writer (kernel socket buffer included) — which is also when the batch's
// memory goes back to the decoder (tdf.Batch.Release): the rows deliver was
// handed are dead once it asks for the next event.
//
// A session serves one request at a time and keeps one resultFeed, reset per
// streamed statement.
type resultFeed struct {
	g  *Gateway
	st odbc.ResultStream
	// events, released and cancel exist once the fetch goroutine runs;
	// released nudges it while it waits on the session budget, cancel stops
	// it — and, through the context it pulls with, unblocks a backend read it
	// is parked in.
	events   chan fedEvent
	released chan struct{}
	cancel   context.CancelFunc
	// inflight is this session's accounted bytes between fetch and delivery.
	inflight atomic.Int64
	// prevSize is the last batch pulled, 0 before the first, and batches
	// counts them: whoever pulls owns both, the session goroutine until the
	// fetch goroutine starts.
	prevSize int64
	batches  int
	// held is the batch the consumer is working on, with its reservation;
	// delivered totals the reservations it came back from.
	held      fedEvent
	delivered int64
}

// reset readies the session's feed for a stream: the previous stream's
// feed was closed, so no fetch goroutine is left to touch it.
func (f *resultFeed) reset(g *Gateway, st odbc.ResultStream) {
	f.g, f.st = g, st
	f.events, f.released, f.cancel = nil, nil, nil
	f.inflight.Store(0)
	f.prevSize, f.batches = 0, 0
	f.held, f.delivered = fedEvent{}, 0
}

// pull reads the next backend event and reserves a batch's memory.
func (f *resultFeed) pull(ctx context.Context) fedEvent {
	ev, err := f.st.Next(ctx)
	item := fedEvent{ev: ev, err: err}
	if err == nil && ev.Batch != nil {
		size := int64(ev.Batch.EncodedSize())
		if err := f.admit(ctx, size); err != nil {
			item = fedEvent{err: err}
		} else if !f.g.acquireResultBytes(size) {
			item = fedEvent{err: errResultShed}
		} else {
			f.inflight.Add(size)
			item.bytes, f.prevSize = size, size
		}
		f.batches++
	}
	return item
}

// start hands the rest of the stream to the fetch goroutine, which pulls
// under a context of its own: close cancels it.
func (f *resultFeed) start(ctx context.Context) {
	ctx, f.cancel = context.WithCancel(ctx)
	f.events = make(chan fedEvent, feedDepth)
	f.released = make(chan struct{}, 1)
	go func() {
		defer close(f.events)
		for {
			item := f.pull(ctx)
			select {
			case f.events <- item:
			case <-ctx.Done():
				return
			}
			if item.err != nil {
				return
			}
		}
	}()
}

// admit holds a batch of size bytes that follows one of prevSize until the
// session's budget has room for it: nil when the accountant may be asked,
// errResultShed when the cap can never hold the pair, ctx's error when ctx
// ends first. The session goroutine's pulls never wait: it has handed back
// the batch it held before it pulls the next.
func (f *resultFeed) admit(ctx context.Context, size int64) error {
	// The backend stream's reader was receiving this batch while its
	// predecessor was being written, so the two were resident together whether
	// or not the predecessor's reservation happens to have been released by
	// now: a pair the cap cannot hold sheds on every run, not on a lost race.
	if f.prevSize > 0 && f.prevSize+size > f.g.resultCap {
		return errResultShed
	}
	// Per-session budget: wait for in-flight bytes to drain before admitting
	// the next batch. A single batch larger than the whole budget is admitted
	// while the pipeline is empty — holding it back forever would deadlock.
	for f.inflight.Load() > 0 && f.inflight.Load()+size > f.g.resultBudget {
		select {
		case <-f.released:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Next hands the previous batch's bytes back to both budgets and its memory
// back to the decoder, nudges the fetch stage, and returns the next event:
// pulled here up to the stream's second batch, which starts the fetch
// goroutine, and taken from it after that. It releases every streamed batch,
// as the collector releases each batch once its records are made; a batch
// that never got here is left to the garbage collector. Every call passes
// the same ctx, the streamed statement's: a fetch goroutine that went quiet
// without a terminal event was stopped by it, and that is the error.
func (f *resultFeed) Next(ctx context.Context) (cwp.StreamEvent, error) {
	if b, n := f.held.ev.Batch, f.held.bytes; b != nil {
		f.held = fedEvent{}
		f.delivered += n
		f.inflight.Add(-n)
		f.g.releaseResultBytes(n)
		b.Release()
		select {
		case f.released <- struct{}{}:
		default:
		}
	}
	var item fedEvent
	if f.events == nil {
		item = f.pull(ctx)
		if item.err == nil && item.ev.Batch != nil && f.batches == 2 {
			f.start(ctx)
		}
	} else {
		var ok bool
		if item, ok = <-f.events; !ok {
			return cwp.StreamEvent{}, ctx.Err()
		}
	}
	f.held = item
	return item.ev, item.err
}

// close stops and joins the fetch goroutine, if one started — cancelling its
// context unblocks any backend read or budget wait, so the channel it closes
// on exit drains at once — and returns every reservation still attached to
// undelivered batches: in exactly one place, so neither error paths nor
// cancellation can leak gauge bytes.
func (f *resultFeed) close() {
	if f.events != nil {
		f.cancel()
		for range f.events {
		}
	}
	if leak := f.inflight.Load(); leak > 0 {
		f.g.releaseResultBytes(leak)
	}
}

// streamToWire runs one result-set statement straight to the client: backend
// stream → fetch stage → deliver on this goroutine, next to the frontend
// write. It returns the time spent converting and the failure in its frontend
// form.
func (s *Session) streamToWire(p *Plan) (time.Duration, error) {
	ctx := s.ctx
	st, err := s.be.ExecStream(ctx, p.sql)
	if err != nil {
		return 0, mapBackendError(err)
	}
	defer st.Close()
	atomic.StoreInt32(&s.midStream, 1)
	defer atomic.StoreInt32(&s.midStream, 0)

	feed := &s.feed
	feed.reset(s.g, st)
	sets, convert, err := s.deliver(ctx, feed, p, s.fw)
	feed.close()
	s.req.streamedResults += sets
	s.req.streamedBytes += feed.delivered

	if err == nil {
		return convert, nil
	}
	var fwe *frontWriteError
	var re *RequestError
	switch {
	case errors.As(err, &fwe), errors.As(err, &re):
		// Nothing to map. A frontend write failure is surfaced untyped so
		// Request tears the client connection down (eviction or disconnect,
		// not a SQL failure); a conversion failure already carries its code.
	case errors.Is(err, errResultShed):
		atomic.AddInt64(&s.g.metrics.resultShed, 1)
		err = failf(tdp.CodeGatewaySaturated, "%v: request shed", err)
	case s.fw.rowsSent:
		// Rows already reached the client: the request cannot be retried or
		// cleanly failed over — surface the interruption honestly.
		atomic.AddInt64(&s.g.metrics.midstreamFailures, 1)
		err = failf(tdp.CodeResultInterrupted, "result delivery interrupted: %v", err)
	default:
		err = mapBackendError(err)
	}
	return convert, err
}
