package hyperq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/metrics"
	"hyperq/internal/odbc"
	"hyperq/internal/tdf"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/xtra"
)

// frontWriter wraps the request's tdp.ResponseWriter so both the streaming
// pipeline and the buffered emitter share one code path, every write error
// is wrapped as *frontWriteError (distinguishing frontend faults from
// backend faults in the session's error handling), and the session knows
// whether any row of the current request has reached the client — the point
// past which backend failures become non-retryable.
type frontWriter struct {
	s *Session
	w tdp.ResponseWriter
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

func (fw *frontWriter) begin(cols []tdp.ColumnDef) error {
	if err := fw.w.BeginResultSet(cols); err != nil {
		return &frontWriteError{err: err}
	}
	return nil
}

func (fw *frontWriter) row(row []types.Datum) error {
	fw.rowsSent = true
	if err := fw.w.Row(row); err != nil {
		return &frontWriteError{err: err}
	}
	return nil
}

func (fw *frontWriter) end(activity int64, name string) error {
	if err := fw.w.EndStatement(activity, name); err != nil {
		return &frontWriteError{err: err}
	}
	return nil
}

// writeResults emits materialized results, skipping those the streaming
// path already delivered; emitted results are marked sent so a second pass
// is a no-op.
func (fw *frontWriter) writeResults(results []*FrontResult) error {
	for _, res := range results {
		if res.sent {
			continue
		}
		if res.Cols != nil {
			if err := fw.begin(res.Cols); err != nil {
				return err
			}
			for _, row := range res.Rows {
				if err := fw.row(row); err != nil {
					return err
				}
			}
		}
		if err := fw.end(res.Activity, res.Command); err != nil {
			return err
		}
		res.sent = true
	}
	return nil
}

// errResultShed aborts a streamed request whose next batch would push the
// gateway-wide in-flight result memory past the hard cap.
var errResultShed = errors.New("gateway result memory cap exceeded")

// enterComposite/leaveComposite bracket multi-statement emulation protocols
// (macros, MERGE, recursive queries, SET-table inserts). Inside a composite
// the per-inner-statement results must accumulate and emit together in
// statement order, so streaming is disabled: a streamed inner result would
// hit the wire before an earlier sibling's buffered parcels.
func (s *Session) enterComposite() { s.compositeDepth++ }
func (s *Session) leaveComposite() { s.compositeDepth-- }

// streamable selects the result path per statement (the tentpole's
// fallback rule): stream only when a frontend is attached, the statement is
// top-level (not inside an emulation composite), it produces a result set
// (frontCols non-nil — DML/DDL activity counts are synthesized gateway-side
// and stay buffered), streaming is not disabled, and the backend executor
// supports it.
func (s *Session) streamable(frontCols []xtra.Col) bool {
	if s.fw == nil || s.compositeDepth > 0 || s.g.cfg.DisableStreaming || frontCols == nil {
		return false
	}
	_, ok := s.be.(odbc.StreamExecutor)
	return ok
}

// streamItem is one unit flowing through the three-stage pipeline. Exactly
// one of cols / front / batch / rows / complete / err is meaningful (the
// convert stage turns cols into front and batch into rows); bytes carries
// the accountant reservation attached to a batch until its rows are
// delivered.
type streamItem struct {
	cols     []tdf.ColumnMeta
	front    []tdp.ColumnDef
	batch    *tdf.Batch
	rows     [][]types.Datum
	bytes    int64
	complete bool
	command  string
	affected int64
	err      error
	convErr  bool // err came from result conversion, not the backend
}

// execStreamed is the streaming counterpart of execTranslated's
// execute+convert phase: fetch → convert → frontend write run as a
// bounded three-stage pipeline. Backpressure is end-to-end: a slow client
// stalls the write stage, the bounded channels fill, the fetch stage stops
// pulling, and the backend's own socket writes block — bounded by the
// per-session byte budget and the gateway-wide accountant rather than the
// result size.
func (s *Session) execStreamed(se odbc.StreamExecutor, sql string, frontCols []xtra.Col, cmd func(string) string) ([]*FrontResult, error) {
	g := s.g
	fw := s.fw
	defer atomic.StoreInt32(&s.midStream, 0)
	s.req.tr.AddTranslated(sql)
	t := s.req.begin(metrics.StageExecute)
	t.sp.Set("sql", sql)
	t.sp.Set("streamed", "true")
	// The execute lap covers the whole pipeline wall-clock. The convert stage
	// runs on its own goroutine and may not touch the record: it accumulates
	// here, and the sum is folded in once the stages are joined.
	var convertNs int64
	defer s.req.endSplit(t, metrics.StageConvert, &convertNs)

	pctx, cancel := context.WithCancel(s.requestCtx())
	defer cancel()
	st, err := se.ExecStream(pctx, sql)
	if err != nil {
		return nil, mapBackendError(err)
	}
	defer st.Close()

	depth := g.cfg.StreamDepth
	budget := int64(g.cfg.ResultBudget)
	fetched := make(chan streamItem, depth)
	converted := make(chan streamItem, depth)
	released := make(chan struct{}, 1)

	// sessInflight is this session's accounted bytes between fetch and
	// delivery; acquired/releasedBytes are running totals reconciled once at
	// pipeline teardown so no exit path can leak accountant reservations.
	var sessInflight, acquired, releasedBytes int64

	var wg sync.WaitGroup

	// Stage 1: fetch. Pulls events off the backend stream, reserves result
	// memory per batch, and forwards into the bounded channel.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(fetched)
		// A well-formed stream ends (io.EOF) only after every statement's
		// Complete event. EOF with a statement still open — or before any
		// statement completed — is a backend that died mid-request and must
		// surface as a failure, never as a successful empty result.
		statementOpen, sawComplete := false, false
		capBytes := int64(g.cfg.ResultMemoryCap)
		var prevSize int64 // the request's previous batch, 0 before the first
		shed := func() {
			select {
			case fetched <- streamItem{err: errResultShed}:
			case <-pctx.Done():
			}
		}
		for {
			ev, err := st.Next(pctx)
			if err != nil {
				if errors.Is(err, io.EOF) && sawComplete && !statementOpen {
					return
				}
				if errors.Is(err, io.EOF) {
					err = fmt.Errorf("backend stream ended without statement completion: %w", io.ErrUnexpectedEOF)
				}
				select {
				case fetched <- streamItem{err: err}:
				case <-pctx.Done():
				}
				return
			}
			var item streamItem
			switch ev.Kind {
			case cwp.StreamMeta:
				statementOpen = true
				item = streamItem{cols: ev.Cols}
			case cwp.StreamComplete:
				statementOpen, sawComplete = false, true
				item = streamItem{complete: true, command: ev.Command, affected: ev.Affected}
			case cwp.StreamBatch:
				size := int64(ev.Batch.EncodedSize())
				// The backend stream's reader was receiving this batch while
				// its predecessor was being written, so the two were
				// resident together whether or not the predecessor's
				// reservation happens to have been released by now: a pair
				// the cap cannot hold sheds on every run, not on a lost race.
				if capBytes > 0 && prevSize > 0 && prevSize+size > capBytes {
					shed()
					return
				}
				// Per-session budget: wait for in-flight bytes to drain
				// before admitting the next batch. A single batch larger
				// than the whole budget is admitted while the pipeline is
				// empty — holding it back forever would deadlock.
				for atomic.LoadInt64(&sessInflight) > 0 &&
					atomic.LoadInt64(&sessInflight)+size > budget {
					select {
					case <-released:
					case <-pctx.Done():
						return
					}
				}
				if !g.acquireResultBytes(size) {
					shed()
					return
				}
				prevSize = size
				atomic.AddInt64(&sessInflight, size)
				atomic.AddInt64(&acquired, size)
				item = streamItem{batch: ev.Batch, bytes: size}
			default:
				continue
			}
			select {
			case fetched <- item:
			case <-pctx.Done():
				return
			}
		}
	}()

	// Stage 2: convert. The statement's plan is compiled when its column
	// metadata arrives; batches are then converted one at a time in arrival
	// order, so row order is preserved.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(converted)
		var plan *convertPlan
		for item := range fetched {
			switch {
			case item.cols != nil:
				var err error
				if plan, err = newConvertPlan(frontCols, item.cols); err != nil {
					item = streamItem{err: err, convErr: true}
				} else {
					item = streamItem{front: plan.cols}
				}
			case item.batch != nil:
				t0 := time.Now()
				var rows [][]types.Datum
				var err error
				if plan == nil { // rows without a metadata event: the batch describes itself
					plan, err = newConvertPlan(frontCols, item.batch.Cols)
				}
				if err == nil {
					rows, err = plan.convertBatch(item.batch)
				}
				atomic.AddInt64(&convertNs, int64(time.Since(t0)))
				if err != nil {
					item = streamItem{err: err, bytes: item.bytes, convErr: true}
				} else {
					item = streamItem{rows: rows, bytes: item.bytes}
				}
			}
			select {
			case converted <- item:
			case <-pctx.Done():
				return
			}
		}
	}()

	// release hands a batch's bytes back to both budgets once its rows are
	// with the frontend writer (kernel socket buffer included — userspace
	// accounting only) and nudges the fetch stage.
	release := func(n int64) {
		if n <= 0 {
			return
		}
		atomic.AddInt64(&sessInflight, -n)
		atomic.AddInt64(&releasedBytes, n)
		g.releaseResultBytes(n)
		select {
		case released <- struct{}{}:
		default:
		}
	}

	// Stage 3: write (this goroutine). Emits parcels in event order and
	// tracks per-statement state exactly like the buffered emitter.
	var out []*FrontResult
	inResultSet := false
	var rowCount int64
	var streamErr error
	convFail := false

writeLoop:
	for item := range converted {
		switch {
		case item.err != nil:
			release(item.bytes)
			streamErr = item.err
			convFail = item.convErr
			break writeLoop
		case item.front != nil:
			if streamErr = fw.begin(item.front); streamErr != nil {
				break writeLoop
			}
			inResultSet = true
			rowCount = 0
			s.req.streamedResults++
			atomic.StoreInt32(&s.midStream, 1)
		case item.complete:
			activity := item.affected
			name := cmd(item.command)
			if inResultSet {
				activity = rowCount
			}
			if streamErr = fw.end(activity, name); streamErr != nil {
				break writeLoop
			}
			out = append(out, &FrontResult{Activity: activity, Command: name, sent: true})
			inResultSet = false
		default:
			for _, row := range item.rows {
				if streamErr = fw.row(row); streamErr != nil {
					release(item.bytes)
					break writeLoop
				}
			}
			rowCount += int64(len(item.rows))
			s.req.rowsOut += int64(len(item.rows))
			s.req.streamedBytes += item.bytes
			release(item.bytes)
		}
	}

	// Teardown: stop the stages, join them, then reconcile the accountant —
	// any reservation still attached to in-flight items is returned here, in
	// exactly one place, so neither error paths nor cancellation can leak
	// gauge bytes.
	cancel()
	wg.Wait()
	if leak := atomic.LoadInt64(&acquired) - atomic.LoadInt64(&releasedBytes); leak > 0 {
		g.releaseResultBytes(leak)
	}

	if streamErr == nil {
		return out, nil
	}
	var fwe *frontWriteError
	switch {
	case errors.As(streamErr, &fwe):
		// Frontend write failure: surfaced untyped so Request tears the
		// client connection down (eviction or disconnect, not a SQL failure).
		return nil, streamErr
	case errors.Is(streamErr, errResultShed):
		atomic.AddInt64(&g.metrics.resultShed, 1)
		return nil, failf(tdp.CodeGatewaySaturated, "%v: request shed", streamErr)
	case convFail:
		return nil, failf(tdp.CodeObjectNotFound, "result conversion: %v", streamErr)
	case fw.rowsSent:
		// Rows already reached the client: the request cannot be retried or
		// cleanly failed over — surface the interruption honestly.
		atomic.AddInt64(&g.metrics.midstreamFailures, 1)
		return nil, failf(tdp.CodeResultInterrupted, "result delivery interrupted: %v", streamErr)
	default:
		return nil, mapBackendError(streamErr)
	}
}
