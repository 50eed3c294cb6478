package odbc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hyperq/internal/parser"
	"hyperq/internal/sqlast"
	"hyperq/internal/wire/cwp"
)

// ReplicatedDriver implements the paper's scale-out scenario (Appendix B.3):
// "maintain multiple replicas of the data warehouse and load balance queries
// across them ... The ADV solution on top can then automatically route the
// queries to the different replicas, without sacrificing consistency,
// and without requiring changes to the application logic."
//
// Read-only requests round-robin across the replicas; any request containing
// a write (DML/DDL) executes on every replica so their contents stay
// identical. A replica whose read fails on a connection error is
// quarantined for the rest of the session and the read fails over to the
// next replica; a write that lands on some replicas but not others marks
// the executor divergent, and every subsequent request fails with
// ErrReplicaDivergent instead of silently serving inconsistent reads.
type ReplicatedDriver struct {
	// Replicas are the per-replica drivers (at least one).
	Replicas []Driver
	// Metrics, when non-nil, counts replica quarantines.
	Metrics *ResilienceMetrics
	// Compare, when non-nil, switches reads from round-robin load balancing
	// to dual dispatch: every read-only request fans out to all healthy
	// replicas, the answers are diffed with Compare against the
	// lowest-indexed healthy replica (the baseline), and differences are
	// recorded as Divergence records instead of poisoning the session — the
	// shadow-migration replay mode, where replica 0 is the trusted profile and
	// the others are migration candidates under verification. Successful
	// write fan-outs are diffed too (command tags and affected counts). The
	// replay harness installs replay.Differ here.
	Compare CompareFunc
	rr      uint64
}

// Connect opens one session per replica.
func (d *ReplicatedDriver) Connect() (Executor, error) {
	return d.ConnectContext(context.Background())
}

// ConnectContext opens one session per replica under the given context.
func (d *ReplicatedDriver) ConnectContext(ctx context.Context) (Executor, error) {
	if len(d.Replicas) == 0 {
		return nil, fmt.Errorf("odbc: replicated driver needs at least one replica")
	}
	sessions := make([]Executor, len(d.Replicas))
	for i, r := range d.Replicas {
		ex, err := ConnectContext(ctx, r)
		if err != nil {
			for _, s := range sessions[:i] {
				_ = s.Close()
			}
			return nil, fmt.Errorf("odbc: replica %d: %w", i, err)
		}
		sessions[i] = ex
	}
	return &replicatedExecutor{d: d, sessions: sessions, down: make([]bool, len(sessions))}, nil
}

var (
	_ Driver           = (*ReplicatedDriver)(nil)
	_ StreamExecutor   = (*replicatedExecutor)(nil)
	_ DivergenceSource = (*replicatedExecutor)(nil)
)

type replicatedExecutor struct {
	d        *ReplicatedDriver
	sessions []Executor

	mu sync.Mutex
	// down marks replicas quarantined after connection failures; they are
	// skipped by the read rotation and excluded from write fan-out.
	down []bool
	// divergent, once set, poisons the executor: a partial write failure
	// means the replicas no longer hold identical contents.
	divergent error
	// divs accumulates divergence records in compare mode until drained via
	// TakeDivergences.
	divs []*Divergence
}

// recordDivergence stamps and stores one divergence record.
func (e *replicatedExecutor) recordDivergence(d *Divergence, sql string, replica int) {
	stampDivergence(d, sql, replica)
	e.mu.Lock()
	e.divs = append(e.divs, d)
	e.mu.Unlock()
}

// TakeDivergences implements DivergenceSource: it drains the records
// accumulated since the last call. The executor serves one request at a
// time, so draining between requests attributes records per statement.
func (e *replicatedExecutor) TakeDivergences() []*Divergence {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.divs
	e.divs = nil
	return out
}

// isReadOnly reports whether every statement of the request is a query.
// Unparseable requests are treated as writes (the conservative choice for
// consistency).
func isReadOnly(sql string) bool {
	stmts, err := parser.Parse(sql, parser.ANSI, nil)
	if err != nil {
		return false
	}
	for _, s := range stmts {
		if _, ok := s.(*sqlast.SelectStmt); !ok {
			return false
		}
	}
	return true
}

func (e *replicatedExecutor) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	e.mu.Lock()
	div := e.divergent
	e.mu.Unlock()
	if div != nil {
		return nil, div
	}
	if isReadOnly(sql) {
		if e.d.Compare != nil {
			return e.execReadCompare(ctx, sql)
		}
		return e.execRead(ctx, sql)
	}
	return e.execWrite(ctx, sql)
}

// ExecStream streams ExecContext's answer. A compare-mode read and a write
// fan-out need every replica's complete answer before one is returned, so the
// results are materialized by construction; implementing the method here
// rather than leaving it to Streaming's adapter keeps the executor itself —
// a DivergenceSource — in the session's hands.
func (e *replicatedExecutor) ExecStream(ctx context.Context, sql string) (ResultStream, error) {
	return bufferedExecutor{e}.ExecStream(ctx, sql)
}

func (e *replicatedExecutor) isDown(i int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.down[i]
}

// quarantine removes replica i from rotation after a connection failure.
func (e *replicatedExecutor) quarantine(i int) {
	e.mu.Lock()
	already := e.down[i]
	e.down[i] = true
	e.mu.Unlock()
	if !already {
		_ = e.sessions[i].Close()
		e.d.Metrics.addQuarantine()
	}
}

// execRead round-robins across healthy replicas, failing over past any
// replica whose connection dies. SQL errors surface immediately: replicas
// hold identical contents, so every replica would answer the same.
func (e *replicatedExecutor) execRead(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	n := len(e.sessions)
	start := atomic.AddUint64(&e.d.rr, 1)
	var lastErr error
	for k := 0; k < n; k++ {
		i := int((start + uint64(k)) % uint64(n))
		if e.isDown(i) {
			continue
		}
		res, err := e.sessions[i].ExecContext(ctx, sql)
		if err == nil {
			return res, nil
		}
		if !ConnectionError(err) {
			return nil, err
		}
		e.quarantine(i)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("odbc: no healthy replica")
	}
	return nil, fmt.Errorf("odbc: all replicas unavailable: %w", lastErr)
}

// outcome is one replica's answer to a fanned-out request; ran is false for
// a replica that was quarantined before the request.
type outcome struct {
	res []*cwp.StatementResult
	err error
	ran bool
}

// fanOut runs the request on every healthy replica concurrently and returns
// the outcomes indexed by replica.
func (e *replicatedExecutor) fanOut(ctx context.Context, sql string) []outcome {
	outs := make([]outcome, len(e.sessions))
	var wg sync.WaitGroup
	for i, s := range e.sessions {
		if e.isDown(i) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.ExecContext(ctx, sql)
			outs[i] = outcome{res: res, err: err, ran: true}
		}()
	}
	wg.Wait()
	return outs
}

// execReadCompare fans a read out to every healthy replica and diffs each
// answer against the baseline (the lowest-indexed healthy replica).
// Divergences are recorded, not fatal: the shadow migration must keep
// scanning the workload after finding a behavioural gap. A replica whose
// connection dies is quarantined exactly as in load-balancing mode; a dead
// baseline promotes the next healthy replica and retries the fan-out. The
// baseline's answer is always the one returned to the caller.
func (e *replicatedExecutor) execReadCompare(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	for range e.sessions {
		outs := e.fanOut(ctx, sql)
		base := slices.IndexFunc(outs, func(o outcome) bool { return o.ran })
		if base < 0 {
			break
		}
		if err := outs[base].err; err != nil && ConnectionError(err) {
			// The baseline died mid-request; its answer is unusable as truth.
			// Quarantine it and re-dispatch against the survivors.
			e.quarantine(base)
			continue
		}
		for i := base + 1; i < len(outs); i++ {
			o := outs[i]
			if !o.ran {
				continue
			}
			if o.err != nil && ConnectionError(o.err) {
				// Infrastructure loss, not behaviour: quarantine, don't report.
				e.quarantine(i)
				continue
			}
			if d := e.diffOutcomes(sql, outs[base], o); d != nil {
				e.recordDivergence(d, sql, i)
			}
		}
		return outs[base].res, outs[base].err
	}
	return nil, fmt.Errorf("odbc: all replicas unavailable: %w", fmt.Errorf("odbc: no healthy replica"))
}

// diffOutcomes compares one replica's outcome against the baseline's: two
// successes go to the result comparator, any other pair differs when its
// outcome texts do.
func (e *replicatedExecutor) diffOutcomes(sql string, base, o outcome) *Divergence {
	if base.err == nil && o.err == nil {
		return e.d.Compare(sql, base.res, o.res)
	}
	b, x := outcomeText(base.err), outcomeText(o.err)
	if b == x {
		return nil
	}
	return &Divergence{Kind: DivError, Stmt: -1, Row: -1, Col: -1, Baseline: b, Observed: x}
}

func outcomeText(err error) string {
	if err == nil {
		return "ok"
	}
	return "error: " + err.Error()
}

// execWrite fans the request out to every healthy replica. All replicas
// must succeed; a partial failure leaves the contents diverged and poisons
// the executor.
func (e *replicatedExecutor) execWrite(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	outs := e.fanOut(ctx, sql)
	firstOK, firstErrIdx := -1, -1
	var firstErr error
	for i, o := range outs {
		switch {
		case !o.ran: // quarantined before the write
		case o.err == nil:
			if firstOK < 0 {
				firstOK = i
			}
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("odbc: replica %d: %w", i, o.err)
				firstErrIdx = i
			}
			if ConnectionError(o.err) {
				e.quarantine(i)
			}
		}
	}
	switch {
	case firstErr == nil && firstOK < 0:
		return nil, fmt.Errorf("odbc: no healthy replica")
	case firstErr == nil:
		if e.d.Compare != nil {
			// Dual-replay mode diffs successful write outcomes too: an UPDATE
			// touching different row counts on the two profiles is exactly the
			// behavioural gap a shadow migration must surface.
			for i := firstOK + 1; i < len(outs); i++ {
				if !outs[i].ran {
					continue
				}
				if d := e.d.Compare(sql, outs[firstOK].res, outs[i].res); d != nil {
					e.recordDivergence(d, sql, i)
				}
			}
		}
		return outs[firstOK].res, nil
	case firstOK >= 0:
		// The write landed on some replicas only: their contents now
		// differ, and no replica can be trusted to answer reads for this
		// session. Record the detail — which replica, which error — then
		// poison the executor rather than serve inconsistency.
		d := &Divergence{Kind: DivWritePartial, Stmt: -1, Row: -1, Col: -1,
			Baseline: "applied", Observed: "error: " + firstErr.Error()}
		e.recordDivergence(d, sql, firstErrIdx)
		e.mu.Lock()
		e.divergent = fmt.Errorf("%w: %s", ErrReplicaDivergent, d.String())
		div := e.divergent
		e.mu.Unlock()
		return nil, div
	}
	return nil, firstErr
}

// Close closes every replica session and aggregates the errors, so a
// failure mid-slice cannot leak the remaining sessions. Quarantined
// replicas were already closed when they left the rotation.
func (e *replicatedExecutor) Close() error {
	e.mu.Lock()
	down := append([]bool(nil), e.down...)
	e.mu.Unlock()
	errs := make([]error, 0, len(e.sessions))
	for i, s := range e.sessions {
		if down[i] {
			continue
		}
		if err := s.Close(); err != nil {
			errs = append(errs, fmt.Errorf("odbc: replica %d close: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
