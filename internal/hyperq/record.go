package hyperq

import (
	"errors"
	"sync/atomic"
	"time"

	"hyperq/internal/feature"
	"hyperq/internal/fingerprint"
	"hyperq/internal/metrics"
	"hyperq/internal/trace"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/wstats"
)

// request is the record of one frontend request: stage times, cache
// outcomes, statements run and result volume are written here and only here
// while the request is served, and Session.publish derives every
// observability sink from it when the request ends. The session goroutine is
// the only writer (a session serves one request at a time), so the fields
// are plain; the record lives by value in the Session and is overwritten per
// request, so recording allocates nothing.
type request struct {
	start time.Time
	sql   string
	// hash is the statement-shape hash; 0 when neither the statistics
	// registry nor tracing needs it. fpID is its rendering when a
	// request-tier entry kept one, "" otherwise.
	hash uint64
	fpID string
	// tr is the request's span tree; nil outside a request or when tracing
	// is disabled.
	tr *trace.Trace
	// feats collects the rewrite features the request used (Figure 8).
	feats feature.Recorder

	stageNs [metrics.NumStages]int64
	// tier is the last statement's translation-cache outcome (the full story
	// of a multi-statement request is in its cache spans); tiers counts the
	// outcomes of all its statements.
	tier       wstats.Tier
	tiers      [len(traceCacheNames)]int64
	statements int64

	rowsOut         int64
	streamedResults int64
	streamedBytes   int64
	bufferedResults int64
	bufferedBytes   int64
}

// lap is one open stage interval, a value on the caller's stack. sp is the
// stage's span (nil, and nil-safe, without tracing), exposed for attributes:
// set them after end, which keeps writing them out of the stage's time.
type lap struct {
	stage metrics.Stage
	t0    time.Time
	sp    *trace.Span
}

// begin opens a stage; its span opens at the same clock read.
func (r *request) begin(stage metrics.Stage) lap {
	sp, now := r.tr.StartTimed(stage.String())
	return lap{stage: stage, t0: now, sp: sp}
}

// end closes a stage; the one clock read is both the record's stage time and
// the span's duration.
func (r *request) end(l lap) {
	d := time.Since(l.t0)
	r.stageNs[l.stage] += int64(d)
	l.sp.EndWithDuration(d)
}

// endSplit closes a lap that another stage ran inside — the execute lap, with
// innerD the time deliver spent converting between backend reads. That share
// is carved out of the lap and booked to inner, so stage times stay additive
// (the Figure 9 split).
func (r *request) endSplit(l lap, inner metrics.Stage, innerD time.Duration) {
	isp, now := r.tr.StartTimed(inner.String())
	d := max(now.Sub(l.t0)-innerD, 0)
	r.stageNs[l.stage] += int64(d)
	r.stageNs[inner] += int64(innerD)
	isp.EndWithDuration(innerD)
	l.sp.EndWithDuration(d)
}

// traceCacheNames are the trace's (and the query log's) names for the cache
// tiers; they predate the /statements tier names and clients match on them.
var traceCacheNames = [...]string{
	wstats.TierNone:           "",
	wstats.TierExactHit:       "raw-hit",
	wstats.TierFingerprintHit: "hit",
	wstats.TierMiss:           "miss",
	wstats.TierBypass:         "bypass",
}

// cacheOutcome records one statement's translation-cache outcome.
func (r *request) cacheOutcome(tier wstats.Tier) {
	r.tier = tier
	r.tiers[tier]++
}

// endCache closes a cache-lookup lap with the outcome it reached.
func (r *request) endCache(l lap, tier wstats.Tier) {
	r.end(l)
	l.sp.Set("outcome", traceCacheNames[tier])
	r.cacheOutcome(tier)
}

// publish folds the finished request into every observability sink. It runs
// exactly once per Session.Run, whatever the request's fate — a request that
// failed to parse is a request — and it is the only writer of the stage
// histograms, the request counters and the statistics registry.
func (s *Session) publish(reqErr error) {
	g, r := s.g, &s.req
	outcome, code, class, msg := "ok", 0, "", ""
	if reqErr != nil {
		outcome, msg = "error", reqErr.Error()
		if re, ok := reqErr.(*RequestError); ok {
			code = re.Code
		}
		// A client-write deadline failure surfaces here as the raw front-write
		// error (the tdp server maps it to CodeClientTooSlow only after Run
		// returns); attribute it now so statistics see the real code.
		var fwe *frontWriteError
		if code == 0 && errors.As(reqErr, &fwe) && fwe.Timeout() {
			code = tdp.CodeClientTooSlow
		}
		class = classifyCode(code)
	}
	streamed := r.streamedResults > 0
	tr := r.tr
	var total time.Duration
	if tr != nil {
		tr.SetStreamed(streamed)
		tr.SetCache(traceCacheNames[r.tier])
		if r.fpID == "" {
			r.fpID = fingerprint.ShortID(r.hash) // a traced request always has its hash
		}
		tr.SetFingerprint(r.fpID)
		tr.Finish(outcome, code, class, msg)
		total = tr.Duration()
	} else {
		total = time.Since(r.start)
	}

	// Each stage's histogram observes the request's total time in it. These
	// and the request histogram are the one tally of request time: the
	// Figure 9 components and the request count are read off them.
	for st, ns := range r.stageNs {
		if ns != 0 {
			g.stages.Stage(metrics.Stage(st)).Observe(time.Duration(ns))
		}
	}
	g.stages.Request.Observe(total)

	cacheHits := r.tiers[wstats.TierExactHit] + r.tiers[wstats.TierFingerprintHit]
	m := &g.metrics
	atomic.AddInt64(&m.statements, r.statements)
	atomic.AddInt64(&m.cacheHits, cacheHits)
	atomic.AddInt64(&m.cacheMisses, r.tiers[wstats.TierMiss])
	atomic.AddInt64(&m.cacheBypass, r.tiers[wstats.TierBypass])
	atomic.AddInt64(&m.streamedResults, r.streamedResults)
	atomic.AddInt64(&m.streamedBytes, r.streamedBytes)
	atomic.AddInt64(&m.bufferedResults, r.bufferedResults)
	atomic.AddInt64(&m.bufferedBytes, r.bufferedBytes)

	// The /sessions row.
	atomic.AddInt64(&s.obsRequests, 1)
	atomic.AddInt64(&s.obsStatements, r.statements)
	atomic.AddInt64(&s.obsCacheHits, cacheHits)
	atomic.StoreInt64(&s.lastActive, r.start.Add(total).UnixNano())
	s.lastMu.Lock()
	s.lastErr = msg
	s.lastMu.Unlock()

	if g.wstats != nil {
		o := wstats.Obs{
			DurNs:    int64(total),
			StageNs:  r.stageNs,
			Tier:     r.tier,
			Failed:   reqErr != nil,
			ErrCode:  code,
			RowsOut:  r.rowsOut,
			BytesOut: r.streamedBytes + r.bufferedBytes,
			BytesIn:  int64(len(r.sql)),
			Streamed: streamed,
			Feats:    r.feats.Set(),
			Trace:    tr,
		}
		if tr != nil {
			o.Retries = int64(tr.CountSpans("retry"))
			o.Reconnects = int64(tr.CountSpans("reconnect"))
		}
		g.wstats.Observe(r.hash, r.sql, &o)
	}
	if tr == nil {
		return
	}
	if exec := r.stageNs[metrics.StageExecute]; total > 0 && tr.BackendRequests > 0 {
		g.stages.Overhead.Observe(max(1-float64(exec)/float64(total), 0))
	}
	g.ring.Add(tr)
	if w := g.cfg.QueryLog; w != nil {
		s.logSeq++
		// Query-log write failures must not fail the data path.
		_ = w.LogTrace(tr, s.logSeq, s.logPrev)
		s.logPrev = tr.StartedAt
	}
}
