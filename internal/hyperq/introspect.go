package hyperq

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	runtimemetrics "runtime/metrics"
	"strconv"

	"hyperq/internal/metrics"
)

// DebugHandler serves the gateway introspection endpoints (the Gateway
// Manager's operator surface, §4):
//
//	/metrics      Prometheus text format: per-stage latency histograms,
//	              whole-request latency, gateway-overhead ratio, the
//	              cumulative counters of MetricsSnapshot, the Go runtime's
//	              heap, GC and goroutine gauges, and the top-N
//	              per-fingerprint statement series (stable fp label,
//	              cardinality-bounded)
//	/traces       recent finished traces (JSON, newest first); ?id= fetches
//	              one retained trace (pinned exemplars included)
//	/traces/slow  the slowest retained traces at/above the slow threshold
//	/sessions     live session table (user, statements, cache hits, state,
//	              current fingerprint, mid-stream flag)
//	/statements   per-fingerprint workload statistics (404 when disabled);
//	              ?sort=calls|total|p99|bytes, ?limit=N,
//	              ?view=features for the live Figure 8 breakdown
//	/pool         backend connection pool state (404 when no pool is
//	              configured): gauges, counters, wait-time distribution
//	/debug/pprof/ the net/http/pprof profiles of the gateway process (CPU,
//	              heap, allocs, goroutine, block, mutex, trace)
//
// Mount it on a loopback or otherwise access-controlled listener: traces,
// the session table, and statement templates contain SQL text (statement
// templates are literal-redacted, but identifiers still name real objects).
func (g *Gateway) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", g.serveMetrics)
	mux.HandleFunc("/traces", g.serveTraces)
	mux.HandleFunc("/traces/slow", g.serveSlowTraces)
	mux.HandleFunc("/sessions", g.serveSessions)
	mux.HandleFunc("/statements", g.serveStatements)
	mux.HandleFunc("/pool", g.servePool)
	// pprof.Index serves every named profile under its prefix; the four below
	// are handlers of their own.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeRuntimeMetrics renders what the Go runtime says the process is doing
// with its memory and its CPU: how much heap the last collection found live,
// how many collections there have been, how many goroutines exist, and what
// share of the CPU time the process consumed since it started went to the
// collector.
func writeRuntimeMetrics(w io.Writer) {
	// A runtime without the metric reports KindBad; it renders as zero.
	read := func(name string) float64 {
		s := []runtimemetrics.Sample{{Name: name}}
		runtimemetrics.Read(s)
		switch s[0].Value.Kind() {
		case runtimemetrics.KindUint64:
			return float64(s[0].Value.Uint64())
		case runtimemetrics.KindFloat64:
			return s[0].Value.Float64()
		}
		return 0
	}
	metrics.WriteCounter(w, "hyperq_go_heap_live_bytes", "Heap bytes the last garbage collection found live.", "gauge", int64(read("/gc/heap/live:bytes")))
	metrics.WriteCounter(w, "hyperq_go_gc_cycles_total", "Completed garbage collection cycles.", "counter", int64(read("/gc/cycles/total:gc-cycles")))
	metrics.WriteCounter(w, "hyperq_go_goroutines", "Live goroutines.", "gauge", int64(read("/sched/goroutines:goroutines")))
	fraction := 0.0
	if busy := read("/cpu/classes/total:cpu-seconds") - read("/cpu/classes/idle:cpu-seconds"); busy > 0 {
		fraction = read("/cpu/classes/gc/total:cpu-seconds") / busy
	}
	const name = "hyperq_go_gc_cpu_fraction"
	metrics.WriteHeader(w, name, "Share of the CPU time the process has consumed that went to the garbage collector (runtime estimate, since start).", "gauge")
	metrics.WriteLabeledValue(w, name, "", "", fraction)
}

func (g *Gateway) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// All stage series share one HELP/TYPE header, per the format.
	for stage := metrics.Stage(0); stage < metrics.NumStages; stage++ {
		help := ""
		if stage == 0 {
			help = "Gateway pipeline stage latency."
		}
		metrics.WriteHistogram(w, "hyperq_stage_duration_seconds", help, "stage", stage.String(), g.stages.Stage(stage).Snapshot().Histogram())
	}
	metrics.WriteHistogram(w, "hyperq_request_duration_seconds", "Whole-request latency through the gateway.", "", "", g.stages.Request.Snapshot().Histogram())
	metrics.WriteHistogram(w, "hyperq_gateway_overhead_ratio", "Per-request fraction of time spent in the gateway (1 - backend/total).", "", "", g.stages.Overhead.Snapshot())

	m := g.MetricsSnapshot()
	counters := []struct {
		name, help string
		value      int64
	}{
		{"hyperq_requests_total", "Frontend requests processed.", m.Requests},
		{"hyperq_statements_total", "Statements executed.", m.Statements},
		{"hyperq_cache_hits_total", "Translation cache hits.", m.CacheHits},
		{"hyperq_cache_misses_total", "Translation cache misses.", m.CacheMisses},
		{"hyperq_cache_bypass_total", "Translation cache bypasses.", m.CacheBypass},
		{"hyperq_cache_evictions_total", "Translation cache evictions.", m.CacheEvict},
		{"hyperq_backend_retries_total", "Transparent backend retries.", m.Retries},
		{"hyperq_backend_reconnects_total", "Replacement backend sessions.", m.Reconnects},
		{"hyperq_backend_replays_total", "Session-state replays.", m.Replays},
		{"hyperq_breaker_open_total", "Circuit-breaker open transitions.", m.BreakerOpen},
		{"hyperq_replicas_quarantined_total", "Replicas quarantined from reads.", m.ReplicaQuarantined},
		{"hyperq_results_streamed_total", "Result sets delivered through the streaming pipeline.", m.StreamedResults},
		{"hyperq_results_buffered_total", "Result sets materialized by the collecting sink.", m.BufferedResults},
		{"hyperq_result_streamed_bytes_total", "Result payload bytes delivered through the streaming pipeline.", m.StreamedBytes},
		{"hyperq_result_buffered_bytes_total", "Result payload bytes materialized by the collecting sink.", m.BufferedBytes},
		{"hyperq_clients_evicted_total", "Sessions evicted for stalling past the client write deadline.", m.ClientsEvicted},
		{"hyperq_midstream_failures_total", "Requests failed after rows had already reached the client.", m.MidstreamFailures},
		{"hyperq_results_shed_total", "Requests shed at the gateway result-memory cap.", m.ResultShed},
	}
	for _, c := range counters {
		metrics.WriteCounter(w, c.name, c.help, "counter", c.value)
	}
	g.sessMu.Lock()
	active := int64(len(g.sessions))
	g.sessMu.Unlock()
	metrics.WriteCounter(w, "hyperq_sessions_active", "Live frontend sessions.", "gauge", active)
	metrics.WriteCounter(w, "hyperq_result_inflight_bytes", "Result bytes fetched from the backend and not yet delivered to clients.", "gauge", m.ResultInflightBytes)
	metrics.WriteCounter(w, "hyperq_result_inflight_peak_bytes", "High-water mark of in-flight result bytes.", "gauge", m.ResultPeakBytes)

	writeRuntimeMetrics(w)
	g.writeStatementMetrics(w)

	if ps, ok := g.PoolStats(); ok {
		gauges := []struct {
			name, help string
			value      int64
		}{
			{"hyperq_pool_size", "Backend connection pool capacity.", int64(ps.Size)},
			{"hyperq_pool_in_use", "Pool connections currently leased.", int64(ps.InUse)},
			{"hyperq_pool_idle", "Pool connections parked idle.", int64(ps.Idle)},
			{"hyperq_pool_pinned", "Pool connections pinned to a session.", int64(ps.Pinned)},
			{"hyperq_pool_waiters", "Sessions queued for a pool connection.", int64(ps.Waiters)},
		}
		for _, gv := range gauges {
			metrics.WriteCounter(w, gv.name, gv.help, "gauge", gv.value)
		}
		poolCounters := []struct {
			name, help string
			value      int64
		}{
			{"hyperq_pool_acquires_total", "Pool connection acquires.", ps.Acquires},
			{"hyperq_pool_waits_total", "Acquires that queued for a connection.", ps.Waits},
			{"hyperq_pool_timeouts_total", "Acquires that timed out waiting.", ps.Timeouts},
			{"hyperq_pool_rejected_total", "Acquires rejected by the max-waiters cap.", ps.Rejected},
			{"hyperq_pool_shed_total", "Waiters shed on a circuit-breaker-open backend.", ps.Shed},
			{"hyperq_pool_dials_total", "Backend connections dialed.", ps.Dials},
			{"hyperq_pool_dial_errors_total", "Backend dial failures.", ps.DialErrors},
			{"hyperq_pool_discarded_total", "Broken connections discarded.", ps.Discarded},
			{"hyperq_pool_pins_total", "Session pins.", ps.Pins},
			{"hyperq_pool_unpins_total", "Session unpins.", ps.Unpins},
		}
		for _, c := range poolCounters {
			metrics.WriteCounter(w, c.name, c.help, "counter", c.value)
		}
		metrics.WriteHistogram(w, "hyperq_pool_wait_seconds", "Time sessions spent waiting for a pool connection.", "", "", ps.WaitSeconds)
	}
}

// promStatementTopN bounds the per-fingerprint series count on /metrics:
// only the top N shapes by calls are exposed, so scrape cardinality stays
// fixed no matter how large the registry bound is. The fp label is the
// stable statement-shape id (a hash of the redacted template), so series
// identity survives restarts and gateway failovers.
const promStatementTopN = 20

// writeStatementMetrics renders the bounded-cardinality per-fingerprint
// families and the SLO burn counters.
func (g *Gateway) writeStatementMetrics(w io.Writer) {
	if g.wstats == nil {
		return
	}
	sum := g.wstats.Snapshot("calls", promStatementTopN)
	metrics.WriteCounter(w, "hyperq_statement_shapes", "Statement shapes tracked by the workload registry.", "gauge", int64(sum.Entries))
	metrics.WriteCounter(w, "hyperq_statement_observed_total", "Requests recorded by the workload registry (evicted shapes included).", "counter", sum.Observed)
	metrics.WriteHeader(w, "hyperq_statement_calls_total", "Calls per statement fingerprint (top shapes by calls).", "counter")
	for i := range sum.Statements {
		metrics.WriteLabeledValue(w, "hyperq_statement_calls_total", "fp", sum.Statements[i].Fingerprint, float64(sum.Statements[i].Calls))
	}
	metrics.WriteHeader(w, "hyperq_statement_errors_total", "Errors per statement fingerprint.", "counter")
	for i := range sum.Statements {
		if sum.Statements[i].Errors != 0 {
			metrics.WriteLabeledValue(w, "hyperq_statement_errors_total", "fp", sum.Statements[i].Fingerprint, float64(sum.Statements[i].Errors))
		}
	}
	metrics.WriteHeader(w, "hyperq_statement_seconds_total", "Total request time per statement fingerprint.", "counter")
	for i := range sum.Statements {
		metrics.WriteLabeledValue(w, "hyperq_statement_seconds_total", "fp", sum.Statements[i].Fingerprint, float64(sum.Statements[i].TotalNs)/1e9)
	}
	metrics.WriteHeader(w, "hyperq_statement_bytes_out_total", "Result payload bytes per statement fingerprint.", "counter")
	for i := range sum.Statements {
		metrics.WriteLabeledValue(w, "hyperq_statement_bytes_out_total", "fp", sum.Statements[i].Fingerprint, float64(sum.Statements[i].BytesOut))
	}
	if slo := sum.SLO; slo != nil {
		metrics.WriteCounter(w, "hyperq_slo_calls_total", "Requests measured against the latency SLO.", "counter", slo.Calls)
		metrics.WriteCounter(w, "hyperq_slo_breaches_total", "Requests slower than the latency SLO.", "counter", slo.Breaches)
		metrics.WriteHeader(w, "hyperq_statement_slo_breaches_total", "SLO breaches per statement fingerprint.", "counter")
		for i := range sum.Statements {
			if sum.Statements[i].SLOBreaches != 0 {
				metrics.WriteLabeledValue(w, "hyperq_statement_slo_breaches_total", "fp", sum.Statements[i].Fingerprint, float64(sum.Statements[i].SLOBreaches))
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (g *Gateway) serveTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		t := g.ring.Get(id)
		if t == nil {
			http.Error(w, "trace not retained", http.StatusNotFound)
			return
		}
		writeJSON(w, t)
		return
	}
	writeJSON(w, map[string]any{"traces": g.ring.Recent()})
}

// serveStatements is the /statements endpoint: the per-fingerprint workload
// registry as sortable JSON, or the Figure 8 feature breakdown with
// ?view=features.
func (g *Gateway) serveStatements(w http.ResponseWriter, r *http.Request) {
	if g.wstats == nil {
		http.Error(w, "statement statistics disabled", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	if q.Get("view") == "features" {
		writeJSON(w, g.wstats.Features())
		return
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			limit = n
		}
	}
	writeJSON(w, g.wstats.Snapshot(q.Get("sort"), limit))
}

func (g *Gateway) serveSlowTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"slow_threshold_ms": g.ring.SlowThreshold().Milliseconds(),
		"traces":            g.ring.Slow(),
	})
}

func (g *Gateway) serveSessions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"sessions": g.Sessions()})
}

func (g *Gateway) servePool(w http.ResponseWriter, _ *http.Request) {
	ps, ok := g.PoolStats()
	if !ok {
		http.Error(w, "no backend connection pool configured", http.StatusNotFound)
		return
	}
	writeJSON(w, ps)
}
