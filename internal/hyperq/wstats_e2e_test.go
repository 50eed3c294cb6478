package hyperq

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/trace"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/workload/customer"
	"hyperq/internal/wstats"
)

// newCustomerStack builds a full wire stack over the customer schema and runs
// the gateway-side setup (views, macros) through the wire, returning the
// stack, a connected client, and the number of requests already issued.
func newCustomerStack(t *testing.T, cfg Config) (*streamStack, *tdp.Client, int) {
	t.Helper()
	target := dialect.CloudA()
	eng := engine.New(target)
	be := eng.NewSession()
	for _, ddl := range customer.SchemaDDL {
		if _, err := be.ExecSQL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	st := newStreamStack(t, target, eng, cfg, tdp.Options{})
	c, err := tdp.Dial(st.addr, "appuser", "pw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sent := 0
	for _, sql := range customer.GatewaySetup {
		if _, err := c.Request(sql); err != nil {
			t.Fatalf("setup %q: %v", sql, err)
		}
		sent++
	}
	return st, c, sent
}

// replayWorkloads sends a scaled-down replay of both customer workloads,
// each distinct query twice (the second is an exact-cache candidate), and
// returns the number of requests issued.
func replayWorkloads(t *testing.T, c *tdp.Client) int {
	t.Helper()
	sent := 0
	for _, spec := range []customer.Spec{customer.Workload1(), customer.Workload2()} {
		spec.Distinct = 60
		spec.Total = spec.Distinct
		for _, q := range customer.Generate(spec) {
			for rep := 0; rep < 2; rep++ {
				// Workload errors (if any) still count as observations.
				_, _ = c.Request(q.SQL)
				sent++
			}
		}
	}
	return sent
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	if err := json.Unmarshal([]byte(httpGet(t, url)), into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestStatementStatisticsEndToEnd is the tentpole acceptance scenario: after
// replaying both customer workloads through the full wire stack, /statements
// reports correct per-fingerprint data — exact call totals, cache-tier and
// stage breakdowns, SLO burn — and ?view=features counts every request.
func TestStatementStatisticsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two customer workloads")
	}
	// A 1ns SLO makes every request a breach, so the burn math is checkable
	// exactly against the 0.99 objective's budget of one hundredth.
	st, c, sent := newCustomerStack(t, Config{SLO: 1})
	sent += replayWorkloads(t, c)

	srv := httptest.NewServer(st.g.DebugHandler())
	defer srv.Close()

	var sum wstats.Summary
	getJSON(t, srv.URL+"/statements", &sum)
	if sum.Observed != int64(sent) {
		t.Fatalf("observed = %d, want %d requests", sum.Observed, sent)
	}
	if sum.Entries != len(sum.Statements) || sum.Entries == 0 {
		t.Fatalf("entries = %d, statements = %d", sum.Entries, len(sum.Statements))
	}
	if sum.Other != nil {
		t.Fatalf("default bound must hold the whole scaled workload, got _other: %+v", sum.Other)
	}
	if sum.SortedBy != "calls" {
		t.Errorf("sortedBy = %q, want calls", sum.SortedBy)
	}
	var calls, exactHits, misses, bypasses int64
	for i, s := range sum.Statements {
		calls += s.Calls
		if len(s.Fingerprint) != 16 {
			t.Errorf("fingerprint %q not 16 hex chars", s.Fingerprint)
		}
		if s.Template == "" {
			t.Errorf("statement %s has no template", s.Fingerprint)
		}
		if i > 0 && s.Calls > sum.Statements[i-1].Calls {
			t.Errorf("statements not sorted by calls: %d after %d", s.Calls, sum.Statements[i-1].Calls)
		}
		var tiers int64
		for _, n := range s.CacheTiers {
			tiers += n
		}
		if tiers != s.Calls {
			t.Errorf("statement %s: tier counts sum %d != calls %d", s.Fingerprint, tiers, s.Calls)
		}
		exactHits += s.CacheTiers["exact-hit"]
		misses += s.CacheTiers["miss"]
		bypasses += s.CacheTiers["bypass"]
		if s.TotalNs <= 0 || s.P99Ns < s.P50Ns {
			t.Errorf("statement %s: totalNs=%d p50=%d p99=%d", s.Fingerprint, s.TotalNs, s.P50Ns, s.P99Ns)
		}
		// 1ns SLO: every call of every shape breaches and violates.
		if s.SLOBreaches != s.Calls || !s.Violating {
			t.Errorf("statement %s: sloBreaches=%d calls=%d violating=%v", s.Fingerprint, s.SLOBreaches, s.Calls, s.Violating)
		}
	}
	if calls != int64(sent) {
		t.Fatalf("sum of per-shape calls = %d, want %d (exactness invariant)", calls, sent)
	}
	// Each distinct query ran twice: the replays must hit the exact tier, the
	// first runs miss, and the macro-heavy Workload 2 bypasses.
	if exactHits == 0 || misses == 0 || bypasses == 0 {
		t.Errorf("cache tiers not exercised: exact=%d miss=%d bypass=%d", exactHits, misses, bypasses)
	}
	if sum.SLO == nil {
		t.Fatal("SLO summary missing")
	}
	if sum.SLO.Calls != int64(sent) || sum.SLO.Breaches != int64(sent) {
		t.Errorf("slo calls/breaches = %d/%d, want %d/%d", sum.SLO.Calls, sum.SLO.Breaches, sent, sent)
	}
	// Breach ratio 1.0 against a 0.01 budget: burn rate 100.
	if sum.SLO.Objective != 0.99 || sum.SLO.BurnRate < 99.99 || sum.SLO.BurnRate > 100.01 {
		t.Errorf("objective %v, burn rate = %f, want 0.99 and 100", sum.SLO.Objective, sum.SLO.BurnRate)
	}
	if len(sum.SLO.Violating) != sum.Entries {
		t.Errorf("violating shapes = %d, want all %d", len(sum.SLO.Violating), sum.Entries)
	}

	// ?sort=total&limit=5 truncates but keeps the full entry count.
	var top wstats.Summary
	getJSON(t, srv.URL+"/statements?sort=total&limit=5", &top)
	if len(top.Statements) != 5 || top.Entries != sum.Entries || top.Truncated != sum.Entries-5 {
		t.Errorf("limit view: statements=%d entries=%d truncated=%d", len(top.Statements), top.Entries, top.Truncated)
	}
	if top.SortedBy != "total" {
		t.Errorf("sortedBy = %q, want total", top.SortedBy)
	}

	// ?view=features is the live Figure 8 over every request.
	var fv wstats.FeatureView
	getJSON(t, srv.URL+"/statements?view=features", &fv)
	if fv.Queries != int64(sent) {
		t.Fatalf("feature view queries = %d, want %d", fv.Queries, sent)
	}
	if fv.Approximate {
		t.Fatal("no evictions occurred; feature view must be exact")
	}

	// Prometheus exposition: bounded per-fingerprint families plus the
	// registry-wide and SLO counters.
	body := httpGet(t, srv.URL+"/metrics")
	if n := metricValue(t, body, "hyperq_statement_observed_total"); n != float64(sent) {
		t.Errorf("hyperq_statement_observed_total = %v, want %d", n, sent)
	}
	if n := metricValue(t, body, "hyperq_statement_shapes"); n != float64(sum.Entries) {
		t.Errorf("hyperq_statement_shapes = %v, want %d", n, sum.Entries)
	}
	if !strings.Contains(body, `hyperq_statement_calls_total{fp="`) {
		t.Error("per-fingerprint calls family missing from /metrics")
	}
	if n := metricValue(t, body, "hyperq_slo_breaches_total"); n != float64(sent) {
		t.Errorf("hyperq_slo_breaches_total = %v, want %d", n, sent)
	}
	if n := metricValue(t, body, "hyperq_result_buffered_bytes_total"); n <= 0 {
		t.Errorf("hyperq_result_buffered_bytes_total = %v, want > 0", n)
	}

	// /sessions: the live session row carries its current fingerprint.
	var sess struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	getJSON(t, srv.URL+"/sessions", &sess)
	if len(sess.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sess.Sessions))
	}
	if fp := sess.Sessions[0].Fingerprint; len(fp) != 16 {
		t.Errorf("session fingerprint = %q, want 16 hex chars", fp)
	}
	if sess.Sessions[0].Streaming {
		t.Error("idle session reported mid-stream")
	}

	// ResetMetrics clears the registry, the SLO counters, and the byte
	// counters alongside the rest of the observability state.
	st.g.ResetMetrics()
	var after wstats.Summary
	getJSON(t, srv.URL+"/statements", &after)
	if after.Observed != 0 || after.Entries != 0 || after.Other != nil {
		t.Errorf("reset left observed=%d entries=%d other=%v", after.Observed, after.Entries, after.Other)
	}
	if m := st.g.MetricsSnapshot(); m.BufferedBytes != 0 || m.StreamedBytes != 0 {
		t.Errorf("reset left buffered=%d streamed=%d bytes", m.BufferedBytes, m.StreamedBytes)
	}
	if n := st.g.Traces().PinnedCount(); n != 0 {
		t.Errorf("reset left %d pinned exemplars", n)
	}
}

// TestStatementCardinalityBoundedEndToEnd replays a workload with more shapes
// than the registry's bound and asserts the registry never exceeds it while
// the _other bucket keeps registry-wide totals exact.
func TestStatementCardinalityBoundedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a customer workload")
	}
	st, c, sent := newCustomerStack(t, Config{})
	maxShapes := st.g.Statements().MaxEntries()
	spec := customer.Workload1()
	spec.Distinct = 60
	spec.Total = spec.Distinct
	for _, q := range customer.Generate(spec) {
		_, _ = c.Request(q.SQL)
		sent++
	}
	// Each alias is a shape of its own: past the bound, shapes must fold.
	for i := 0; i <= maxShapes; i++ {
		if _, err := c.Request(fmt.Sprintf("SEL 1 AS C%d", i)); err != nil {
			t.Fatal(err)
		}
		sent++
	}

	srv := httptest.NewServer(st.g.DebugHandler())
	defer srv.Close()
	var sum wstats.Summary
	getJSON(t, srv.URL+"/statements", &sum)
	if sum.MaxEntries != 1024 {
		t.Fatalf("maxEntries = %d, want 1024", sum.MaxEntries)
	}
	if sum.Entries > maxShapes {
		t.Fatalf("entries = %d, exceeds bound %d", sum.Entries, maxShapes)
	}
	if sum.Other == nil {
		t.Fatal("evictions must fold into _other")
	}
	var calls int64
	for _, s := range sum.Statements {
		calls += s.Calls
	}
	if got := calls + sum.Other.Calls; got != int64(sent) || sum.Observed != int64(sent) {
		t.Fatalf("tracked %d + other %d = %d, observed %d, want %d — observations lost",
			calls, sum.Other.Calls, got, sum.Observed, sent)
	}
	// The feature view flags itself approximate once shapes have been folded.
	var fv wstats.FeatureView
	getJSON(t, srv.URL+"/statements?view=features", &fv)
	if !fv.Approximate {
		t.Error("feature view not flagged approximate despite evictions")
	}
}

// TestStatementExemplarSurvivesRingChurn pins the /statements → /traces join:
// a shape's exemplar trace stays resolvable via /traces?id= even after the
// recent ring has churned past it, and streamed results are attributed to
// their shape's statistics.
func TestStatementExemplarSurvivesRingChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a large result")
	}
	target := dialect.CloudA()
	eng := bigTableEngine(t, target, 20) // 8000 rows ≈ 2.4 MiB
	st := newStreamStack(t, target, eng, Config{}, tdp.Options{})
	c, err := tdp.Dial(st.addr, "appuser", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const bigSQL = "SEL * FROM BIG"
	if _, err := c.Request(bigSQL); err != nil {
		t.Fatal(err)
	}
	// Distinct shapes churn the BIG request out of the recent ring.
	for i := 0; inRing(st.g.Traces().Recent(), bigSQL); i++ {
		if _, err := c.Request(fmt.Sprintf("SEL COUNT(*) AS C%d FROM SEED", i)); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(st.g.DebugHandler())
	defer srv.Close()
	var sum wstats.Summary
	getJSON(t, srv.URL+"/statements", &sum)
	var big *wstats.Stat
	for i := range sum.Statements {
		if strings.Contains(sum.Statements[i].Template, "FROM BIG") {
			big = &sum.Statements[i]
			break
		}
	}
	if big == nil {
		t.Fatal("BIG shape not tracked")
	}
	if big.Streamed != 1 {
		t.Fatalf("BIG shape streamed = %d, want 1", big.Streamed)
	}
	if big.RowsOut != 8000 || big.BytesOut <= 0 {
		t.Errorf("streamed shape rows/bytes = %d/%d, want 8000 rows", big.RowsOut, big.BytesOut)
	}
	if big.Exemplar == "" {
		t.Fatal("streamed shape has no exemplar")
	}
	var ex trace.Trace
	getJSON(t, srv.URL+"/traces?id="+big.Exemplar, &ex)
	if ex.ID != big.Exemplar {
		t.Fatalf("exemplar trace id = %q, want %q", ex.ID, big.Exemplar)
	}
	if ex.SQL != bigSQL {
		t.Errorf("exemplar trace SQL = %q, want %q", ex.SQL, bigSQL)
	}
	if ex.Fingerprint != big.Fingerprint {
		t.Errorf("exemplar fingerprint = %q, statement %q — join key broken", ex.Fingerprint, big.Fingerprint)
	}
	if !ex.Streamed {
		t.Error("exemplar trace not marked streamed")
	}
	if m := st.g.MetricsSnapshot(); m.StreamedBytes <= 0 {
		t.Errorf("StreamedBytes = %d, want > 0", m.StreamedBytes)
	}
	if n := metricValue(t, httpGet(t, srv.URL+"/metrics"), "hyperq_result_streamed_bytes_total"); n <= 0 {
		t.Errorf("hyperq_result_streamed_bytes_total = %v, want > 0", n)
	}
	// An unknown id 404s rather than returning the whole ring.
	resp, err := srv.Client().Get(srv.URL + "/traces?id=no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown trace id status = %d, want 404", resp.StatusCode)
	}
}

// inRing reports whether a trace of sql is among the traces.
func inRing(traces []*trace.Trace, sql string) bool {
	for _, tr := range traces {
		if tr.SQL == sql {
			return true
		}
	}
	return false
}

// TestStreamedStatementStageTimes pins the streamed path's stage accounting:
// a SELECT served through a real tdp client takes the streaming pipeline,
// and its /statements entry must still carry execute and convert time, with
// the stages summing to no more than the request's wall time (the convert
// stage's share is carved out of the pipeline's execute wall-clock, never
// counted twice).
func TestStreamedStatementStageTimes(t *testing.T) {
	target := dialect.CloudA()
	eng := bigTableEngine(t, target, 10) // 1000 rows
	st := newStreamStack(t, target, eng, Config{}, tdp.Options{})
	c, err := tdp.Dial(st.addr, "appuser", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request("SEL * FROM BIG"); err != nil {
		t.Fatal(err)
	}
	// A session publishes a request before it reads the next one, so once
	// this answer is back the SELECT's statistics are in the registry.
	if _, err := c.Request("SEL COUNT(*) FROM SEED"); err != nil {
		t.Fatal(err)
	}
	var big *wstats.Stat
	sum := st.g.Statements().Snapshot("calls", 0)
	for i := range sum.Statements {
		if strings.Contains(sum.Statements[i].Template, "FROM BIG") {
			big = &sum.Statements[i]
		}
	}
	if big == nil {
		t.Fatal("BIG shape not tracked")
	}
	if big.Streamed != 1 {
		t.Fatalf("BIG shape streamed = %d, want 1 (the test must take the streaming path)", big.Streamed)
	}
	if big.StageNs["execute"] <= 0 || big.StageNs["convert"] <= 0 {
		t.Errorf("streamed statement lost its execute/convert time: %v", big.StageNs)
	}
	var stages int64
	for _, ns := range big.StageNs {
		stages += ns
	}
	if stages > big.TotalNs {
		t.Errorf("stage times sum to %d ns, more than the request's %d ns: %v", stages, big.TotalNs, big.StageNs)
	}
}
