package hyperq

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/metrics"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/faultdriver"
	"hyperq/internal/querylog"
	"hyperq/internal/trace"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/workload/customer"
	"hyperq/internal/workload/tpch"
)

// newObsGateway builds a gateway over the shared SALES schema with an
// optional query log. A positive latency delays every backend request by it:
// at the slow-query threshold, every statement lands in /traces/slow.
func newObsGateway(t *testing.T, qlog *querylog.Writer, latency time.Duration) *Gateway {
	t.Helper()
	target := dialect.CloudA()
	eng := engine.New(target)
	setup := eng.NewSession()
	for _, stmt := range []string{
		`CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, STORE INT)`,
		`INSERT INTO SALES VALUES
		   (100.00, DATE '2014-02-01', 1),
		   (250.00, DATE '2014-03-15', 1),
		   (80.00,  DATE '2013-12-31', 2)`,
	} {
		if _, err := setup.ExecSQL(stmt); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	var drv odbc.Driver = &odbc.LocalDriver{Engine: eng}
	if latency > 0 {
		fd := faultdriver.New(drv)
		fd.SetLatency(latency)
		drv = fd
	}
	g, err := New(Config{
		Target:   target,
		Driver:   drv,
		Catalog:  eng.Catalog().Clone(),
		QueryLog: qlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// metricValue extracts the value of one series line from Prometheus text.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
		if err != nil {
			t.Fatalf("bad metric line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %q not found in:\n%s", series, body)
	return 0
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, b)
	}
	return string(b)
}

// TestObservabilityEndToEnd is the acceptance scenario: statements arrive
// through the tdp wire client, /metrics serves non-zero per-stage latency
// histograms in Prometheus text format, /traces/slow returns the full span
// tree for statements slower than the threshold, /sessions shows the live
// session, and the query log captures one JSON line per request.
func TestObservabilityEndToEnd(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "query.log")
	qlog, err := querylog.Open(logPath, querylog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer qlog.Close()
	g := newObsGateway(t, qlog, trace.NewRing().SlowThreshold())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = tdp.Serve(ln, g) }()
	c, err := tdp.Dial(ln.Addr().String(), "appuser", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const frontSQL = "SEL AMOUNT FROM SALES WHERE STORE = 1"
	if _, err := c.Request(frontSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(frontSQL); err != nil { // second run: cache hit
		t.Fatal(err)
	}

	srv := httptest.NewServer(g.DebugHandler())
	defer srv.Close()

	// /metrics: every pipeline stage must have recorded observations.
	body := httpGet(t, srv.URL+"/metrics")
	if !strings.Contains(body, "# TYPE hyperq_stage_duration_seconds histogram") {
		t.Fatalf("missing histogram TYPE header in:\n%s", body)
	}
	for _, stage := range []string{"parse", "bind", "transform", "serialize", "cache", "execute", "convert"} {
		series := `hyperq_stage_duration_seconds_count{stage="` + stage + `"}`
		if n := metricValue(t, body, series); n == 0 {
			t.Errorf("stage %q has zero observations", stage)
		}
	}
	if n := metricValue(t, body, "hyperq_request_duration_seconds_count"); n < 2 {
		t.Errorf("request histogram count = %v, want >= 2", n)
	}
	if n := metricValue(t, body, "hyperq_gateway_overhead_ratio_count"); n < 2 {
		t.Errorf("overhead histogram count = %v, want >= 2", n)
	}
	if n := metricValue(t, body, "hyperq_requests_total"); n < 2 {
		t.Errorf("requests_total = %v, want >= 2", n)
	}
	if n := metricValue(t, body, "hyperq_cache_hits_total"); n != 1 {
		t.Errorf("cache_hits_total = %v, want 1", n)
	}
	if n := metricValue(t, body, "hyperq_sessions_active"); n != 1 {
		t.Errorf("sessions_active = %v, want 1", n)
	}
	// The runtime's own gauges: the process has goroutines; the collector may
	// not have run yet, so what it reports only has to be there.
	if n := metricValue(t, body, "hyperq_go_goroutines"); n <= 0 {
		t.Errorf("hyperq_go_goroutines = %v, want > 0", n)
	}
	metricValue(t, body, "hyperq_go_heap_live_bytes")
	metricValue(t, body, "hyperq_go_gc_cycles_total")
	if f := metricValue(t, body, "hyperq_go_gc_cpu_fraction"); f < 0 || f > 1 {
		t.Errorf("hyperq_go_gc_cpu_fraction = %v, want a share", f)
	}
	// pprof rides on the same mux: the index lists the profiles, a named one
	// is served through it.
	if !strings.Contains(httpGet(t, srv.URL+"/debug/pprof/"), "goroutine") ||
		!strings.Contains(httpGet(t, srv.URL+"/debug/pprof/goroutine?debug=1"), "goroutine profile:") {
		t.Error("/debug/pprof/ does not serve the goroutine profile")
	}

	// /traces/slow: backend latency at the threshold makes every statement
	// slow, so the list holds each with its full span tree and the rewritten
	// SQL-B text.
	var slow struct {
		ThresholdMS int64          `json:"slow_threshold_ms"`
		Traces      []*trace.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/traces/slow")), &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Traces) < 2 || slow.ThresholdMS != 200 {
		t.Fatalf("slow traces = %d over %d ms, want >= 2 over 200 ms", len(slow.Traces), slow.ThresholdMS)
	}
	// Both ran the same SQL at the same injected latency, so which one is
	// slower is the scheduler's call: take the miss, the run that parsed.
	var tr *trace.Trace
	for _, st := range slow.Traces {
		if st.Cache == "miss" {
			tr = st
		}
	}
	if tr == nil {
		t.Fatalf("no slow trace of the first (uncached) run among %d", len(slow.Traces))
	}
	if tr.SQL != frontSQL {
		t.Errorf("trace SQL = %q, want %q", tr.SQL, frontSQL)
	}
	if tr.Outcome != "ok" || tr.DurNs <= 0 {
		t.Errorf("trace outcome/duration wrong: %q %d", tr.Outcome, tr.DurNs)
	}
	if len(tr.Translated) != 1 || tr.Translated[0] == "" {
		t.Errorf("translated SQL missing: %v", tr.Translated)
	}
	if tr.Root == nil || tr.Root.Name != "request" {
		t.Fatalf("span tree root wrong: %+v", tr.Root)
	}
	for _, name := range []string{"parse", "execute", "convert"} {
		if tr.FindSpan(name) == nil {
			t.Errorf("span %q missing from trace tree", name)
		}
	}
	if sp := tr.FindSpan("execute"); sp != nil && sp.DurNs <= 0 {
		t.Error("execute span has no duration")
	}

	// /traces mirrors the ring, newest first.
	var recent struct {
		Traces []*trace.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/traces")), &recent); err != nil {
		t.Fatal(err)
	}
	if len(recent.Traces) < 2 || recent.Traces[0].SQL != frontSQL {
		t.Fatalf("recent traces wrong: %d", len(recent.Traces))
	}
	// The repeated request short-circuits on the raw result cache.
	if recent.Traces[0].Cache != "raw-hit" {
		t.Errorf("newest trace cache = %q, want raw-hit", recent.Traces[0].Cache)
	}

	// /sessions: the live wire session with its counters.
	var sess struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/sessions")), &sess); err != nil {
		t.Fatal(err)
	}
	if len(sess.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sess.Sessions))
	}
	si := sess.Sessions[0]
	if si.User != "appuser" || si.Requests != 2 || si.Statements != 2 || si.CacheHits != 1 {
		t.Errorf("session info wrong: %+v", si)
	}
	if si.LastSQL != frontSQL {
		t.Errorf("session LastSQL = %q", si.LastSQL)
	}

	// Query log: one JSON line per request, with stage timings.
	qf, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	var entries []querylog.Entry
	lsc := bufio.NewScanner(qf)
	for lsc.Scan() {
		var e querylog.Entry
		if err := json.Unmarshal(lsc.Bytes(), &e); err != nil {
			t.Fatalf("bad query-log line: %v", err)
		}
		entries = append(entries, e)
	}
	if len(entries) != 2 {
		t.Fatalf("query log lines = %d, want 2", len(entries))
	}
	if entries[0].SQL != frontSQL || entries[0].Outcome != "ok" {
		t.Errorf("query log entry wrong: %+v", entries[0])
	}
	if entries[0].StageNs["execute"] <= 0 {
		t.Errorf("query log stage timings missing: %v", entries[0].StageNs)
	}
	if entries[1].Cache != "raw-hit" {
		t.Errorf("second entry cache = %q, want raw-hit", entries[1].Cache)
	}
}

// TestFigure9ViewsAgree pins the single tally of request time: the Figure 9
// components MetricsSnapshot reports are the exact sums of the stage
// histograms /metrics renders — translation over parse through cache — and
// the request counter is the request histogram's count.
func TestFigure9ViewsAgree(t *testing.T) {
	target := dialect.CloudA()
	eng := engine.New(target)
	be := eng.NewSession()
	if err := tpch.SetupEngine(be, 0.001); err != nil {
		t.Fatal(err)
	}
	for _, ddl := range customer.SchemaDDL {
		if _, err := be.ExecSQL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	g, err := New(Config{Target: target, Driver: &odbc.LocalDriver{Engine: eng}, Catalog: eng.Catalog().Clone()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("app")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	requests := slices.Clone(customer.GatewaySetup)
	for _, qn := range tpch.QueryNumbers() {
		requests = append(requests, tpch.Queries[qn])
	}
	spec := customer.Workload1()
	spec.Distinct, spec.Total = 50, 50
	for _, q := range customer.Generate(spec) {
		requests = append(requests, q.SQL)
	}
	for _, sql := range requests {
		_, _ = s.Run(sql) // a failed request is still a request
	}

	srv := httptest.NewServer(g.DebugHandler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	m := g.MetricsSnapshot()
	stageNs := func(stages ...string) (ns int64) {
		for _, st := range stages {
			ns += int64(math.Round(1e9 * metricValue(t, body, `hyperq_stage_duration_seconds_sum{stage="`+st+`"}`)))
		}
		return ns
	}
	for _, c := range []struct {
		name string
		got  int64
		want time.Duration
	}{
		{"translate", stageNs("parse", "bind", "transform", "serialize", "cache"), m.Translate},
		{"execute", stageNs("execute"), m.Execute},
		{"convert", stageNs("convert"), m.Convert},
	} {
		if c.want <= 0 || c.got != c.want.Nanoseconds() {
			t.Errorf("%s: /metrics stage sums %d ns, MetricsSnapshot %d ns", c.name, c.got, c.want.Nanoseconds())
		}
	}
	total := metricValue(t, body, "hyperq_requests_total")
	if count := metricValue(t, body, "hyperq_request_duration_seconds_count"); total != count || total != float64(len(requests)) {
		t.Errorf("hyperq_requests_total %v, request histogram count %v, want both %d", total, count, len(requests))
	}
}

// TestTraceAcrossReconnect asserts the trace of a request that survives a
// backend session drop records the retry, reconnect, and replay work nested
// under its execute span — the fault-tolerance path of DESIGN.md §7 made
// visible to the operator.
func TestTraceAcrossReconnect(t *testing.T) {
	g, _, fd := newFaultGateway(t, nil)
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run(t, s, "CREATE VOLATILE TABLE VT (X INT) ON COMMIT PRESERVE ROWS")
	run(t, s, "INSERT INTO VT VALUES (1)")

	fd.DropActiveSessions()
	run(t, s, "SEL COUNT(*) FROM SALES")

	recent := g.Traces().Recent()
	if len(recent) == 0 {
		t.Fatal("no traces recorded")
	}
	tr := recent[0]
	if tr.Outcome != "ok" {
		t.Fatalf("trace outcome = %q, want ok", tr.Outcome)
	}
	exec := tr.FindSpan("execute")
	if exec == nil {
		t.Fatal("execute span missing")
	}
	for _, name := range []string{"retry", "reconnect", "replay"} {
		if tr.FindSpan(name) == nil {
			t.Errorf("span %q missing from reconnect trace", name)
		}
	}
	// The replay span must be nested under the reconnect span.
	rc := tr.FindSpan("reconnect")
	var replayNested bool
	for _, ch := range rc.Children {
		if ch.Name == "replay" {
			replayNested = true
		}
	}
	if !replayNested {
		t.Error("replay span not nested under reconnect")
	}
	if tr.StageNs.Get("execute") <= 0 {
		t.Errorf("execute stage time missing: %v", tr.StageNs)
	}
}

// TestEmulationFanOutTraced asserts a statement emulated as multiple backend
// requests records its fan-out: BackendRequests > 1, all rewritten texts kept,
// and an "emulate" span grouping the extra requests.
func TestEmulationFanOutTraced(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudC()) // CloudC lacks recursion
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run(t, s, `WITH RECURSIVE CHAIN (EMPNO, MGRNO, DEPTH) AS (
	  SELECT EMPNO, MGRNO, 0 FROM EMP WHERE EMPNO = 1
	  UNION ALL
	  SELECT E.EMPNO, E.MGRNO, C.DEPTH + 1 FROM EMP E JOIN CHAIN C ON E.EMPNO = C.MGRNO
	) SELECT COUNT(*) FROM CHAIN`)

	tr := g.Traces().Recent()[0]
	if tr.BackendRequests <= 1 {
		t.Fatalf("BackendRequests = %d, want > 1 (emulation fan-out)", tr.BackendRequests)
	}
	if len(tr.Translated) != tr.BackendRequests {
		t.Errorf("translated texts = %d, want %d", len(tr.Translated), tr.BackendRequests)
	}
	esp := tr.FindSpan("emulate")
	if esp == nil {
		t.Fatal("emulate span missing")
	}
	var feature string
	for _, a := range esp.Attrs {
		if a.Key == "feature" {
			feature = a.Value
		}
	}
	if feature != "recursive" {
		t.Errorf("emulate feature = %q, want recursive", feature)
	}
}

// TestErrorClassRecorded asserts failed statements are classified in the trace.
func TestErrorClassRecorded(t *testing.T) {
	g := newObsGateway(t, nil, 0)
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("SELECT FROM WHERE"); err == nil {
		t.Fatal("expected syntax error")
	}
	tr := g.Traces().Recent()[0]
	if tr.Outcome != "error" || tr.ErrClass != "syntax" || tr.ErrCode != 3706 {
		t.Errorf("error trace wrong: outcome=%q class=%q code=%d", tr.Outcome, tr.ErrClass, tr.ErrCode)
	}
	if _, err := s.Run("SELECT X FROM NO_SUCH_TABLE"); err == nil {
		t.Fatal("expected semantic error")
	}
	if tr := g.Traces().Recent()[0]; tr.ErrClass != "semantic" {
		t.Errorf("semantic error class = %q", tr.ErrClass)
	}
}

// TestParseFailureCountedEverywhere asserts a request that fails to parse is
// still one request in every sink: the requests counter, the request
// histogram and the session's /sessions row must agree.
func TestParseFailureCountedEverywhere(t *testing.T) {
	g := newObsGateway(t, nil, 0)
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("SELECT FROM WHERE"); err == nil {
		t.Fatal("expected syntax error")
	}
	run(t, s, "SEL COUNT(*) FROM SALES")
	if n := g.MetricsSnapshot().Requests; n != 2 {
		t.Errorf("requests counter = %d, want 2", n)
	}
	if n := g.stages.Request.Snapshot().Count; n != 2 {
		t.Errorf("request histogram count = %d, want 2", n)
	}
	if n := g.Sessions()[0].Requests; n != 2 {
		t.Errorf("/sessions request count = %d, want 2", n)
	}
}

// TestResetMetricsClearsObservability asserts ResetMetrics also clears the
// stage histograms and the trace ring, so a benchmark phase reports only
// its own requests.
func TestResetMetricsClearsObservability(t *testing.T) {
	g := newObsGateway(t, nil, 0)
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run(t, s, "SEL COUNT(*) FROM SALES")
	if g.stages.Request.Snapshot().Count == 0 {
		t.Fatal("no request observations before reset")
	}
	if len(g.Traces().Recent()) == 0 {
		t.Fatal("no traces before reset")
	}
	g.ResetMetrics()
	if n := g.stages.Request.Snapshot().Count; n != 0 {
		t.Errorf("request histogram count after reset = %d", n)
	}
	if n := g.stages.Stage(metrics.StageParse).Snapshot().Count; n != 0 {
		t.Errorf("parse histogram count after reset = %d", n)
	}
	if n := len(g.Traces().Recent()); n != 0 {
		t.Errorf("trace ring size after reset = %d", n)
	}
	if m := g.MetricsSnapshot(); m.Requests != 0 {
		t.Errorf("requests counter after reset = %d", m.Requests)
	}
}

// TestTracingDisabled asserts DisableTracing suppresses span traces while the
// stage histograms keep recording.
func TestTracingDisabled(t *testing.T) {
	target := dialect.CloudA()
	eng := engine.New(target)
	setup := eng.NewSession()
	if _, err := setup.ExecSQL(`CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, STORE INT)`); err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Target:         target,
		Driver:         &odbc.LocalDriver{Engine: eng},
		Catalog:        eng.Catalog().Clone(),
		DisableTracing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run(t, s, "SEL COUNT(*) FROM SALES")
	if n := len(g.Traces().Recent()); n != 0 {
		t.Errorf("traces recorded with tracing disabled: %d", n)
	}
	if g.stages.Stage(metrics.StageParse).Snapshot().Count == 0 {
		t.Error("histograms must keep recording with tracing disabled")
	}
	if g.stages.Request.Snapshot().Count == 0 {
		t.Error("request histogram must keep recording with tracing disabled")
	}
}

// SlowThreshold sanity: the 200 ms threshold keeps a fast statement out of
// the slow list while the recent ring still records it.
func TestSlowThresholdFilters(t *testing.T) {
	target := dialect.CloudA()
	eng := engine.New(target)
	setup := eng.NewSession()
	if _, err := setup.ExecSQL(`CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, STORE INT)`); err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Target:  target,
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run(t, s, "SEL COUNT(*) FROM SALES")
	if n := len(g.Traces().Slow()); n != 0 {
		t.Errorf("fast statement retained as slow: %d", n)
	}
	if n := len(g.Traces().Recent()); n != 1 {
		t.Errorf("recent ring size = %d, want 1", n)
	}
}
