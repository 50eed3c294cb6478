package replay

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc"
	"hyperq/internal/querylog"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/workload/customer"
)

// probeSQL is a statement with a known answer, appended to the captured
// workload so the perturbed-profile test can assert the exact statement and
// column the report cites.
const probeSQL = "SELECT txn_id, amount FROM cust_txn WHERE txn_id = 3 ORDER BY txn_id"

func customerEngine(t *testing.T, target *dialect.Profile) *engine.Engine {
	t.Helper()
	eng := engine.New(target)
	s := eng.NewSession()
	for _, ddl := range customer.SchemaDDL {
		if _, err := s.ExecSQL(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// serveCWP starts a backend wire server over eng; the returned closer stops
// it (also registered as cleanup).
func serveCWP(t *testing.T, eng *engine.Engine) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = cwp.Serve(ln, eng) }()
	return ln.Addr().String(), func() { ln.Close() }
}

// scaledWorkloads returns both customer workloads shrunk for test time.
func scaledWorkloads(n int) []customer.Spec {
	w1, w2 := customer.Workload1(), customer.Workload2()
	w1.Distinct, w1.Total = n, n
	w2.Distinct, w2.Total = n, n
	return []customer.Spec{w1, w2}
}

// captureLive boots a full wire gateway over the customer schema, provisions
// the shared objects outside the capture, then drives both customer
// workloads through separate wire sessions with the capture log attached.
// Returns the capture path and the number of captured statements.
func captureLive(t *testing.T, perWorkload int) (string, int) {
	t.Helper()
	target := dialect.CloudA()
	eng := customerEngine(t, target)
	beAddr, closeBE := serveCWP(t, eng)
	g, err := hyperq.New(hyperq.Config{
		Target:  target,
		Driver:  &odbc.NetworkDriver{Addr: beAddr, User: "gw", Password: "pw"},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	feLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { feLn.Close() })
	go func() { _ = tdp.Serve(feLn, g) }()

	// Shared objects are provisioned before the capture log attaches, so
	// the capture holds the workload only (the replay side mirrors this
	// with Runner.Prepare).
	setup, err := tdp.Dial(feLn.Addr().String(), "setup", "pw")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range customer.GatewaySetup {
		if _, err := setup.Request(sql); err != nil {
			t.Fatalf("setup %q: %v", sql, err)
		}
	}
	setup.Close()

	path := filepath.Join(t.TempDir(), "capture.log")
	w, err := querylog.Open(path, querylog.Options{Redact: true, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	g.SetQueryLog(w)
	captured := 0
	for i, spec := range scaledWorkloads(perWorkload) {
		c, err := tdp.Dial(feLn.Addr().String(), fmt.Sprintf("app%d", i+1), "pw")
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range customer.Generate(spec) {
			// Workload errors (if any) are part of the capture: the replay
			// must reproduce them.
			_, _ = c.Request(q.SQL)
			captured++
		}
		if i == 0 {
			if _, err := c.Request(probeSQL); err != nil {
				t.Fatalf("probe: %v", err)
			}
			captured++
		}
		c.Close()
	}
	g.SetQueryLog(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	closeBE()
	feLn.Close()
	return path, captured
}

// replayRunner builds a dual-backend replay stack over two fresh customer
// engines; the returned closer stops both backend servers.
func replayRunner(t *testing.T, speedup float64) (*Runner, *engine.Engine, *engine.Engine, func()) {
	t.Helper()
	target := dialect.CloudA()
	base := customerEngine(t, target)
	cand := customerEngine(t, target)
	baseAddr, closeBase := serveCWP(t, base)
	candAddr, closeCand := serveCWP(t, cand)
	r, err := NewRunner(Config{
		Target:         target,
		Baseline:       &odbc.NetworkDriver{Addr: baseAddr, User: "gw", Password: "pw"},
		Candidate:      &odbc.NetworkDriver{Addr: candAddr, User: "gw", Password: "pw"},
		BaselineName:   "cloudsrv-a",
		CandidateName:  "cloudsrv-b",
		Speedup:        speedup,
		MaxConcurrency: 8,
		Tolerance: Tolerance{
			FloatEps:          1e-9,
			TimestampTruncate: time.Millisecond,
			TrimCharPad:       true,
		},
		Catalog: base.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare("setup", customer.GatewaySetup); err != nil {
		t.Fatal(err)
	}
	return r, base, cand, func() { closeBase(); closeCand() }
}

// TestShadowReplayEndToEnd is the acceptance scenario: capture both customer
// workloads live over the wire, replay at 10x against two identical backend
// profiles (clean report), then against a perturbed candidate (the report
// pinpoints the exact statement and column) — with no goroutine leaked by
// either replay.
func TestShadowReplayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("captures and replays two customer workloads over the wire")
	}
	baseline := runtime.NumGoroutine()

	// HYPERQ_REPLAY_SOAK scales the capture (statements per workload) for
	// the check.sh soak phase; the default keeps `go test` quick.
	perWorkload := 20
	if s := os.Getenv("HYPERQ_REPLAY_SOAK"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("HYPERQ_REPLAY_SOAK=%q", s)
		}
		perWorkload = n
	}
	path, captured := captureLive(t, perWorkload)
	streams, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 2 {
		t.Fatalf("captured sessions = %d, want 2", len(streams))
	}
	total := 0
	for _, st := range streams {
		if st.Gaps != 0 {
			t.Fatalf("session %d capture has %d gaps", st.Session, st.Gaps)
		}
		for i, e := range st.Entries {
			if e.Seq != uint64(i+1) {
				t.Fatalf("session %d entry %d has seq %d", st.Session, i, e.Seq)
			}
		}
		total += len(st.Entries)
	}
	if total != captured {
		t.Fatalf("captured entries = %d, want %d", total, captured)
	}
	// Redaction scrubbed the log SQL; capture kept replayable literals.
	probe := streams[0].Entries[len(streams[0].Entries)-1]
	if probe.ReplaySQL() != probeSQL {
		t.Fatalf("probe capture SQL = %q", probe.ReplaySQL())
	}
	if !strings.Contains(probe.SQL, "?") {
		t.Fatalf("probe log SQL not redacted: %q", probe.SQL)
	}

	// Identical profiles: the report must be clean.
	clean, _, _, closeClean := replayRunner(t, 10)
	rep := clean.Replay(streams)
	if !rep.Equivalent {
		t.Fatalf("identical profiles not equivalent:\n%s", rep.Summary())
	}
	if rep.Replayed != captured || rep.Statements != captured {
		t.Fatalf("replayed %d/%d, want %d", rep.Replayed, rep.Statements, captured)
	}
	if rep.Sessions != 2 || len(rep.PerSession) != 2 {
		t.Fatalf("sessions = %d, per-session = %d", rep.Sessions, len(rep.PerSession))
	}
	if !strings.Contains(rep.Summary(), "equivalent: yes") {
		t.Fatalf("summary wrong:\n%s", rep.Summary())
	}
	closeClean()

	// Perturbed candidate: one cell drifts; the report pinpoints it.
	dirty, _, cand, closeDirty := replayRunner(t, 10)
	if _, err := cand.NewSession().ExecSQL("UPDATE cust_txn SET amount = 560.26 WHERE txn_id = 3"); err != nil {
		t.Fatal(err)
	}
	rep2 := dirty.Replay(streams)
	if rep2.Equivalent {
		t.Fatal("perturbed candidate reported equivalent")
	}
	var hit *Finding
	for i := range rep2.Findings {
		if rep2.Findings[i].SQL == probeSQL {
			hit = &rep2.Findings[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("probe statement not cited:\n%s", rep2.Summary())
	}
	d := hit.Divergence
	if d.Kind != odbc.DivCell || d.Row != 0 || d.Col != 1 || d.Replica != 1 {
		t.Fatalf("probe divergence not pinpointed to row 0 col 1 replica 1: %+v", d)
	}
	if d.Baseline != "560.25" || d.Observed != "560.26" {
		t.Fatalf("cell values wrong: %+v", d)
	}
	if hit.Fingerprint == "" || hit.Template == "" {
		t.Fatalf("finding not joined to workload stats: %+v", hit)
	}
	if !strings.Contains(rep2.Summary(), "equivalent: NO") {
		t.Fatalf("summary wrong:\n%s", rep2.Summary())
	}
	closeDirty()

	settleGoroutines(t, baseline)
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline, failing the test if it never does (a leaked replay session,
// backend connection, or server loop).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A write that lands on the baseline but not the candidate poisons the
// session: the replay stops at that statement instead of replaying the rest
// against diverged replicas and reporting each as an outcome mismatch.
func TestReplayStopsAtPoisonedSession(t *testing.T) {
	target := dialect.CloudA()
	base, cand := engine.New(target), engine.New(target)
	if _, err := base.NewSession().ExecSQL("CREATE TABLE only_base (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Target:    target,
		Baseline:  &odbc.LocalDriver{Engine: base},
		Candidate: &odbc.LocalDriver{Engine: cand},
		Catalog:   base.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := querylog.Stream{Session: 1, User: "app", Entries: []querylog.Entry{
		{Seq: 1, SQL: "INSERT INTO only_base VALUES (1)", Outcome: "ok"},
		{Seq: 2, SQL: "SELECT COUNT(*) FROM only_base", Outcome: "ok"},
		{Seq: 3, SQL: "SELECT x FROM only_base", Outcome: "ok"},
	}}
	rep := r.Replay([]querylog.Stream{st})
	sr := rep.PerSession[0]
	if sr.PoisonedAt != 1 || sr.Replayed != 1 {
		t.Fatalf("poisoned at %d after %d replayed, want 1 and 1:\n%s", sr.PoisonedAt, sr.Replayed, rep.Summary())
	}
	if len(rep.Mismatches) != 0 {
		t.Errorf("outcome mismatches = %d, want 0:\n%s", len(rep.Mismatches), rep.Summary())
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Divergence.Kind != odbc.DivWritePartial {
		t.Errorf("findings = %+v, want one %s", rep.Findings, odbc.DivWritePartial)
	}
}
