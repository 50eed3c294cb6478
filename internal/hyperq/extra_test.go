package hyperq

import (
	"net"
	"strings"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/wire/cwp"
)

// The gateway composes with the scale-out replicated driver (Appendix B.3).
func TestGatewayWithReplicatedBackend(t *testing.T) {
	const replicas = 3
	engines := make([]*engine.Engine, replicas)
	drivers := make([]odbc.Driver, replicas)
	for i := range engines {
		engines[i] = engine.New(dialect.CloudA())
		be := engines[i].NewSession()
		if _, err := be.ExecSQL("CREATE TABLE t (x INT)"); err != nil {
			t.Fatal(err)
		}
		drivers[i] = &odbc.LocalDriver{Engine: engines[i]}
	}
	g, err := New(Config{
		Target:  dialect.CloudA(),
		Driver:  &odbc.ReplicatedDriver{Replicas: drivers},
		Catalog: engines[0].Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("app")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("INS t (41); INS t (1);"); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		n, _ := eng.NewSession().RowCount("t")
		if n != 2 {
			t.Fatalf("replica %d rows = %d", i, n)
		}
	}
	for i := 0; i < 2*replicas; i++ {
		res, err := s.Run("SEL SUM(x) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Rows[0][0].I != 42 {
			t.Fatalf("read %d = %v", i, res[0].Rows[0][0])
		}
	}
}

// Failure injection: the backend connection dies mid-session; the gateway
// surfaces a request error rather than wedging or panicking.
func TestGatewayBackendDeath(t *testing.T) {
	eng := engine.New(dialect.CloudA())
	be := eng.NewSession()
	if _, err := be.ExecSQL("CREATE TABLE t (x INT)"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = cwp.Serve(ln, eng) }()
	g, err := New(Config{
		Target:  dialect.CloudA(),
		Driver:  &odbc.NetworkDriver{Addr: ln.Addr().String(), User: "u", Password: "p"},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("app")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("SEL COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	// Kill the backend.
	ln.Close()
	// Give in-flight accepts a moment; the established connection also dies
	// once the server loop returns — force it by closing the listener and
	// exhausting the request.
	_, err = s.Run("SEL COUNT(*) FROM t")
	// Either the cached connection still works (server goroutine alive) or
	// the error surfaces cleanly; a second gateway session must fail to
	// connect either way.
	if _, err2 := g.NewLocalSession("app2"); err2 == nil {
		t.Fatal("logon succeeded against a dead backend")
	}
	_ = err
}

// Unknown statements inside a macro surface the inner error code.
func TestGatewayMacroBodyErrors(t *testing.T) {
	eng := engine.New(dialect.CloudA())
	g, err := New(Config{
		Target:  dialect.CloudA(),
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("app")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("CREATE MACRO broken AS (SEL * FROM missing_table;)"); err != nil {
		t.Fatal(err) // body parses; binding happens at EXEC
	}
	_, err = s.Run("EXEC broken")
	re, ok := err.(*RequestError)
	if !ok || re.Code != 3707 {
		t.Fatalf("err = %v", err)
	}
	// Macro with a syntax error in the body is rejected at CREATE.
	if _, err := s.Run("CREATE MACRO worse AS (SELEKT 1;)"); err == nil {
		t.Fatal("invalid macro body accepted")
	}
}

// Nested macros: EXEC inside a macro body.
func TestGatewayNestedMacros(t *testing.T) {
	eng := engine.New(dialect.CloudA())
	g, err := New(Config{
		Target:  dialect.CloudA(),
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("app")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("CREATE MACRO inner1 (x INTEGER) AS (SEL :x + 1;)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("CREATE MACRO outer1 AS (EXEC inner1(41);)"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("EXEC outer1")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Rows[0][0].I != 42 {
		t.Fatalf("nested macro = %v", res[0].Rows[0][0])
	}
}

// NOT CASESPECIFIC columns (Table 2: unsupported column properties): the
// gateway keeps the property in its catalog and rewrites comparisons, since
// the target cannot represent it.
func TestGatewayCaseInsensitiveColumns(t *testing.T) {
	eng := engine.New(dialect.CloudA())
	g, err := New(Config{
		Target:  dialect.CloudA(),
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("app")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("CREATE TABLE names (id INTEGER, nm VARCHAR(20) NOT CASESPECIFIC)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("INS names (1, 'Alice'); INS names (2, 'BOB');"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("SEL id FROM names WHERE nm = 'alice'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Rows) != 1 || res[0].Rows[0][0].I != 1 {
		t.Fatalf("case-insensitive match failed: %d rows", len(res[0].Rows))
	}
	// The backend itself stays case-sensitive — the semantics come from the
	// gateway rewrite, not the engine.
	direct, err := eng.NewSession().QuerySQL("SELECT id FROM names WHERE nm = 'alice'")
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Rows) != 0 {
		t.Fatal("engine is case-insensitive; emulation untestable")
	}
	// Case-sensitive columns are unaffected through the gateway.
	if _, err := s.Run("CREATE TABLE strict (nm VARCHAR(20))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("INS strict ('Alice')"); err != nil {
		t.Fatal(err)
	}
	res, err = s.Run("SEL COUNT(*) FROM strict WHERE nm = 'alice'")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Rows[0][0].I != 0 {
		t.Fatal("case-sensitive column matched wrong case")
	}
}

// EXPLAIN returns the translated SQL and plan without executing.
func TestGatewayExplain(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	res := run(t, s, `EXPLAIN SEL * FROM SALES
	  WHERE SALES_DATE > 1140101
	    AND (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY)
	  QUALIFY RANK(AMOUNT DESC) <= 2`)
	if res[0].Command != "EXPLAIN" || len(res[0].Rows) < 5 {
		t.Fatalf("explain = %+v", res[0])
	}
	var text strings.Builder
	for _, row := range res[0].Rows {
		text.WriteString(row[0].S)
		text.WriteByte('\n')
	}
	out := text.String()
	for _, want := range []string{"EXTRACT(DAY", "EXISTS", "window(RANK", "Date-Integer comparison"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// EXPLAIN of an eliminated statement.
	res = run(t, s, "EXPLAIN COLLECT STATISTICS ON SALES")
	joined := ""
	for _, row := range res[0].Rows {
		joined += row[0].S
	}
	if !strings.Contains(joined, "eliminated") {
		t.Errorf("explain of eliminated stmt: %s", joined)
	}
}

// DML batching (§4.3): contiguous single-row inserts execute as one backend
// statement but the client still receives one response per statement.
func TestGatewayDMLBatching(t *testing.T) {
	eng := engine.New(dialect.CloudA())
	be := eng.NewSession()
	if _, err := be.ExecSQL("CREATE TABLE batch_t (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Target:  dialect.CloudA(),
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.NewLocalSession("app")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(`
	  INS batch_t (1, 10);
	  INS batch_t (2, 20);
	  INS batch_t (3, 30);
	  SEL COUNT(*) FROM batch_t;`)
	if err != nil {
		t.Fatal(err)
	}
	// Four responses: three synthesized INSERT successes plus the SELECT.
	if len(res) != 4 {
		t.Fatalf("responses = %d", len(res))
	}
	for i := 0; i < 3; i++ {
		if res[i].Command != "INSERT" || res[i].Activity != 1 {
			t.Fatalf("response %d = %+v", i, res[i])
		}
	}
	if res[3].Rows[0][0].I != 3 {
		t.Fatalf("count = %v", res[3].Rows[0][0])
	}
	// But only two execution units reached the backend path.
	if got := g.MetricsSnapshot().Statements; got != 2 {
		t.Fatalf("executed statements = %d, want 2 (batched insert + select)", got)
	}
	// Inserts with different column lists do not merge.
	g.ResetMetrics()
	if _, err := s.Run("INSERT INTO batch_t (a) VALUES (9); INSERT INTO batch_t (b) VALUES (9);"); err != nil {
		t.Fatal(err)
	}
	if got := g.MetricsSnapshot().Statements; got != 2 {
		t.Fatalf("incompatible inserts merged: %d units", got)
	}
}
