package hyperq

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/feature"
	"hyperq/internal/odbc"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
)

// newTestGateway builds an engine modeling the target, loads the shared test
// schema, and fronts it with a gateway (in-process backend driver).
func newTestGateway(t *testing.T, target *dialect.Profile) (*Gateway, *engine.Engine) {
	t.Helper()
	eng := engine.New(target)
	setup := eng.NewSession()
	ddl := []string{
		`CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, STORE INT)`,
		`CREATE TABLE SALES_HISTORY (GROSS DECIMAL(12,2), NET DECIMAL(12,2))`,
		`CREATE TABLE EMP (EMPNO INT, MGRNO INT)`,
		`INSERT INTO SALES VALUES
		   (100.00, DATE '2014-02-01', 1),
		   (250.00, DATE '2014-03-15', 1),
		   (80.00,  DATE '2013-12-31', 2),
		   (250.00, DATE '2014-06-01', 2),
		   (40.00,  DATE '2015-01-05', 3)`,
		`INSERT INTO SALES_HISTORY VALUES (90.00, 70.00), (240.00, 200.00)`,
		`INSERT INTO EMP VALUES (1,7),(7,8),(8,10),(9,10),(10,11)`,
	}
	for _, stmt := range ddl {
		if _, err := setup.ExecSQL(stmt); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	g, err := New(Config{
		Target:  target,
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, eng
}

func run(t *testing.T, s *Session, sql string) []*FrontResult {
	t.Helper()
	out, err := s.Run(sql)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return out
}

func rowStrings(res *FrontResult) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var parts []string
		for _, d := range row {
			parts = append(parts, d.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func session(t *testing.T, g *Gateway) *Session {
	t.Helper()
	s, err := g.NewLocalSession("appuser")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGatewaySimpleQuery(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	res := run(t, s, "SEL STORE, AMOUNT FROM SALES WHERE AMOUNT > 90 ORDER BY AMOUNT DESC, STORE")
	if len(res) != 1 || res[0].Command != "SELECT" {
		t.Fatalf("results = %+v", res)
	}
	got := rowStrings(res[0])
	want := []string{"1|250.00", "2|250.00", "1|100.00"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows = %v", got)
		}
	}
	// Frontend column names survive translation (not backend cN names).
	if res[0].Cols[0].Name != "STORE" || res[0].Cols[1].Name != "AMOUNT" {
		t.Errorf("cols = %+v", res[0].Cols)
	}
}

// The paper's Example 2 through the whole gateway against every target.
func TestGatewayExample2AllTargets(t *testing.T) {
	const example2 = `
	  SEL * FROM SALES
	  WHERE SALES_DATE > 1140101
	    AND (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY)
	  QUALIFY RANK(AMOUNT DESC) <= 2`
	for _, target := range dialect.CloudTargets() {
		g, _ := newTestGateway(t, target)
		s := session(t, g)
		res := run(t, s, example2)
		if len(res[0].Rows) != 2 {
			t.Fatalf("%s: rows = %v", target.Name, rowStrings(res[0]))
		}
		s.Close()
	}
}

func TestGatewayDML(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudB())
	s := session(t, g)
	defer s.Close()
	res := run(t, s, "INS SALES (999.99, DATE '2020-01-01', 9)")
	if res[0].Activity != 1 || res[0].Command != "INSERT" {
		t.Fatalf("insert = %+v", res[0])
	}
	res = run(t, s, "UPD SALES SET AMOUNT = 0 WHERE STORE = 9")
	if res[0].Activity != 1 {
		t.Fatalf("update = %+v", res[0])
	}
	res = run(t, s, "DEL FROM SALES WHERE STORE = 9")
	if res[0].Activity != 1 {
		t.Fatalf("delete = %+v", res[0])
	}
}

func TestGatewayMultiStatementRequest(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	res := run(t, s, "SEL COUNT(*) FROM SALES; SEL COUNT(*) FROM EMP;")
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	if g.Statements().Features().Features[feature.MultiStatement].Shapes == 0 {
		t.Error("MultiStatement not recorded")
	}
}

// Recursive emulation on a target without recursion (Figure 7 protocol).
func TestGatewayRecursiveEmulation(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA()) // CloudA: no recursion
	s := session(t, g)
	defer s.Close()
	res := run(t, s, `
	  WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS (
	    SEL EMPNO, MGRNO FROM EMP WHERE MGRNO = 10
	    UNION ALL
	    SEL EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS WHERE REPORTS.EMPNO = EMP.MGRNO
	  )
	  SEL EMPNO FROM REPORTS ORDER BY EMPNO`)
	got := rowStrings(res[0])
	want := []string{"1", "7", "8", "9"}
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows = %v", got)
		}
	}
	// Temp tables must be cleaned up: a second run succeeds identically.
	res2 := run(t, s, `
	  WITH RECURSIVE R (E, M) AS (
	    SEL EMPNO, MGRNO FROM EMP WHERE MGRNO = 10
	    UNION ALL
	    SEL EMP.EMPNO, EMP.MGRNO FROM EMP, R WHERE R.E = EMP.MGRNO
	  )
	  SEL COUNT(*) FROM R`)
	if rowStrings(res2[0])[0] != "4" {
		t.Fatalf("second recursion = %v", rowStrings(res2[0]))
	}
}

// Native recursion on a capable target: no temp-table protocol needed.
func TestGatewayRecursiveNative(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudD())
	s := session(t, g)
	defer s.Close()
	res := run(t, s, `
	  WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS (
	    SEL EMPNO, MGRNO FROM EMP WHERE MGRNO = 10
	    UNION ALL
	    SEL EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS WHERE REPORTS.EMPNO = EMP.MGRNO
	  )
	  SEL EMPNO FROM REPORTS ORDER BY EMPNO`)
	if len(res[0].Rows) != 4 {
		t.Fatalf("rows = %v", rowStrings(res[0]))
	}
}

func TestGatewayMacros(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	run(t, s, "CREATE MACRO topsales (lim INTEGER) AS (SEL STORE, AMOUNT FROM SALES QUALIFY RANK(AMOUNT DESC) <= :lim ORDER BY AMOUNT DESC;)")
	res := run(t, s, "EXEC topsales(1)")
	got := rowStrings(res[0])
	if len(got) != 2 || !strings.HasSuffix(got[0], "250.00") {
		t.Fatalf("macro result = %v", got)
	}
	if g.Statements().Features().Features[feature.Macro].Shapes == 0 {
		t.Error("Macro feature not recorded")
	}
	// REPLACE and DROP.
	run(t, s, "REPLACE MACRO topsales AS (SEL 1;)")
	run(t, s, "DROP MACRO topsales")
	if _, err := s.Run("EXEC topsales"); err == nil {
		t.Error("dropped macro still executable")
	}
}

func TestGatewayMacroArgValidation(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	run(t, s, "CREATE MACRO m (x INTEGER) AS (SEL :x;)")
	if _, err := s.Run("EXEC m"); err == nil {
		t.Error("missing argument accepted")
	}
	if _, err := s.Run("EXEC m(1, 2)"); err == nil {
		t.Error("extra argument accepted")
	}
	res := run(t, s, "EXEC m(-7)")
	if rowStrings(res[0])[0] != "-7" {
		t.Fatalf("macro param = %v", rowStrings(res[0]))
	}
}

func TestGatewayMerge(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA()) // CloudA lacks MERGE
	s := session(t, g)
	defer s.Close()
	run(t, s, "CREATE TABLE tgt (k INT, v INT)")
	run(t, s, "CREATE TABLE src (k INT, v INT)")
	run(t, s, "INSERT INTO tgt (k, v) VALUES (1, 10), (2, 20)")
	run(t, s, "INSERT INTO src (k, v) VALUES (2, 200), (3, 300)")
	res := run(t, s, `
	  MERGE INTO tgt USING src ON tgt.k = src.k
	  WHEN MATCHED THEN UPDATE SET v = src.v
	  WHEN NOT MATCHED THEN INSERT (k, v) VALUES (src.k, src.v)`)
	if res[0].Command != "MERGE" || res[0].Activity != 2 {
		t.Fatalf("merge = %+v", res[0])
	}
	check := run(t, s, "SEL k, v FROM tgt ORDER BY k")
	got := rowStrings(check[0])
	want := []string{"1|10", "2|200", "3|300"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after merge = %v", got)
		}
	}
}

func TestGatewaySetTableDeduplication(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	run(t, s, "CREATE SET TABLE st (a INT, b INT)")
	run(t, s, "INSERT INTO st (a, b) VALUES (1, 1), (1, 1), (2, 2)")
	res := run(t, s, "SEL COUNT(*) FROM st")
	if rowStrings(res[0])[0] != "2" {
		t.Fatalf("set table rows = %v", rowStrings(res[0]))
	}
	// Re-inserting an existing row is silently eliminated.
	run(t, s, "INSERT INTO st (a, b) VALUES (1, 1), (3, 3)")
	res = run(t, s, "SEL COUNT(*) FROM st")
	if rowStrings(res[0])[0] != "3" {
		t.Fatalf("set table rows after reinsert = %v", rowStrings(res[0]))
	}
}

func TestGatewayHelpSession(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudC())
	s := session(t, g)
	defer s.Close()
	res := run(t, s, "HELP SESSION")
	if len(res[0].Rows) < 5 {
		t.Fatalf("help session rows = %d", len(res[0].Rows))
	}
	found := false
	for _, row := range res[0].Rows {
		if row[0].S == "User Name" && row[1].S == "appuser" {
			found = true
		}
	}
	if !found {
		t.Errorf("user missing from HELP SESSION: %v", rowStrings(res[0]))
	}
}

func TestGatewayHelpTable(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	res := run(t, s, "HELP TABLE SALES")
	if len(res[0].Rows) != 3 {
		t.Fatalf("help table rows = %v", rowStrings(res[0]))
	}
	if res[0].Rows[0][0].S != "AMOUNT" || !strings.Contains(res[0].Rows[0][1].S, "DECIMAL") {
		t.Errorf("help table = %v", rowStrings(res[0]))
	}
}

func TestGatewayViews(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	run(t, s, "CREATE VIEW bigsales AS SEL AMOUNT, STORE FROM SALES WHERE AMOUNT > 90")
	res := run(t, s, "SEL COUNT(*) FROM bigsales")
	if rowStrings(res[0])[0] != "3" {
		t.Fatalf("view query = %v", rowStrings(res[0]))
	}
	// DML through an updatable view redirects to the base table.
	run(t, s, "UPDATE bigsales SET STORE = 7 WHERE AMOUNT = 100.00")
	res = run(t, s, "SEL COUNT(*) FROM SALES WHERE STORE = 7")
	if rowStrings(res[0])[0] != "1" {
		t.Fatalf("dml-on-view = %v", rowStrings(res[0]))
	}
	run(t, s, "DROP VIEW bigsales")
	if _, err := s.Run("SEL * FROM bigsales"); err == nil {
		t.Error("dropped view still queryable")
	}
}

func TestGatewayVolatileTables(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s1 := session(t, g)
	defer s1.Close()
	s2 := session(t, g)
	defer s2.Close()
	run(t, s1, "CREATE VOLATILE TABLE vt (x INT) ON COMMIT PRESERVE ROWS")
	run(t, s1, "INSERT INTO vt (x) VALUES (1), (2)")
	res := run(t, s1, "SEL COUNT(*) FROM vt")
	if rowStrings(res[0])[0] != "2" {
		t.Fatalf("volatile rows = %v", rowStrings(res[0]))
	}
	if _, err := s2.Run("SEL * FROM vt"); err == nil {
		t.Error("volatile table visible in other session")
	}
}

func TestGatewayCollectStatsEliminated(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	res := run(t, s, "COLLECT STATISTICS ON SALES COLUMN (STORE)")
	if res[0].Command != "COLLECT STATISTICS" {
		t.Fatalf("collect stats = %+v", res[0])
	}
}

func TestGatewayBtEt(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	res := run(t, s, "BT; SEL 1; ET;")
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
}

func TestGatewaySetSession(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	run(t, s, "SET SESSION DATEFORM = ansidate")
	res := run(t, s, "HELP SESSION")
	found := false
	for _, row := range res[0].Rows {
		if row[0].S == "Current DateForm" && row[1].S == "ansidate" {
			found = true
		}
	}
	if !found {
		t.Error("session setting not reflected")
	}
}

func TestGatewaySyntaxErrorCode(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	_, err := s.Run("SELECTT 1")
	re, ok := err.(*RequestError)
	if !ok || re.Code != 3706 {
		t.Fatalf("err = %v", err)
	}
	_, err = s.Run("SEL nope FROM SALES")
	re, ok = err.(*RequestError)
	if !ok || re.Code != 3707 {
		t.Fatalf("err = %v", err)
	}
}

// TestWireDeepNestingIsSyntaxError: a 2 MB request nesting a million
// parentheses once overflowed the parser's stack, a fatal error that took
// the process and every session down. It now fails as a syntax error, and
// the connection goes on serving.
func TestWireDeepNestingIsSyntaxError(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = tdp.Serve(ln, g) }()
	client, err := tdp.Dial(ln.Addr().String(), "appuser", "secret")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const n = 1000000
	_, err = client.Request("SEL " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n))
	re, ok := err.(*tdp.RequestError)
	if !ok || re.Code != tdp.CodeSyntaxError {
		t.Fatalf("err = %v, want a %d failure", err, tdp.CodeSyntaxError)
	}
	stmts, err := client.Request("SEL 1")
	if err != nil || len(stmts) != 1 || len(stmts[0].Rows) != 1 {
		t.Fatalf("SEL 1 after the failure: %+v, %v", stmts, err)
	}
}

func TestGatewayMetrics(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	run(t, s, "SEL * FROM SALES")
	m := g.MetricsSnapshot()
	if m.Requests != 1 || m.Translate <= 0 || m.Execute <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
	g.ResetMetrics()
	if g.MetricsSnapshot().Requests != 0 {
		t.Error("reset failed")
	}
}

// Full stack over both wire protocols: bteq-style TDP client → gateway →
// CWP → engine. This is the paper's Figure 1(b) data path end to end.
func TestGatewayFullWireStack(t *testing.T) {
	target := dialect.CloudA()
	eng := engine.New(target)
	setup := eng.NewSession()
	for _, stmt := range []string{
		"CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, STORE INT)",
		"INSERT INTO SALES VALUES (100.00, DATE '2014-02-01', 1), (250.00, DATE '2014-03-15', 2)",
	} {
		if _, err := setup.ExecSQL(stmt); err != nil {
			t.Fatal(err)
		}
	}
	// Backend server (WP-B).
	beLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer beLn.Close()
	go func() { _ = cwp.Serve(beLn, eng) }()

	// Gateway server (WP-A) in front.
	g, err := New(Config{
		Target:  target,
		Driver:  &odbc.NetworkDriver{Addr: beLn.Addr().String(), User: "gw", Password: "pw"},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	feLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer feLn.Close()
	go func() { _ = tdp.Serve(feLn, g) }()

	// Unmodified client application speaking WP-A.
	client, err := tdp.Dial(feLn.Addr().String(), "appuser", "secret")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stmts, err := client.Request("SEL STORE, AMOUNT, SALES_DATE FROM SALES WHERE SALES_DATE > 1140101 ORDER BY STORE")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 || len(stmts[0].Rows) != 2 {
		t.Fatalf("wire result = %+v", stmts)
	}
	// The DATE travelled in Teradata's internal integer encoding and decodes
	// back to the civil date.
	if stmts[0].Rows[0][2].String() != "2014-02-01" {
		t.Errorf("date = %s", stmts[0].Rows[0][2])
	}
	if stmts[0].Cols[1].Name != "AMOUNT" {
		t.Errorf("cols = %+v", stmts[0].Cols)
	}
	// Failure parcels surface as request errors.
	if _, err := client.Request("SEL bogus FROM SALES"); err == nil {
		t.Error("error not propagated over the wire")
	}
	// The connection survives a failed request.
	if _, err := client.Request("SEL 1"); err != nil {
		t.Errorf("connection unusable after failure: %v", err)
	}
}

func TestGatewayLogonValidation(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	if _, err := g.Logon("", "pw"); err == nil {
		t.Error("empty user accepted")
	}
	h, err := g.Logon("someone", "pw")
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
}

func TestGatewayImplicitJoinThroughGateway(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudB())
	s := session(t, g)
	defer s.Close()
	res := run(t, s, "SEL DISTINCT EMP.EMPNO FROM EMP WHERE SALES.STORE = 1 AND EMP.EMPNO < 8 ORDER BY 1")
	if len(res[0].Rows) != 2 {
		t.Fatalf("rows = %v", rowStrings(res[0]))
	}
	if g.Statements().Features().Features[feature.ImplicitJoin].Shapes == 0 {
		t.Error("ImplicitJoin not recorded")
	}
}

func TestGatewayDecimalConversion(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	// AVG yields a wider scale on the backend; conversion must match the
	// frontend plan's declared type.
	res := run(t, s, "SEL AVG(AMOUNT) FROM SALES")
	if res[0].Cols[0].Type.Kind != types.KindDecimal {
		t.Fatalf("avg type = %v", res[0].Cols[0].Type)
	}
	if rowStrings(res[0])[0] != "144.0000" {
		t.Fatalf("avg = %v", rowStrings(res[0]))
	}
}

func TestGatewayGTT(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	run(t, s, "CREATE GLOBAL TEMPORARY TABLE gtt (x INT) ON COMMIT PRESERVE ROWS")
	run(t, s, "INSERT INTO gtt (x) VALUES (5)")
	res := run(t, s, "SEL COUNT(*) FROM gtt")
	if rowStrings(res[0])[0] != "1" {
		t.Fatalf("gtt rows = %v", rowStrings(res[0]))
	}
}

func TestGatewayStress(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	const sessions = 8
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			s, err := g.NewLocalSession(fmt.Sprintf("user%d", i))
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			for j := 0; j < 25; j++ {
				if _, err := s.Run("SEL STORE, SUM(AMOUNT) FROM SALES GROUP BY STORE ORDER BY 1"); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	m := g.MetricsSnapshot()
	if m.Requests != sessions*25 {
		t.Fatalf("requests = %d", m.Requests)
	}
}
