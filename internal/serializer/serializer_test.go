package serializer

import (
	"strings"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/feature"
	"hyperq/internal/parser"
	"hyperq/internal/transform"
	"hyperq/internal/xtra"

	"hyperq/internal/binder"
)

// setupEngine loads the shared test schema/data into an engine modeling the
// given profile.
func setupEngine(t *testing.T, p *dialect.Profile) *engine.Session {
	t.Helper()
	e := engine.New(p)
	s := e.NewSession()
	ddl := []string{
		`CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, STORE INT)`,
		`CREATE TABLE SALES_HISTORY (GROSS DECIMAL(12,2), NET DECIMAL(12,2))`,
		`CREATE TABLE PRODUCT (PRODUCT_NAME VARCHAR(40), SALES DECIMAL(12,2), STORE INT)`,
		`INSERT INTO SALES VALUES
		   (100.00, DATE '2014-02-01', 1),
		   (250.00, DATE '2014-03-15', 1),
		   (80.00,  DATE '2013-12-31', 2),
		   (250.00, DATE '2014-06-01', 2),
		   (40.00,  DATE '2015-01-05', 3)`,
		`INSERT INTO SALES_HISTORY VALUES (90.00, 70.00), (240.00, 200.00)`,
		`INSERT INTO PRODUCT VALUES ('widget', 100.00, 1), ('gadget', 300.00, 1), ('gizmo', 50.00, 2)`,
	}
	for _, stmt := range ddl {
		if _, err := s.ExecSQL(stmt); err != nil {
			t.Fatalf("setup %q: %v", stmt, err)
		}
	}
	return s
}

// translate runs the full frontend pipeline: Teradata parse, bind, binding
// stage transformations, and per-target serialization.
func translate(t *testing.T, sess *engine.Session, tdSQL string, target *dialect.Profile) string {
	t.Helper()
	rec := &feature.Recorder{}
	stmt, err := parser.ParseOne(tdSQL, parser.Teradata, rec)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	b := binder.New(sess, parser.Teradata, rec)
	bound, err := b.Bind(stmt)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	c := transform.NewStatementContext(nil, rec, bound)
	mid, err := transform.BindingStage().Statement(bound, c)
	if err != nil {
		t.Fatalf("binding stage: %v", err)
	}
	sql, err := New(target, rec).Serialize(mid)
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return sql
}

// roundTrip translates tdSQL for the target and executes the generated SQL
// on an engine modeling that target, returning rendered rows.
func roundTrip(t *testing.T, tdSQL string, target *dialect.Profile) []string {
	t.Helper()
	sess := setupEngine(t, target)
	sql := translate(t, sess, tdSQL, target)
	res, err := sess.QuerySQL(sql)
	if err != nil {
		t.Fatalf("backend rejected generated SQL:\n%s\nerror: %v", sql, err)
	}
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

func expect(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q (all %v)", i, got[i], want[i], got)
		}
	}
}

func allTargets() []*dialect.Profile { return dialect.CloudTargets() }

func TestRoundTripSimpleSelect(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, "SEL STORE, AMOUNT FROM SALES WHERE AMOUNT > 90 ORDER BY AMOUNT DESC, STORE", target)
		expect(t, got, "1|250.00", "2|250.00", "1|100.00")
	}
}

func TestRoundTripAggregation(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, "SEL STORE, SUM(AMOUNT) AS TOTAL, COUNT(*) FROM SALES GROUP BY 1 ORDER BY 1", target)
		expect(t, got, "1|350.00|2", "2|330.00|2", "3|40.00|1")
	}
}

func TestRoundTripHaving(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, "SEL STORE FROM SALES GROUP BY STORE HAVING SUM(AMOUNT) > 100 ORDER BY STORE", target)
		expect(t, got, "1", "2")
	}
}

// The paper's Example 2 end to end on every modeled target: DATE/INT
// comparison, vector subquery, QUALIFY with Teradata RANK form.
func TestRoundTripExample2(t *testing.T) {
	const example2 = `
	  SEL *
	  FROM SALES
	  WHERE SALES_DATE > 1140101
	    AND (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY)
	  QUALIFY RANK(AMOUNT DESC) <= 2`
	// Rows after date filter (2014+): 100@s1, 250@s1, 250@s2, 40@s3(2015).
	// Vector filter: > (90,70) or > (240,200) lexicographically: 100 > 90,
	// 250 > 90 — 40 fails (40<90, 40<240). RANK by amount desc, top 2 with
	// ties: the two 250s.
	for _, target := range allTargets() {
		got := roundTrip(t, example2, target)
		if len(got) != 2 {
			t.Fatalf("target %s: rows = %v", target.Name, got)
		}
		for _, row := range got {
			if !strings.HasPrefix(row, "250.00|") {
				t.Fatalf("target %s: unexpected row %q", target.Name, row)
			}
		}
	}
}

// Example 1: SEL, named expressions, QUALIFY over windowed sum, reordered
// clauses.
func TestRoundTripExample1(t *testing.T) {
	const example1 = `
	  SEL PRODUCT_NAME, SALES AS SALES_BASE, SALES_BASE + 100 AS SALES_OFFSET
	  FROM PRODUCT
	  QUALIFY 10 < SUM(SALES) OVER (PARTITION BY STORE)
	  ORDER BY STORE, PRODUCT_NAME
	  WHERE CHARS(PRODUCT_NAME) > 4`
	for _, target := range allTargets() {
		got := roundTrip(t, example1, target)
		// widget and gadget pass CHARS > 4 (6 chars each; gizmo has 5... all
		// have >4). store 1: widget+gadget; store 2: gizmo.
		expect(t, got,
			"gadget|300.00|400.00",
			"widget|100.00|200.00",
			"gizmo|50.00|150.00",
		)
	}
}

func TestRoundTripWindowFunctions(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, `
		  SEL STORE, RANK() OVER (PARTITION BY STORE ORDER BY AMOUNT DESC) AS R
		  FROM SALES QUALIFY R = 1 ORDER BY STORE`, target)
		expect(t, got, "1|1", "2|1", "3|1")
	}
}

func TestRoundTripSetOps(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, "SEL STORE FROM SALES UNION SEL STORE FROM PRODUCT ORDER BY 1", target)
		expect(t, got, "1", "2", "3")
	}
}

func TestRoundTripTopWithTies(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, "SEL TOP 1 WITH TIES AMOUNT FROM SALES ORDER BY AMOUNT DESC", target)
		expect(t, got, "250.00", "250.00")
	}
}

func TestRoundTripDateArithmetic(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, "SEL SALES_DATE + 30 FROM SALES WHERE STORE = 3", target)
		expect(t, got, "2015-02-04")
	}
}

func TestRoundTripGroupingSets(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, "SEL STORE, SUM(AMOUNT) FROM SALES GROUP BY ROLLUP(STORE) ORDER BY 2, 1", target)
		expect(t, got, "3|40.00", "2|330.00", "1|350.00", "NULL|720.00")
	}
}

func TestRoundTripImplicitJoin(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, `
		  SEL DISTINCT PRODUCT.PRODUCT_NAME FROM PRODUCT
		  WHERE SALES.STORE = PRODUCT.STORE AND SALES.AMOUNT > 200
		  ORDER BY 1`, target)
		expect(t, got, "gadget", "gizmo", "widget")
	}
}

func TestRoundTripCorrelatedExists(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, `
		  SEL PRODUCT_NAME FROM PRODUCT P
		  WHERE EXISTS (SEL 1 FROM SALES S WHERE S.STORE = P.STORE AND S.AMOUNT > 200)
		  ORDER BY PRODUCT_NAME`, target)
		expect(t, got, "gadget", "gizmo", "widget")
	}
}

func TestRoundTripScalarSubquery(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, "SEL PRODUCT_NAME, (SEL MAX(AMOUNT) FROM SALES) FROM PRODUCT ORDER BY 1", target)
		expect(t, got, "gadget|250.00", "gizmo|250.00", "widget|250.00")
	}
}

func TestRoundTripBuiltins(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, `
		  SEL UPPER(PRODUCT_NAME), CHARS(PRODUCT_NAME), SUBSTR(PRODUCT_NAME, 1, 3),
		      INDEX(PRODUCT_NAME, 'dget'), ZEROIFNULL(STORE), ADD_MONTHS(DATE '2020-01-31', 1)
		  FROM PRODUCT WHERE PRODUCT_NAME = 'gadget'`, target)
		expect(t, got, "GADGET|6|gad|3|1|2020-02-29")
	}
}

func TestRoundTripCaseAndCast(t *testing.T) {
	for _, target := range allTargets() {
		got := roundTrip(t, `
		  SEL CASE WHEN AMOUNT > 100 THEN 'big' ELSE 'small' END,
		      CAST(AMOUNT AS INTEGER)
		  FROM SALES WHERE STORE = 3`, target)
		expect(t, got, "small|40")
	}
}

func TestRoundTripDML(t *testing.T) {
	for _, target := range allTargets() {
		sess := setupEngine(t, target)
		// INSERT
		sql := translate(t, sess, "INS SALES (999.99, DATE '2020-01-01', 9)", target)
		if _, err := sess.ExecSQL(sql); err != nil {
			t.Fatalf("%s: insert failed:\n%s\n%v", target.Name, sql, err)
		}
		// UPDATE with date-int comparison in the predicate.
		sql = translate(t, sess, "UPD SALES SET AMOUNT = AMOUNT + 1 WHERE SALES_DATE > 1190000", target)
		rs, err := sess.ExecSQL(sql)
		if err != nil {
			t.Fatalf("%s: update failed:\n%s\n%v", target.Name, sql, err)
		}
		if rs[0].RowsAffected != 1 {
			t.Fatalf("%s: update affected %d", target.Name, rs[0].RowsAffected)
		}
		// DELETE
		sql = translate(t, sess, "DEL FROM SALES WHERE STORE = 9", target)
		rs, err = sess.ExecSQL(sql)
		if err != nil || rs[0].RowsAffected != 1 {
			t.Fatalf("%s: delete: %v affected=%d", target.Name, err, rs[0].RowsAffected)
		}
	}
}

func TestRoundTripCreateTableAndCTAS(t *testing.T) {
	for _, target := range allTargets() {
		sess := setupEngine(t, target)
		sql := translate(t, sess, "CREATE TABLE copycat AS (SEL STORE, SUM(AMOUNT) AS T FROM SALES GROUP BY 1) WITH DATA", target)
		if _, err := sess.ExecSQL(sql); err != nil {
			t.Fatalf("%s: ctas failed:\n%s\n%v", target.Name, sql, err)
		}
		n, err := sess.RowCount("copycat")
		if err != nil || n != 3 {
			t.Fatalf("%s: ctas rows = %d, %v", target.Name, n, err)
		}
	}
}

func TestRoundTripRecursiveOnCapableTarget(t *testing.T) {
	target := dialect.CloudD() // supports recursion natively
	sess := setupEngine(t, target)
	if _, err := sess.ExecSQL("CREATE TABLE EMP (EMPNO INT, MGRNO INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecSQL("INSERT INTO EMP VALUES (1,7),(7,8),(8,10),(9,10),(10,11)"); err != nil {
		t.Fatal(err)
	}
	sql := translate(t, sess, `
	  WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS (
	    SEL EMPNO, MGRNO FROM EMP WHERE MGRNO = 10
	    UNION ALL
	    SEL EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS WHERE REPORTS.EMPNO = EMP.MGRNO
	  )
	  SEL EMPNO FROM REPORTS ORDER BY EMPNO`, target)
	res, err := sess.QuerySQL(sql)
	if err != nil {
		t.Fatalf("recursive round trip failed:\n%s\n%v", sql, err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestSerializedSQLIsANSIParseable(t *testing.T) {
	// Every generated string must parse under the strict ANSI dialect.
	queries := []string{
		"SEL * FROM SALES WHERE SALES_DATE > 1140101 QUALIFY RANK(AMOUNT DESC) <= 10",
		"SEL STORE, SUM(AMOUNT) FROM SALES GROUP BY ROLLUP(STORE)",
		"SEL TOP 3 AMOUNT FROM SALES ORDER BY AMOUNT DESC",
		"SEL S.STORE FROM SALES S LEFT JOIN PRODUCT P ON S.STORE = P.STORE",
	}
	for _, target := range allTargets() {
		sess := setupEngine(t, target)
		for _, q := range queries {
			sql := translate(t, sess, q, target)
			if _, err := parser.Parse(sql, parser.ANSI, nil); err != nil {
				t.Errorf("target %s: generated SQL not ANSI-parseable: %v\n%s", target.Name, err, sql)
			}
		}
	}
}

func TestVectorSurvivesForCapableEngine(t *testing.T) {
	// A target with CapVectorSubquery gets no rewrite: the quantified
	// vector comparison is written as a row comparison, and the target's
	// engine answers it like the EXISTS rewrite does on CloudA.
	const q = "SEL AMOUNT FROM SALES WHERE (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY) ORDER BY 1"
	target := dialect.TeradataProfile()
	sql := translate(t, setupEngine(t, target), q, target)
	if !strings.Contains(sql, "((t1.AMOUNT, (t1.AMOUNT * 0.85)) > ANY (SELECT ") {
		t.Errorf("vector comparison not written natively:\n%s", sql)
	}
	want := []string{"100.00", "250.00", "250.00"}
	expect(t, roundTrip(t, q, target), want...)
	expect(t, roundTrip(t, q, dialect.CloudA()), want...)
}

func TestNoOpSerializesEmpty(t *testing.T) {
	s := New(dialect.CloudA(), nil)
	out, err := s.Serialize(&xtra.NoOp{Comment: "eliminated"})
	if err != nil || out != "" {
		t.Fatalf("NoOp = %q, %v", out, err)
	}
}

func TestFunctionSpellingPerTarget(t *testing.T) {
	sess := setupEngine(t, dialect.CloudA())
	sql := translate(t, sess, "SEL CHARS(PRODUCT_NAME) FROM PRODUCT", dialect.CloudA())
	if !strings.Contains(sql, "LEN(") {
		t.Errorf("CloudA spelling: %s", sql)
	}
	sess2 := setupEngine(t, dialect.CloudD())
	sql2 := translate(t, sess2, "SEL CHARS(PRODUCT_NAME) FROM PRODUCT", dialect.CloudD())
	if !strings.Contains(sql2, "LENGTH(") {
		t.Errorf("CloudD spelling: %s", sql2)
	}
	sess3 := setupEngine(t, dialect.CloudC())
	sql3 := translate(t, sess3, "SEL INDEX(PRODUCT_NAME, 'x') FROM PRODUCT", dialect.CloudC())
	if !strings.Contains(sql3, "CHARINDEX(") {
		t.Errorf("CloudC spelling: %s", sql3)
	}
}
