package parser

import (
	"fmt"
	"strings"
	"testing"

	"hyperq/internal/feature"
	"hyperq/internal/sqlast"
	"hyperq/internal/types"
)

func parseTD(t *testing.T, sql string) (sqlast.Statement, feature.Set) {
	t.Helper()
	rec := &feature.Recorder{}
	s, err := ParseOne(sql, Teradata, rec)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return s, rec.Set()
}

func selectCore(t *testing.T, s sqlast.Statement) *sqlast.SelectCore {
	t.Helper()
	sel, ok := s.(*sqlast.SelectStmt)
	if !ok {
		t.Fatalf("not a select: %T", s)
	}
	core, ok := sel.Query.Body.(*sqlast.SelectCore)
	if !ok {
		t.Fatalf("body is %T", sel.Query.Body)
	}
	return core
}

// --- lexer ---------------------------------------------------------------

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT a1, 'it''s', 1.5, \"Quoted Id\" -- comment\n FROM t /* block */ ;", nil)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokenKind{tokIdent, tokIdent, tokOp, tokString, tokOp, tokNumber, tokOp, tokQuotedIdent, tokIdent, tokIdent, tokOp, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("token kinds %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d kind = %v, want %v (%+v)", i, kinds[i], want[i], toks[i])
		}
	}
	if toks[3].text != "it's" {
		t.Errorf("string literal = %q", toks[3].text)
	}
	if toks[7].text != "Quoted Id" {
		t.Errorf("quoted ident = %q", toks[7].text)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "a @ b", "a : b"} {
		if _, err := lex(src, nil); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
}

func TestNumberDatum(t *testing.T) {
	d, err := numberDatum("42")
	if err != nil || d.K != types.KindInt || d.I != 42 {
		t.Errorf("42 -> %v %v", d, err)
	}
	d, _ = numberDatum("4200000000")
	if d.K != types.KindBigInt {
		t.Errorf("big literal kind = %v", d.K)
	}
	d, _ = numberDatum("0.85")
	if d.K != types.KindDecimal || d.String() != "0.85" {
		t.Errorf("0.85 -> %v", d)
	}
	d, _ = numberDatum("1e3")
	if d.K != types.KindFloat || d.F != 1000 {
		t.Errorf("1e3 -> %v", d)
	}
}

// --- paper examples ------------------------------------------------------

// Example 1 from the paper (§2.1): SEL abbreviation, named expression
// reference, QUALIFY, and ORDER BY placed before WHERE.
const example1 = `
SEL
    PRODUCT_NAME,
    SALES AS SALES_BASE,
    SALES_BASE + 100 AS SALES_OFFSET
FROM PRODUCT
QUALIFY
    10 < SUM(SALES) OVER (PARTITION BY STORE)
ORDER BY STORE, PRODUCT_NAME
WHERE CHARS(PRODUCT_NAME) > 4`

func TestParseExample1(t *testing.T) {
	s, fs := parseTD(t, example1)
	core := selectCore(t, s)
	if len(core.Items) != 3 {
		t.Fatalf("items = %d", len(core.Items))
	}
	if core.Items[1].Alias != "SALES_BASE" {
		t.Errorf("alias = %q", core.Items[1].Alias)
	}
	if core.Where == nil || core.Qualify == nil {
		t.Fatal("WHERE/QUALIFY missing despite reordering")
	}
	sel := s.(*sqlast.SelectStmt)
	if len(sel.Query.OrderBy) != 2 {
		t.Fatalf("order by = %d items", len(sel.Query.OrderBy))
	}
	// CHARS was normalized to CHAR_LENGTH.
	cmp, ok := core.Where.(*sqlast.BinExpr)
	if !ok || cmp.Op != sqlast.BinGT {
		t.Fatalf("where = %T", core.Where)
	}
	fc, ok := cmp.L.(*sqlast.FuncCall)
	if !ok || fc.Name != "CHAR_LENGTH" {
		t.Fatalf("CHARS not normalized: %#v", cmp.L)
	}
	for _, want := range []feature.ID{feature.SelAbbrev, feature.Qualify, feature.CharsFunc} {
		if !fs.Has(want) {
			t.Errorf("feature %v not recorded", feature.Lookup(want).Name)
		}
	}
}

// Example 2 from the paper (§5): date-int comparison, vector subquery,
// QUALIFY with the Teradata RANK(expr DESC) form.
const example2 = `
SEL *
FROM SALES
WHERE
  SALES_DATE > 1140101
  AND (AMOUNT, AMOUNT * 0.85) >
      ANY (SEL GROSS, NET FROM SALES_HISTORY)
QUALIFY RANK(AMOUNT DESC) <= 10`

func TestParseExample2(t *testing.T) {
	s, fs := parseTD(t, example2)
	core := selectCore(t, s)
	if _, ok := core.Items[0].Expr.(*sqlast.Star); !ok {
		t.Fatal("expected star select")
	}
	and, ok := core.Where.(*sqlast.BinExpr)
	if !ok || and.Op != sqlast.BinAnd {
		t.Fatalf("where = %#v", core.Where)
	}
	q, ok := and.R.(*sqlast.QuantifiedCmp)
	if !ok || q.Quant != sqlast.QuantAny || q.Op != sqlast.BinGT {
		t.Fatalf("vector subquery = %#v", and.R)
	}
	if len(q.Left) != 2 {
		t.Fatalf("vector arity = %d", len(q.Left))
	}
	qual, ok := core.Qualify.(*sqlast.BinExpr)
	if !ok || qual.Op != sqlast.BinLE {
		t.Fatalf("qualify = %#v", core.Qualify)
	}
	wf, ok := qual.L.(*sqlast.WindowFunc)
	if !ok || !wf.TdForm || wf.Func.Name != "RANK" {
		t.Fatalf("rank form = %#v", qual.L)
	}
	if len(wf.Over.OrderBy) != 1 || !wf.Over.OrderBy[0].Desc {
		t.Fatalf("rank order = %#v", wf.Over.OrderBy)
	}
	for _, want := range []feature.ID{feature.SelAbbrev, feature.Qualify, feature.TdRank, feature.VectorSubquery} {
		if !fs.Has(want) {
			t.Errorf("feature %v not recorded", feature.Lookup(want).Name)
		}
	}
}

// Example 4 from the paper (§6): recursive query.
const example4 = `
WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS
(
    SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 10
  UNION ALL
    SELECT EMP.EMPNO, EMP.MGRNO
    FROM EMP, REPORTS
    WHERE REPORTS.EMPNO = EMP.MGRNO
)
SELECT EMPNO FROM REPORTS ORDER BY EMPNO`

func TestParseExample4(t *testing.T) {
	s, fs := parseTD(t, example4)
	sel := s.(*sqlast.SelectStmt)
	if sel.Query.With == nil || !sel.Query.With.Recursive {
		t.Fatal("recursive WITH missing")
	}
	cte := sel.Query.With.CTEs[0]
	if cte.Name != "REPORTS" || len(cte.Columns) != 2 {
		t.Fatalf("cte = %+v", cte)
	}
	if _, ok := cte.Query.Body.(*sqlast.SetOpBody); !ok {
		t.Fatalf("cte body = %T", cte.Query.Body)
	}
	if !fs.Has(feature.RecursiveQuery) {
		t.Error("RecursiveQuery not recorded")
	}
}

// --- dialect enforcement -------------------------------------------------

func TestANSIRejectsVendorConstructs(t *testing.T) {
	vendorOnly := []string{
		"SEL 1",
		"SELECT 1 FROM t QUALIFY RANK() OVER (ORDER BY a) = 1",
		"SELECT TOP 5 a FROM t",
		"BT",
		"ET",
		"EXEC m",
		"HELP SESSION",
		"COLLECT STATISTICS ON t",
		"CREATE MACRO m AS (SEL 1;)",
		"CREATE SET TABLE t (a INT)",
		"CREATE VOLATILE TABLE t (a INT)",
		"SELECT CHARS(a) FROM t",
		"SELECT a FROM t ORDER BY a WHERE a > 1",
		"INS t (1,2)",
		"DEL FROM t",
		"UPD t SET a = 1",
	}
	for _, sql := range vendorOnly {
		if _, err := Parse(sql, ANSI, nil); err == nil {
			t.Errorf("ANSI dialect accepted vendor construct: %s", sql)
		}
		if _, err := Parse(sql, Teradata, nil); err != nil {
			t.Errorf("Teradata dialect rejected: %s: %v", sql, err)
		}
	}
}

func TestANSIAcceptsStandardSQL(t *testing.T) {
	std := []string{
		"SELECT a, b FROM t WHERE a > 1 GROUP BY a, b HAVING COUNT(*) > 2 ORDER BY a",
		"SELECT * FROM t1 JOIN t2 ON t1.a = t2.a LEFT JOIN t3 ON t2.b = t3.b",
		"SELECT RANK() OVER (PARTITION BY a ORDER BY b DESC) FROM t",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"UPDATE t SET a = a + 1 WHERE b = 2",
		"DELETE FROM t WHERE a IS NOT NULL",
		"SELECT CASE WHEN a > 0 THEN 'p' ELSE 'n' END FROM t",
		"SELECT CAST(a AS DECIMAL(10,2)) FROM t",
		"SELECT EXTRACT(YEAR FROM d) FROM t",
		"SELECT * FROM (SELECT a FROM t) AS sub WHERE a IN (SELECT a FROM u)",
		"SELECT a FROM t UNION ALL SELECT b FROM u INTERSECT SELECT c FROM v",
		"WITH c AS (SELECT 1 AS x) SELECT x FROM c",
		"SELECT SUM(a) OVER (PARTITION BY b ORDER BY c ROWS UNBOUNDED PRECEDING) FROM t",
		"SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a)",
		"SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b NOT LIKE 'x%'",
		"CREATE TABLE t (a INT NOT NULL, b VARCHAR(20) DEFAULT 'x')",
		"DROP TABLE IF EXISTS t",
	}
	for _, sql := range std {
		if _, err := Parse(sql, ANSI, nil); err != nil {
			t.Errorf("ANSI dialect rejected standard SQL %q: %v", sql, err)
		}
	}
}

// --- specific constructs -------------------------------------------------

func TestInsertForms(t *testing.T) {
	s, _ := parseTD(t, "INSERT INTO t (a, b) VALUES (1, 'x')")
	ins := s.(*sqlast.InsertStmt)
	if len(ins.Columns) != 2 || len(ins.Rows) != 1 {
		t.Fatalf("insert = %+v", ins)
	}
	s, fs := parseTD(t, "INS t (1, 2)")
	ins = s.(*sqlast.InsertStmt)
	if len(ins.Columns) != 0 || len(ins.Rows) != 1 || len(ins.Rows[0]) != 2 {
		t.Fatalf("abbreviated insert = %+v", ins)
	}
	if !fs.Has(feature.SelAbbrev) {
		t.Error("INS abbreviation not recorded")
	}
	s, _ = parseTD(t, "INSERT INTO t SELECT a FROM u")
	ins = s.(*sqlast.InsertStmt)
	if ins.Query == nil {
		t.Fatal("insert-select missing query")
	}
}

func TestMergeParse(t *testing.T) {
	s, fs := parseTD(t, `
	  MERGE INTO tgt USING src ON tgt.k = src.k
	  WHEN MATCHED THEN UPDATE SET v = src.v
	  WHEN NOT MATCHED THEN INSERT (k, v) VALUES (src.k, src.v)`)
	m := s.(*sqlast.MergeStmt)
	if m.Target != "tgt" || len(m.Matched) != 1 || !m.HasNotMatched || len(m.NotMatchedCols) != 2 {
		t.Fatalf("merge = %+v", m)
	}
	if !fs.Has(feature.Merge) {
		t.Error("Merge feature not recorded")
	}
	if _, err := Parse("MERGE INTO t USING s ON t.a = s.a", Teradata, nil); err == nil {
		t.Error("MERGE without WHEN accepted")
	}
}

func TestCreateMacroAndExec(t *testing.T) {
	s, fs := parseTD(t, "CREATE MACRO rep (mon INTEGER, lim INTEGER) AS (SEL * FROM sales WHERE m = :mon QUALIFY RANK(v DESC) <= :lim;)")
	m := s.(*sqlast.CreateMacroStmt)
	if m.Name != "rep" || len(m.Params) != 2 {
		t.Fatalf("macro = %+v", m)
	}
	if !strings.Contains(m.Body, "QUALIFY RANK(v DESC) <= :lim") {
		t.Errorf("body = %q", m.Body)
	}
	if !fs.Has(feature.Macro) {
		t.Error("Macro feature not recorded")
	}
	s, fs = parseTD(t, "EXEC rep(7, 10)")
	e := s.(*sqlast.ExecStmt)
	if e.Macro != "rep" || len(e.Args) != 2 {
		t.Fatalf("exec = %+v", e)
	}
	if !fs.Has(feature.Macro) {
		t.Error("Macro feature not recorded for EXEC")
	}
}

func TestReplaceMacro(t *testing.T) {
	s, _ := parseTD(t, "REPLACE MACRO m AS (SEL 1;)")
	if !s.(*sqlast.CreateMacroStmt).Replace {
		t.Error("REPLACE flag not set")
	}
}

func TestCreateTableVariants(t *testing.T) {
	s, fs := parseTD(t, `CREATE SET TABLE emp (
	    id INTEGER NOT NULL,
	    name VARCHAR(30) NOT CASESPECIFIC,
	    dept INTEGER DEFAULT 10,
	    span PERIOD(DATE)
	  ) PRIMARY INDEX (id)`)
	ct := s.(*sqlast.CreateTableStmt)
	if !ct.Set || len(ct.Columns) != 4 || len(ct.PrimaryIndex) != 1 {
		t.Fatalf("create table = %+v", ct)
	}
	if !ct.Columns[1].CaseInsensitive {
		t.Error("NOT CASESPECIFIC lost")
	}
	if ct.Columns[3].Type.Name != "PERIOD(DATE)" {
		t.Errorf("period type = %+v", ct.Columns[3].Type)
	}
	if !fs.Has(feature.SetTable) {
		t.Error("SetTable feature not recorded")
	}

	s, fs = parseTD(t, "CREATE GLOBAL TEMPORARY TABLE gtt (a INT) ON COMMIT PRESERVE ROWS")
	ct = s.(*sqlast.CreateTableStmt)
	if !ct.GlobalTemporary || !ct.OnCommitPreserve {
		t.Fatalf("gtt = %+v", ct)
	}
	if !fs.Has(feature.GlobalTempTable) {
		t.Error("GlobalTempTable feature not recorded")
	}

	s, _ = parseTD(t, "CREATE TABLE ctas AS (SEL a FROM t) WITH DATA")
	ct = s.(*sqlast.CreateTableStmt)
	if ct.AsQuery == nil || !ct.WithData {
		t.Fatalf("ctas = %+v", ct)
	}
}

func TestGroupingSets(t *testing.T) {
	s, fs := parseTD(t, "SELECT a, b, SUM(c) FROM t GROUP BY ROLLUP(a, b)")
	core := selectCore(t, s)
	if len(core.GroupingSets) != 3 { // (a,b), (a), ()
		t.Fatalf("rollup sets = %v", core.GroupingSets)
	}
	if !fs.Has(feature.GroupingSets) {
		t.Error("GroupingSets not recorded")
	}
	s, _ = parseTD(t, "SELECT a, b, SUM(c) FROM t GROUP BY CUBE(a, b)")
	core = selectCore(t, s)
	if len(core.GroupingSets) != 4 {
		t.Fatalf("cube sets = %v", core.GroupingSets)
	}
	s, _ = parseTD(t, "SELECT a, b, SUM(c) FROM t GROUP BY GROUPING SETS ((a), (a, b), ())")
	core = selectCore(t, s)
	if len(core.GroupingSets) != 3 || len(core.GroupingSets[2]) != 0 {
		t.Fatalf("grouping sets = %v", core.GroupingSets)
	}
}

func TestHelpAndCollect(t *testing.T) {
	s, fs := parseTD(t, "HELP SESSION")
	if s.(*sqlast.HelpStmt).What != "SESSION" || !fs.Has(feature.HelpSession) {
		t.Error("HELP SESSION mis-parsed")
	}
	s, fs = parseTD(t, "HELP TABLE emp")
	h := s.(*sqlast.HelpStmt)
	if h.What != "TABLE" || h.Name != "emp" || !fs.Has(feature.HelpTable) {
		t.Error("HELP TABLE mis-parsed")
	}
	s, fs = parseTD(t, "COLLECT STATISTICS ON emp COLUMN (id, name)")
	c := s.(*sqlast.CollectStatsStmt)
	if c.Table != "emp" || len(c.Columns) != 2 || !fs.Has(feature.CollectStats) {
		t.Error("COLLECT STATISTICS mis-parsed")
	}
}

func TestBtEt(t *testing.T) {
	s, fs := parseTD(t, "BT")
	if s.(*sqlast.TxnStmt).Kind != "BEGIN" || !fs.Has(feature.BtEt) {
		t.Error("BT mis-parsed")
	}
	s, _ = parseTD(t, "ET")
	if s.(*sqlast.TxnStmt).Kind != "COMMIT" {
		t.Error("ET mis-parsed")
	}
}

func TestMultiStatementScript(t *testing.T) {
	stmts, err := Parse("SEL 1; SEL 2; DEL FROM t ALL;", Teradata, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	if !stmts[2].(*sqlast.DeleteStmt).All {
		t.Error("DELETE ALL flag lost")
	}
}

func TestTeradataBuiltinRewrites(t *testing.T) {
	s, fs := parseTD(t, "SEL ZEROIFNULL(a), NULLIFZERO(b), INDEX(name, 'x'), ADD_MONTHS(d, 3), a MOD 7 FROM t")
	core := selectCore(t, s)
	if fc := core.Items[0].Expr.(*sqlast.FuncCall); fc.Name != "COALESCE" || len(fc.Args) != 2 {
		t.Errorf("ZEROIFNULL -> %+v", fc)
	}
	if fc := core.Items[1].Expr.(*sqlast.FuncCall); fc.Name != "NULLIF" {
		t.Errorf("NULLIFZERO -> %+v", fc)
	}
	if fc := core.Items[2].Expr.(*sqlast.FuncCall); fc.Name != "POSITION" {
		t.Errorf("INDEX -> %+v", fc)
	}
	for _, want := range []feature.ID{feature.ZeroIfNull, feature.NullIfZero, feature.IndexFunc, feature.AddMonths, feature.ModOperator} {
		if !fs.Has(want) {
			t.Errorf("feature %s not recorded", feature.Lookup(want).Name)
		}
	}
}

func TestTopClause(t *testing.T) {
	s, _ := parseTD(t, "SEL TOP 10 WITH TIES a FROM t ORDER BY a")
	core := selectCore(t, s)
	if core.Top == nil || core.Top.N != 10 || !core.Top.WithTies {
		t.Fatalf("top = %+v", core.Top)
	}
}

func TestDerivedTableColumnAliases(t *testing.T) {
	s, _ := parseTD(t, "SELECT x FROM (SELECT a FROM t) AS d (x)")
	core := selectCore(t, s)
	dt := core.From[0].(*sqlast.DerivedTable)
	if dt.Alias != "d" || len(dt.ColAliases) != 1 || dt.ColAliases[0] != "x" {
		t.Fatalf("derived = %+v", dt)
	}
	if _, err := Parse("SELECT x FROM (SELECT a FROM t)", Teradata, nil); err == nil {
		t.Error("derived table without alias accepted")
	}
}

func TestSubqueriesInExpressions(t *testing.T) {
	s, _ := parseTD(t, "SELECT (SELECT MAX(a) FROM u) AS m FROM t WHERE a = ANY (SELECT b FROM v)")
	core := selectCore(t, s)
	if _, ok := core.Items[0].Expr.(*sqlast.Subquery); !ok {
		t.Fatalf("scalar subquery = %T", core.Items[0].Expr)
	}
	q, ok := core.Where.(*sqlast.QuantifiedCmp)
	if !ok || len(q.Left) != 1 {
		t.Fatalf("where = %#v", core.Where)
	}
}

func TestDateLiteralsAndIntervals(t *testing.T) {
	s, _ := parseTD(t, "SELECT DATE '2014-01-01', TIMESTAMP '2014-01-01 10:00:00', d + INTERVAL '3' DAY FROM t")
	core := selectCore(t, s)
	c := core.Items[0].Expr.(*sqlast.Const)
	if c.Val.K != types.KindDate {
		t.Errorf("date literal kind = %v", c.Val.K)
	}
	bin := core.Items[2].Expr.(*sqlast.BinExpr)
	if _, ok := bin.R.(*sqlast.IntervalExpr); !ok {
		t.Errorf("interval = %#v", bin.R)
	}
}

func TestBareDateKeywordTeradata(t *testing.T) {
	s, _ := parseTD(t, "SELECT DATE FROM t")
	core := selectCore(t, s)
	fc, ok := core.Items[0].Expr.(*sqlast.FuncCall)
	if !ok || fc.Name != "CURRENT_DATE" {
		t.Fatalf("bare DATE = %#v", core.Items[0].Expr)
	}
}

func TestParamParsing(t *testing.T) {
	e, err := ParseExprString(":mon + 1", Teradata)
	if err != nil {
		t.Fatal(err)
	}
	bin := e.(*sqlast.BinExpr)
	if p, ok := bin.L.(*sqlast.Param); !ok || p.Name != "mon" {
		t.Fatalf("param = %#v", bin.L)
	}
}

func TestViewCapturesSQL(t *testing.T) {
	s, _ := parseTD(t, "CREATE VIEW v (a) AS SELECT x FROM t WHERE x > 1")
	v := s.(*sqlast.CreateViewStmt)
	if v.SQL != "SELECT x FROM t WHERE x > 1" {
		t.Errorf("view SQL = %q", v.SQL)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a a b FROM t",
		"FROBNICATE x",
		"SELECT a FROM t GROUP BY",
		"SELECT a FROM t ORDER BY a NULLS",
		"INSERT INTO t (a, b)",
		"SELECT CASE END FROM t",
		"SELECT a FROM t WHERE a IN ()",
	}
	for _, sql := range bad {
		if _, err := Parse(sql, Teradata, nil); err == nil {
			t.Errorf("accepted invalid SQL: %q", sql)
		}
	}
}

func TestErrorsIncludeLineInfo(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t\nWHERE", Teradata, nil)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error lacks line info: %v", err)
	}
}

func TestSetOperationPrecedence(t *testing.T) {
	s, _ := parseTD(t, "SELECT a FROM t UNION SELECT b FROM u INTERSECT SELECT c FROM v")
	so := s.(*sqlast.SelectStmt).Query.Body.(*sqlast.SetOpBody)
	if so.Op != sqlast.SetUnion {
		t.Fatalf("top op = %v", so.Op)
	}
	if inner, ok := so.R.(*sqlast.SetOpBody); !ok || inner.Op != sqlast.SetIntersect {
		t.Fatalf("INTERSECT did not bind tighter: %#v", so.R)
	}
}

func TestMinusIsExcept(t *testing.T) {
	s, _ := parseTD(t, "SELECT a FROM t MINUS SELECT b FROM u")
	so := s.(*sqlast.SelectStmt).Query.Body.(*sqlast.SetOpBody)
	if so.Op != sqlast.SetExcept {
		t.Fatalf("MINUS op = %v", so.Op)
	}
}

func TestWalkExprAndContainsWindow(t *testing.T) {
	e2, _ := ParseExprString("a + b * 2", Teradata)
	n := 0
	sqlast.WalkExpr(e2, func(sqlast.Expr) bool { n++; return true })
	if n != 5 { // (+), a, (*), b, 2
		t.Errorf("walked %d nodes", n)
	}
}

// TestNestingBound: every shape the parser recurses on fails as a syntax
// error one level past maxNestingDepth, instead of growing the stack with
// the request, and parses at an ordinary depth.
func TestNestingBound(t *testing.T) {
	shapes := map[string]func(n int) string{
		"parens":   func(n int) string { return "SEL " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) },
		"minus":    func(n int) string { return "SEL " + strings.Repeat("- ", n) + "1" },
		"plus":     func(n int) string { return "SEL " + strings.Repeat("+ ", n) + "1" },
		"not":      func(n int) string { return "SEL 1 WHERE " + strings.Repeat("NOT ", n) + "1 = 1" },
		"subquery": func(n int) string { return strings.Repeat("SEL (", n) + "SEL 1" + strings.Repeat(")", n) },
		"derived": func(n int) string {
			return "SEL * FROM " + strings.Repeat("(SEL * FROM ", n) + "t" + strings.Repeat(") AS d", n)
		},
		"setop":   func(n int) string { return "SEL 1 UNION " + strings.Repeat("(", n) + "SEL 2" + strings.Repeat(")", n) },
		"explain": func(n int) string { return strings.Repeat("EXPLAIN ", n) + "SEL 1" },
	}
	for name, shape := range shapes {
		if _, err := Parse(shape(20), Teradata, nil); err != nil {
			t.Errorf("%s: 20 levels: %v", name, err)
		}
		_, err := Parse(shape(maxNestingDepth+1), Teradata, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("deeper than %d levels", maxNestingDepth)) {
			t.Errorf("%s: %d levels: err = %v", name, maxNestingDepth+1, err)
		}
	}
	_, err := Parse("SEL INTERVAL "+strings.Repeat("INTERVAL ", maxNestingDepth)+"'1' DAY", Teradata, nil)
	if err == nil || !strings.Contains(err.Error(), "deeper than") {
		t.Errorf("INTERVAL chain: err = %v", err)
	}
	// The bound is exact: the query block and its select item are two
	// levels, so maxNestingDepth-2 parentheses inside them still parse.
	deepest := "SEL " + strings.Repeat("(", maxNestingDepth-2) + "1" + strings.Repeat(")", maxNestingDepth-2)
	if _, err := Parse(deepest, Teradata, nil); err != nil {
		t.Errorf("%d levels: %v", maxNestingDepth, err)
	}
	if _, err := Parse("SEL ("+deepest[4:]+")", Teradata, nil); err == nil {
		t.Errorf("%d levels parsed", maxNestingDepth+1)
	}
}
