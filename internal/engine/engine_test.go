package engine

import (
	"strings"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/types"
)

// fullSession returns a session on an engine modeling a fully capable
// target (used to exercise generic SQL execution).
func fullSession(t *testing.T) *Session {
	t.Helper()
	e := New(dialect.TeradataProfile())
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE emp (empno INT, mgrno INT, name VARCHAR(20), sal DECIMAL(10,2), hired DATE)`)
	mustExec(t, s, `INSERT INTO emp VALUES
	  (1, 7, 'alice', 120.00, DATE '2014-01-02'),
	  (7, 8, 'bob',   90.50,  DATE '2013-05-01'),
	  (8, 10, 'carol', 90.50, DATE '2012-07-15'),
	  (9, 10, 'dave',  NULL,  DATE '2015-02-28'),
	  (10, 11, 'erin', 200.00, DATE '2010-12-31')`)
	return s
}

func mustExec(t *testing.T, s *Session, sql string) []*Result {
	t.Helper()
	rs, err := s.ExecSQL(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return rs
}

func mustQuery(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	r, err := s.QuerySQL(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return r
}

// rowsToStrings renders result rows for compact assertions.
func rowsToStrings(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		parts := make([]string, len(row))
		for j, d := range row {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func expectRows(t *testing.T, r *Result, want ...string) {
	t.Helper()
	got := rowsToStrings(r)
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSelectWhereProject(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT name, sal FROM emp WHERE sal > 100 ORDER BY sal DESC")
	expectRows(t, r, "erin|200.00", "alice|120.00")
}

func TestThreeValuedLogic(t *testing.T) {
	s := fullSession(t)
	// dave has NULL sal: NULL > 100 is unknown, row filtered out.
	r := mustQuery(t, s, "SELECT COUNT(*) FROM emp WHERE sal > 0")
	expectRows(t, r, "4")
	r = mustQuery(t, s, "SELECT COUNT(*) FROM emp WHERE NOT (sal > 0)")
	expectRows(t, r, "0")
	r = mustQuery(t, s, "SELECT COUNT(*) FROM emp WHERE sal IS NULL")
	expectRows(t, r, "1")
}

func TestJoins(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT e.name, m.name FROM emp e JOIN emp m ON e.mgrno = m.empno ORDER BY e.empno`)
	expectRows(t, r, "alice|bob", "bob|carol", "carol|erin", "dave|erin")
	// LEFT JOIN pads unmatched.
	r = mustQuery(t, s, `
	  SELECT e.name, m.name FROM emp e LEFT JOIN emp m ON e.mgrno = m.empno ORDER BY e.empno`)
	if len(r.Rows) != 5 || !r.Rows[4][1].Null {
		t.Fatalf("left join rows = %v", rowsToStrings(r))
	}
	// RIGHT JOIN mirrors.
	r = mustQuery(t, s, `
	  SELECT e.name, m.name FROM emp m RIGHT JOIN emp e ON e.mgrno = m.empno ORDER BY e.empno`)
	if len(r.Rows) != 5 {
		t.Fatalf("right join rows = %d", len(r.Rows))
	}
	// FULL JOIN keeps both sides.
	r = mustQuery(t, s, `
	  SELECT e.name, m.name FROM emp e FULL JOIN emp m ON e.mgrno = m.empno ORDER BY 1`)
	if len(r.Rows) != 7 { // 4 matches + erin unmatched-left + alice,dave unmatched-right
		t.Fatalf("full join rows = %d: %v", len(r.Rows), rowsToStrings(r))
	}
}

func TestJoinWithResidualPredicate(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT e.name FROM emp e JOIN emp m ON e.mgrno = m.empno AND m.sal > 100 ORDER BY e.name`)
	expectRows(t, r, "carol", "dave")
}

func TestNestedLoopJoinInequality(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT COUNT(*) FROM emp a JOIN emp b ON a.sal < b.sal`)
	// pairs: bob<alice, carol<alice, bob<erin, carol<erin, alice<erin -> 5
	expectRows(t, r, "5")
}

func TestAggregation(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT mgrno, COUNT(*), SUM(sal), MIN(sal), MAX(sal), AVG(sal)
	  FROM emp GROUP BY mgrno ORDER BY mgrno`)
	expectRows(t, r,
		"7|1|120.00|120.00|120.00|120.0000",
		"8|1|90.50|90.50|90.50|90.5000",
		"10|2|90.50|90.50|90.50|90.5000",
		"11|1|200.00|200.00|200.00|200.0000",
	)
}

func TestAggregateEmptyInput(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT COUNT(*), SUM(sal), MAX(name) FROM emp WHERE empno > 999")
	expectRows(t, r, "0|NULL|NULL")
}

func TestDistinctAggregate(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT COUNT(DISTINCT sal) FROM emp")
	expectRows(t, r, "3")
}

func TestHaving(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT mgrno FROM emp GROUP BY mgrno HAVING COUNT(*) > 1")
	expectRows(t, r, "10")
}

func TestDistinctRows(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT DISTINCT sal FROM emp ORDER BY sal")
	// NULLs sort low by source-default.
	expectRows(t, r, "NULL", "90.50", "120.00", "200.00")
}

func TestWindowFunctions(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT name, RANK() OVER (ORDER BY sal DESC) AS r,
	         DENSE_RANK() OVER (ORDER BY sal DESC) AS dr,
	         ROW_NUMBER() OVER (ORDER BY sal DESC) AS rn
	  FROM emp WHERE sal IS NOT NULL ORDER BY rn`)
	expectRows(t, r,
		"erin|1|1|1",
		"alice|2|2|2",
		"bob|3|3|3",
		"carol|3|3|4",
	)
}

func TestWindowRunningSum(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT name, SUM(sal) OVER (ORDER BY empno) AS running
	  FROM emp WHERE sal IS NOT NULL ORDER BY empno`)
	expectRows(t, r,
		"alice|120.00",
		"bob|210.50",
		"carol|301.00",
		"erin|501.00",
	)
}

func TestWindowPartitionTotal(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT name, COUNT(*) OVER (PARTITION BY mgrno) AS peers
	  FROM emp ORDER BY empno`)
	expectRows(t, r, "alice|1", "bob|1", "carol|2", "dave|2", "erin|1")
}

func TestOrderByNulls(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT name FROM emp ORDER BY sal DESC NULLS FIRST, name")
	expectRows(t, r, "dave", "erin", "alice", "bob", "carol")
	r = mustQuery(t, s, "SELECT name FROM emp ORDER BY sal NULLS LAST, name")
	expectRows(t, r, "bob", "carol", "alice", "erin", "dave")
}

func TestLimitAndTies(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT name FROM emp WHERE sal IS NOT NULL ORDER BY sal LIMIT 2")
	if len(r.Rows) != 2 {
		t.Fatalf("limit rows = %d", len(r.Rows))
	}
	r = mustQuery(t, s, "SELECT name FROM emp WHERE sal IS NOT NULL ORDER BY sal FETCH FIRST 1 ROWS WITH TIES")
	// bob and carol share sal 90.50.
	if len(r.Rows) != 2 {
		t.Fatalf("ties rows = %v", rowsToStrings(r))
	}
}

func TestSetOperations(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT mgrno FROM emp UNION SELECT empno FROM emp ORDER BY 1")
	if len(r.Rows) != 6 { // 1,7,8,9,10,11
		t.Fatalf("union rows = %v", rowsToStrings(r))
	}
	r = mustQuery(t, s, "SELECT mgrno FROM emp INTERSECT SELECT empno FROM emp ORDER BY 1")
	expectRows(t, r, "7", "8", "10")
	r = mustQuery(t, s, "SELECT empno FROM emp EXCEPT SELECT mgrno FROM emp ORDER BY 1")
	expectRows(t, r, "1", "9")
	r = mustQuery(t, s, "SELECT mgrno FROM emp UNION ALL SELECT empno FROM emp")
	if len(r.Rows) != 10 {
		t.Fatalf("union all rows = %d", len(r.Rows))
	}
}

// The paper's Example 4, executed natively on a recursion-capable target.
func TestRecursiveQueryExample4(t *testing.T) {
	s := fullSession(t)
	mustExec(t, s, "CREATE TABLE hier (empno INT, mgrno INT)")
	mustExec(t, s, "INSERT INTO hier VALUES (1, 7), (7, 8), (8, 10), (9, 10), (10, 11)")
	r := mustQuery(t, s, `
	  WITH RECURSIVE reports (empno, mgrno) AS (
	    SELECT empno, mgrno FROM hier WHERE mgrno = 10
	    UNION ALL
	    SELECT hier.empno, hier.mgrno FROM hier, reports WHERE reports.empno = hier.mgrno
	  )
	  SELECT empno FROM reports ORDER BY empno`)
	expectRows(t, r, "1", "7", "8", "9")
}

func TestRecursionRejectedWithoutCapability(t *testing.T) {
	e := New(dialect.CloudA()) // no CapRecursive
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE hier (empno INT, mgrno INT)")
	_, err := s.ExecSQL(`
	  WITH RECURSIVE r (x, y) AS (
	    SELECT empno, mgrno FROM hier WHERE mgrno = 10
	    UNION ALL SELECT hier.empno, hier.mgrno FROM hier, r WHERE r.x = hier.mgrno
	  ) SELECT x FROM r`)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("err = %v", err)
	}
}

func TestVectorSubqueryCapability(t *testing.T) {
	// Capable engine executes the paper's lexicographic semantics.
	s := fullSession(t)
	mustExec(t, s, "CREATE TABLE pairs (a INT, b INT)")
	mustExec(t, s, "INSERT INTO pairs VALUES (5, 5)")
	r := mustQuery(t, s, "SELECT COUNT(*) FROM emp WHERE (empno, mgrno) > ANY (SELECT a, b FROM pairs)")
	// (empno,mgrno) > (5,5): (7,8),(8,10),(9,10),(10,11) -> 4
	expectRows(t, r, "4")
	// Tie-break on the second component.
	mustExec(t, s, "DELETE FROM pairs")
	mustExec(t, s, "INSERT INTO pairs VALUES (7, 9)")
	r = mustQuery(t, s, "SELECT COUNT(*) FROM emp WHERE (empno, mgrno) > ANY (SELECT a, b FROM pairs)")
	// strictly above (7,9): (8,10),(9,10),(10,11); (7,8) < (7,9) -> 3
	expectRows(t, r, "3")

	// Incapable target rejects.
	e := New(dialect.CloudB())
	s2 := e.NewSession()
	mustExec(t, s2, "CREATE TABLE t (a INT, b INT)")
	_, err := s2.ExecSQL("SELECT * FROM t WHERE (a, b) > ANY (SELECT a, b FROM t)")
	if err == nil || !strings.Contains(err.Error(), "vector") {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupingSetsCapability(t *testing.T) {
	// CloudB supports grouping sets natively.
	e := New(dialect.CloudB())
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE sal (region VARCHAR(5), prod VARCHAR(5), amt INT)")
	mustExec(t, s, "INSERT INTO sal VALUES ('e','x',1), ('e','y',2), ('w','x',4)")
	r := mustQuery(t, s, "SELECT region, SUM(amt) FROM sal GROUP BY ROLLUP(region) ORDER BY 2")
	expectRows(t, r, "e|3", "w|4", "NULL|7")
	// A key named by several explicit sets stays set in each of them.
	r = mustQuery(t, s, "SELECT region, prod, SUM(amt) FROM sal GROUP BY GROUPING SETS ((region, prod), (region), ()) ORDER BY 3, 1, 2")
	expectRows(t, r, "e|x|1", "e|y|2", "e|NULL|3", "w|NULL|4", "w|x|4", "NULL|NULL|7")
	// CloudA does not.
	e2 := New(dialect.CloudA())
	s2 := e2.NewSession()
	mustExec(t, s2, "CREATE TABLE sal (region VARCHAR(5), amt INT)")
	_, err := s2.ExecSQL("SELECT region, SUM(amt) FROM sal GROUP BY ROLLUP(region)")
	if err == nil || !strings.Contains(err.Error(), "GROUPING") {
		t.Fatalf("err = %v", err)
	}
}

func TestCorrelatedSubqueries(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT name FROM emp e
	  WHERE EXISTS (SELECT 1 FROM emp m WHERE m.empno = e.mgrno AND m.sal > 100)
	  ORDER BY name`)
	expectRows(t, r, "carol", "dave")
	r = mustQuery(t, s, `
	  SELECT name, (SELECT COUNT(*) FROM emp sub WHERE sub.mgrno = e.empno) AS reports
	  FROM emp e ORDER BY empno`)
	expectRows(t, r, "alice|0", "bob|1", "carol|1", "dave|0", "erin|2")
}

func TestInSubqueryAndValues(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT name FROM emp WHERE empno IN (SELECT mgrno FROM emp) ORDER BY name")
	expectRows(t, r, "bob", "carol", "erin")
	r = mustQuery(t, s, "SELECT name FROM emp WHERE empno NOT IN (1, 7, 8) ORDER BY empno")
	expectRows(t, r, "dave", "erin")
	// NOT IN with NULL in the list yields no rows for non-matching values.
	r = mustQuery(t, s, "SELECT COUNT(*) FROM emp WHERE empno NOT IN (1, NULL)")
	expectRows(t, r, "0")
}

func TestQuantifiedAll(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT name FROM emp WHERE sal >= ALL (SELECT sal FROM emp WHERE sal IS NOT NULL)")
	expectRows(t, r, "erin")
}

func TestLikeMatching(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT name FROM emp WHERE name LIKE 'a%' OR name LIKE '_ob' ORDER BY name")
	expectRows(t, r, "alice", "bob")
	r = mustQuery(t, s, "SELECT name FROM emp WHERE name NOT LIKE '%a%' ORDER BY name")
	expectRows(t, r, "bob", "erin")
	r = mustQuery(t, s, "SELECT COUNT(*) FROM emp WHERE name LIKE '%'")
	expectRows(t, r, "5")
}

func TestStringFunctions(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT UPPER(name), CHAR_LENGTH(name), SUBSTR(name, 2, 3), POSITION('li', name)
	  FROM emp WHERE empno = 1`)
	expectRows(t, r, "ALICE|5|lic|2")
}

func TestDateFunctions(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT EXTRACT(YEAR FROM hired), EXTRACT(MONTH FROM hired), hired + 30, ADD_MONTHS(hired, 2)
	  FROM emp WHERE empno = 1`)
	expectRows(t, r, "2014|1|2014-02-01|2014-03-02")
}

func TestCaseExpression(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT name, CASE WHEN sal > 100 THEN 'high' WHEN sal IS NULL THEN 'unknown' ELSE 'low' END
	  FROM emp ORDER BY empno`)
	expectRows(t, r, "alice|high", "bob|low", "carol|low", "dave|unknown", "erin|high")
}

func TestCoalesceNullif(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT COALESCE(sal, 0), NULLIF(empno, 1) FROM emp WHERE empno = 1")
	expectRows(t, r, "120.00|NULL")
}

func TestUpdateDelete(t *testing.T) {
	s := fullSession(t)
	rs := mustExec(t, s, "UPDATE emp SET sal = sal * 2 WHERE empno = 1")
	if rs[0].RowsAffected != 1 {
		t.Fatalf("update affected = %d", rs[0].RowsAffected)
	}
	r := mustQuery(t, s, "SELECT sal FROM emp WHERE empno = 1")
	expectRows(t, r, "240.00")
	rs = mustExec(t, s, "DELETE FROM emp WHERE sal IS NULL")
	if rs[0].RowsAffected != 1 {
		t.Fatalf("delete affected = %d", rs[0].RowsAffected)
	}
	r = mustQuery(t, s, "SELECT COUNT(*) FROM emp")
	expectRows(t, r, "4")
}

func TestUpdateWithCorrelatedSubquery(t *testing.T) {
	s := fullSession(t)
	mustExec(t, s, `
	  UPDATE emp SET sal = (SELECT MAX(sal) FROM emp m WHERE m.mgrno = emp.mgrno)
	  WHERE EXISTS (SELECT 1 FROM emp m WHERE m.mgrno = emp.mgrno AND m.sal IS NOT NULL)`)
	r := mustQuery(t, s, "SELECT name, sal FROM emp WHERE mgrno = 10 ORDER BY name")
	expectRows(t, r, "carol|90.50", "dave|90.50")
}

func TestNotNullEnforcement(t *testing.T) {
	e := New(dialect.TeradataProfile())
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE nn (a INT NOT NULL, b INT)")
	if _, err := s.ExecSQL("INSERT INTO nn (b) VALUES (1)"); err == nil {
		t.Fatal("NULL accepted in NOT NULL column")
	}
	if _, err := s.ExecSQL("INSERT INTO nn VALUES (NULL, 1)"); err == nil {
		t.Fatal("explicit NULL accepted in NOT NULL column")
	}
	mustExec(t, s, "INSERT INTO nn VALUES (1, NULL)")
}

func TestDefaults(t *testing.T) {
	e := New(dialect.TeradataProfile())
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE d (a INT, b VARCHAR(10) DEFAULT 'none', c INT DEFAULT 7)")
	mustExec(t, s, "INSERT INTO d (a) VALUES (1)")
	r := mustQuery(t, s, "SELECT a, b, c FROM d")
	expectRows(t, r, "1|none|7")
}

func TestTemporaryTablesSessionScoped(t *testing.T) {
	e := New(dialect.TeradataProfile())
	s1 := e.NewSession()
	s2 := e.NewSession()
	mustExec(t, s1, "CREATE TEMP TABLE scratch (x INT)")
	mustExec(t, s1, "INSERT INTO scratch VALUES (1), (2)")
	r := mustQuery(t, s1, "SELECT COUNT(*) FROM scratch")
	expectRows(t, r, "2")
	if _, err := s2.ExecSQL("SELECT * FROM scratch"); err == nil {
		t.Fatal("temp table visible in other session")
	}
	mustExec(t, s1, "DROP TABLE scratch")
	if _, err := s1.ExecSQL("SELECT * FROM scratch"); err == nil {
		t.Fatal("temp table survived drop")
	}
}

func TestCTAS(t *testing.T) {
	s := fullSession(t)
	rs := mustExec(t, s, "CREATE TABLE rich AS (SELECT name, sal FROM emp WHERE sal > 100) WITH DATA")
	if rs[0].RowsAffected != 2 {
		t.Fatalf("ctas rows = %d", rs[0].RowsAffected)
	}
	r := mustQuery(t, s, "SELECT COUNT(*) FROM rich")
	expectRows(t, r, "2")
}

func TestViews(t *testing.T) {
	s := fullSession(t)
	mustExec(t, s, "CREATE VIEW seniors AS SELECT name, sal FROM emp WHERE sal > 100")
	r := mustQuery(t, s, "SELECT name FROM seniors ORDER BY name")
	expectRows(t, r, "alice", "erin")
	mustExec(t, s, "DROP VIEW seniors")
	if _, err := s.ExecSQL("SELECT * FROM seniors"); err == nil {
		t.Fatal("view survived drop")
	}
}

func TestCastsAndArithmetic(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT CAST(sal AS INTEGER), CAST(empno AS VARCHAR(5)), sal / 2 FROM emp WHERE empno = 1")
	expectRows(t, r, "120|1|60.0000")
	if _, err := s.ExecSQL("SELECT CAST(name AS INTEGER) FROM emp"); err == nil {
		t.Fatal("bad cast accepted")
	}
}

func TestDivisionByZeroError(t *testing.T) {
	s := fullSession(t)
	if _, err := s.ExecSQL("SELECT empno / 0 FROM emp"); err == nil {
		t.Fatal("division by zero not surfaced")
	}
}

func TestScalarSubqueryCardinalityError(t *testing.T) {
	s := fullSession(t)
	if _, err := s.ExecSQL("SELECT (SELECT empno FROM emp) FROM emp"); err == nil {
		t.Fatal("multi-row scalar subquery accepted")
	}
}

func TestDerivedTables(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, `
	  SELECT big.name FROM (SELECT name, sal FROM emp WHERE sal > 100) AS big (name, salary)
	  WHERE big.salary < 150`)
	expectRows(t, r, "alice")
}

func TestInsertSelect(t *testing.T) {
	s := fullSession(t)
	mustExec(t, s, "CREATE TABLE arch (name VARCHAR(20), sal DECIMAL(10,2))")
	rs := mustExec(t, s, "INSERT INTO arch SELECT name, sal FROM emp WHERE sal IS NOT NULL")
	if rs[0].RowsAffected != 4 {
		t.Fatalf("insert-select rows = %d", rs[0].RowsAffected)
	}
}

func TestTxnNoOps(t *testing.T) {
	s := fullSession(t)
	rs := mustExec(t, s, "BEGIN; COMMIT; ROLLBACK;")
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
}

func TestConcurrentSessions(t *testing.T) {
	e := New(dialect.TeradataProfile())
	setup := e.NewSession()
	mustExec(t, setup, "CREATE TABLE c (x INT)")
	mustExec(t, setup, "INSERT INTO c VALUES (1), (2), (3)")
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			s := e.NewSession()
			for j := 0; j < 50; j++ {
				if _, err := s.ExecSQL("SELECT SUM(x) FROM c"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDateCastFromTeradataInt(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT CAST(1140101 AS DATE)")
	expectRows(t, r, "2014-01-01")
}

func TestConcatOperator(t *testing.T) {
	s := fullSession(t)
	r := mustQuery(t, s, "SELECT name || '-' || CAST(empno AS VARCHAR(5)) FROM emp WHERE empno = 1")
	expectRows(t, r, "alice-1")
}

func TestBulkInsertRows(t *testing.T) {
	e := New(dialect.TeradataProfile())
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE bulk (a INT, b VARCHAR(5))")
	rows := [][]types.Datum{
		{types.NewInt(1), types.NewString("x")},
		{types.NewInt(2), types.NewString("y")},
	}
	if err := s.InsertRows("bulk", rows); err != nil {
		t.Fatal(err)
	}
	n, err := s.RowCount("bulk")
	if err != nil || n != 2 {
		t.Fatalf("count = %d, %v", n, err)
	}
	if err := s.InsertRows("bulk", [][]types.Datum{{types.NewInt(1)}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}
