package hyperq

import (
	"bytes"
	"fmt"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/feature"
	"hyperq/internal/israce"
	"hyperq/internal/wire/tdp"
)

// selfReferencingRecursion is a Figure 7 query: on CloudA it runs as the
// work-table protocol, a dozen backend requests.
const selfReferencingRecursion = `WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS (
	    SEL EMPNO, MGRNO FROM EMP WHERE MGRNO = 10
	    UNION ALL
	    SEL EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS WHERE REPORTS.EMPNO = EMP.MGRNO
	  ) SEL EMPNO FROM REPORTS ORDER BY EMPNO`

// A request enters the request tier exactly when it ran as one cacheable
// translation: one statement, not batched, not emulated in several backend
// requests, not bound to macro parameters or session objects. Each request
// runs once on a fresh gateway; then its R| key is looked up.
func TestRequestTierEligibility(t *testing.T) {
	for _, tc := range []struct {
		name   string
		setup  []string
		sql    string
		filled bool
	}{
		{name: "select", sql: "SEL STORE FROM SALES WHERE AMOUNT > 90", filled: true},
		{name: "insert", sql: "INSERT INTO SALES VALUES (1.00, DATE '2014-01-01', 9)", filled: true},
		{name: "update", sql: "UPDATE SALES SET AMOUNT = 1.00 WHERE STORE = 3", filled: true},
		{name: "delete", sql: "DELETE FROM SALES WHERE STORE = 3", filled: true},
		{name: "set-table insert values", setup: []string{"CREATE SET TABLE ST (A INT)"},
			sql: "INSERT INTO ST VALUES (1)", filled: true},
		{name: "set-table insert select", setup: []string{"CREATE SET TABLE ST (A INT)"},
			sql: "INSERT INTO ST SEL STORE FROM SALES", filled: true},
		{name: "recursive keyword without self-reference",
			sql: "WITH RECURSIVE R (S) AS (SEL STORE FROM SALES) SEL S FROM R", filled: true},

		{name: "two statements", sql: "SEL 1; SEL 2"},
		{name: "insert batch", sql: "INS INTO SALES VALUES (1.00, DATE '2014-01-01', 9); INS INTO SALES VALUES (2.00, DATE '2014-01-02', 9)"},
		{name: "self-referencing recursion", sql: selfReferencingRecursion},
		{name: "macro", setup: []string{"CREATE MACRO M (X INT) AS (SEL STORE FROM SALES WHERE STORE = :X;)"},
			sql: "EXEC M(1)"},
		{name: "begin transaction", sql: "BT"},
		{name: "explain", sql: "EXPLAIN SEL STORE FROM SALES WHERE AMOUNT > 90"},
		{name: "merge", setup: []string{"CREATE TABLE TGT (K INT, V INT)", "CREATE TABLE SRC (K INT, V INT)"},
			sql: "MERGE INTO TGT USING SRC ON TGT.K = SRC.K WHEN MATCHED THEN UPDATE SET V = SRC.V WHEN NOT MATCHED THEN INSERT (K, V) VALUES (SRC.K, SRC.V)"},
		{name: "volatile table", setup: []string{"CREATE VOLATILE TABLE VT (A INT) ON COMMIT PRESERVE ROWS"},
			sql: "SEL A FROM VT"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := newTestGateway(t, dialect.CloudA())
			s := session(t, g)
			defer s.Close()
			for _, sql := range tc.setup {
				run(t, s, sql)
			}
			run(t, s, tc.sql)
			if filled := g.cache.get(s.cacheKey("R", tc.sql)) != nil; filled != tc.filled {
				t.Fatalf("request tier filled = %v, want %v", filled, tc.filled)
			}
		})
	}
}

// Emulation protocols answer as one composite response, so none of their
// results streams — even with streaming on, each gives the parcels a
// DisableStreaming stack gives, and the streamed-result count stays put. A
// top-level SELECT on the same stack does stream, and so does a WITH
// RECURSIVE query without a self-reference: it runs as one statement, on its
// first run as on its request-tier repeats (three runs stream three results).
func TestCompositesNeverStream(t *testing.T) {
	target := dialect.CloudA()
	setup := []string{
		"CREATE MACRO SM (S INT) AS (SEL AMOUNT FROM SALES WHERE STORE = :S ORDER BY AMOUNT;)",
		"CREATE TABLE TGT (K INT, V INT)",
		"CREATE TABLE SRC (K INT, V INT)",
		"INSERT INTO TGT VALUES (1, 10)",
		"INSERT INTO SRC VALUES (1, 100)",
		"INSERT INTO SRC VALUES (2, 200)",
		"CREATE SET TABLE ST (A INT)",
	}
	newSide := func(disable bool) (*rawConn, *Gateway) {
		_, eng := newTestGateway(t, target)
		st := newStreamStack(t, target, eng, Config{DisableStreaming: disable}, tdp.Options{})
		c := dialRaw(t, st.addr)
		for _, sql := range setup {
			for _, p := range transcript(t, c, sql) {
				if p.kind == tdp.MsgFailure {
					t.Fatalf("setup %q failed: %s", sql, p.payload)
				}
			}
		}
		return c, st.g
	}
	streamed, sg := newSide(false)
	defer streamed.close()
	buffered, _ := newSide(true)
	defer buffered.close()

	same := func(sql string) {
		t.Helper()
		a, b := transcript(t, streamed, sql), transcript(t, buffered, sql)
		if len(a) != len(b) {
			t.Fatalf("%q: streamed %d parcels, buffered %d", sql, len(a), len(b))
		}
		for i := range a {
			if a[i].kind == tdp.MsgFailure {
				t.Fatalf("%q failed: %s", sql, a[i].payload)
			}
			if a[i].kind != b[i].kind || !bytes.Equal(a[i].payload, b[i].payload) {
				t.Fatalf("%q: parcel %d diverged:\nstreamed 0x%02x %x\nbuffered 0x%02x %x",
					sql, i, a[i].kind, a[i].payload, b[i].kind, b[i].payload)
			}
		}
	}
	for _, sql := range []string{
		selfReferencingRecursion,
		"EXEC SM(2)",
		"MERGE INTO TGT USING SRC ON TGT.K = SRC.K WHEN MATCHED THEN UPDATE SET V = SRC.V WHEN NOT MATCHED THEN INSERT (K, V) VALUES (SRC.K, SRC.V)",
		"INSERT INTO ST SEL STORE FROM SALES",
	} {
		before := sg.MetricsSnapshot().StreamedResults
		same(sql)
		if after := sg.MetricsSnapshot().StreamedResults; after != before {
			t.Errorf("%q streamed %d results inside a composite", sql, after-before)
		}
	}
	before := sg.MetricsSnapshot().StreamedResults
	same("SEL STORE, AMOUNT FROM SALES ORDER BY AMOUNT, STORE")
	if n := sg.MetricsSnapshot().StreamedResults - before; n != 1 {
		t.Fatalf("top-level SELECT streamed %d results, want 1", n)
	}
	before = sg.MetricsSnapshot().StreamedResults
	for run := int64(1); run <= 3; run++ {
		same("WITH RECURSIVE R (S) AS (SEL STORE FROM SALES) SEL S FROM R ORDER BY S")
		if n := sg.MetricsSnapshot().StreamedResults - before; n != run {
			t.Fatalf("WITH RECURSIVE without a self-reference, run %d: %d results streamed, want %d", run, n, run)
		}
	}
}

// The cache-hit allocation gates (DESIGN.md §6): a request-tier hit replays
// a stored plan without parsing; a fingerprint-tier hit parses, fingerprints
// and instantiates the template with new literals (and fills the request tier
// with the result). Each budget is the count measured when it was set; it may
// only go down.
func TestCacheHitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's runtime changes allocation counts")
	}
	const shape = "SEL STORE FROM SALES WHERE AMOUNT > %d"
	for _, tc := range []struct {
		name   string
		vary   bool
		budget float64
	}{
		{name: "request tier", budget: 104},
		{name: "fingerprint tier", vary: true, budget: 129},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := newTestGateway(t, dialect.CloudA())
			s := session(t, g)
			defer s.Close()
			const runs = 100
			sqls := make([]string, runs+2)
			for i := range sqls {
				lit := 90
				if tc.vary {
					lit += i
				}
				sqls[i] = fmt.Sprintf(shape, lit)
			}
			run(t, s, sqls[0]) // the miss that fills both tiers
			i := 1
			got := testing.AllocsPerRun(runs, func() {
				if _, err := s.Run(sqls[i]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			t.Logf("%s: %.0f allocs/request", tc.name, got)
			if got > tc.budget {
				t.Errorf("%s: %.0f allocs/request, budget %.0f", tc.name, got, tc.budget)
			}
		})
	}
}

// EXPLAIN runs no statement, so it records no feature of the one it
// explains; the statement that follows it in the same request records its
// own features once.
func TestExplainRecordsNoFeatures(t *testing.T) {
	g, _ := newTestGateway(t, dialect.CloudA())
	s := session(t, g)
	defer s.Close()
	const qualify = "SEL STORE, AMOUNT FROM SALES QUALIFY RANK() OVER (ORDER BY AMOUNT DESC) <= 2"
	calls := func(id feature.ID) int64 { return g.Statements().Features().Features[id].Calls }

	run(t, s, "EXPLAIN "+qualify)
	for _, id := range []feature.ID{feature.Qualify, feature.SelAbbrev} {
		if n := calls(id); n != 0 {
			t.Errorf("EXPLAIN recorded %s %d times", feature.Lookup(id).Name, n)
		}
	}
	run(t, s, "EXPLAIN "+qualify+"; "+qualify)
	if n := calls(feature.Qualify); n != 1 {
		t.Errorf("EXPLAIN …; SEL … QUALIFY recorded QUALIFY %d times, want 1", n)
	}
}
