// Package hyperqbench holds the benchmark harness regenerating every table
// and figure of the paper's evaluation (one testing.B benchmark per
// artifact), plus ablation benchmarks for the design choices DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
package hyperqbench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"hyperq/internal/bench"
	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/feature"
	"hyperq/internal/odbc"
	"hyperq/internal/parser"
	"hyperq/internal/serializer"
	"hyperq/internal/transform"
	"hyperq/internal/workload/customer"
	"hyperq/internal/workload/tpch"

	"hyperq/internal/binder"
	"hyperq/internal/hyperq"
)

// benchSF is the TPC-H scale factor used by the Figure 9 benchmarks. The
// paper ran 1 TB on a 2-node cluster; the in-memory substrate runs a reduced
// scale — the measured quantity (gateway share of response time) does not
// depend on absolute size once execution dominates.
const benchSF = 0.002

// --- Figure 2 --------------------------------------------------------------

// BenchmarkFig2FeatureMatrix regenerates the feature support matrix.
func BenchmarkFig2FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig2(io.Discard)
	}
}

// --- Table 1 ----------------------------------------------------------------

// BenchmarkTable1WorkloadGeneration generates both paper-size customer
// workloads (39,731 + 192,753 queries).
func BenchmarkTable1WorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w1 := customer.Generate(customer.Workload1())
		w2 := customer.Generate(customer.Workload2())
		if customer.TotalOf(w1) != 39731 || customer.TotalOf(w2) != 192753 {
			b.Fatal("generation drifted from Table 1")
		}
	}
}

// --- Figure 8 ----------------------------------------------------------------

// BenchmarkFig8WorkloadStudy replays the (scaled) customer workloads through
// the instrumented gateway and verifies the recovered class statistics.
func BenchmarkFig8WorkloadStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := bench.Fig8(io.Discard, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if results[1].QueryPct[feature.ClassEmulation] < 70 {
			b.Fatalf("W2 emulation pct = %.1f", results[1].QueryPct[feature.ClassEmulation])
		}
	}
}

// --- Figure 9(a) --------------------------------------------------------------

// BenchmarkFig9aTPCHOverhead runs the 22-query single stream per iteration
// and reports the gateway overhead percentage as a custom metric.
func BenchmarkFig9aTPCHOverhead(b *testing.B) {
	g, err := bench.NewTPCHGateway(dialect.CloudA(), benchSF)
	if err != nil {
		b.Fatal(err)
	}
	s, err := g.NewLocalSession("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Warm up outside the timer.
	for _, qn := range tpch.QueryNumbers() {
		if _, err := s.Run(tpch.Queries[qn]); err != nil {
			b.Fatalf("Q%d: %v", qn, err)
		}
	}
	g.ResetMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qn := range tpch.QueryNumbers() {
			if _, err := s.Run(tpch.Queries[qn]); err != nil {
				b.Fatalf("Q%d: %v", qn, err)
			}
		}
	}
	b.StopTimer()
	m := g.MetricsSnapshot()
	b.ReportMetric(100*m.Overhead(), "overhead-%")
	b.ReportMetric(float64(m.Translate.Microseconds())/float64(m.Requests), "translate-µs/query")
	b.ReportMetric(float64(m.Convert.Microseconds())/float64(m.Requests), "convert-µs/query")
}

// --- Figure 9(b) --------------------------------------------------------------

// BenchmarkFig9bStress runs the ten-session concurrent mix per iteration.
func BenchmarkFig9bStress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig9b(io.Discard, dialect.CloudA(), benchSF, 10, 27)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverheadPct, "overhead-%")
	}
}

// --- per-component benchmarks -------------------------------------------------

// translationFixture builds the catalog and the bound-translation closure
// for the paper's Example 2.
func translationFixture(b *testing.B) func() string {
	eng := engine.New(dialect.CloudA())
	s := eng.NewSession()
	for _, ddl := range []string{
		"CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, STORE INT)",
		"CREATE TABLE SALES_HISTORY (GROSS DECIMAL(12,2), NET DECIMAL(12,2))",
	} {
		if _, err := s.ExecSQL(ddl); err != nil {
			b.Fatal(err)
		}
	}
	const example2 = `
	  SEL * FROM SALES
	  WHERE SALES_DATE > 1140101
	    AND (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY)
	  QUALIFY RANK(AMOUNT DESC) <= 10`
	target := dialect.CloudA()
	return func() string {
		rec := &feature.Recorder{}
		stmt, err := parser.ParseOne(example2, parser.Teradata, rec)
		if err != nil {
			b.Fatal(err)
		}
		bd := binder.New(s, parser.Teradata, rec)
		bound, err := bd.Bind(stmt)
		if err != nil {
			b.Fatal(err)
		}
		c := transform.NewContext(nil, rec, bd.MaxColumnID())
		mid, err := transform.BindingStage().Statement(bound, c)
		if err != nil {
			b.Fatal(err)
		}
		sql, err := serializer.New(target, rec).Serialize(mid)
		if err != nil {
			b.Fatal(err)
		}
		return sql
	}
}

// BenchmarkTranslationPipeline measures the full parse→bind→transform→
// serialize path on the paper's Example 2 (the "query translation time"
// component of Figure 9).
func BenchmarkTranslationPipeline(b *testing.B) {
	translate := translationFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if translate() == "" {
			b.Fatal("empty translation")
		}
	}
}

// --- Translation cache ------------------------------------------------------

// newCacheBenchGateway builds a TPC-H gateway with explicit cache settings.
func newCacheBenchGateway(b *testing.B, disableCache bool) *hyperq.Gateway {
	b.Helper()
	target := dialect.CloudA()
	eng := engine.New(target)
	if err := tpch.SetupEngine(eng.NewSession(), benchSF); err != nil {
		b.Fatal(err)
	}
	g, err := hyperq.New(hyperq.Config{
		Target:                  target,
		Driver:                  &odbc.LocalDriver{Engine: eng},
		Catalog:                 eng.Catalog().Clone(),
		DisableTranslationCache: disableCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTranslationCache measures the translation-time effect of the
// gateway statement cache on a repeated query shape: cold runs the full
// parse→bind→transform→serialize pipeline every time, warm replays
// byte-identical requests (request tier), and literal-variant replays the
// same shape with changing literal values (fingerprint tier). Translation
// time is taken from the gateway metrics so backend execution does not
// pollute the comparison.
func BenchmarkTranslationCache(b *testing.B) {
	const shape = "SEL L_RETURNFLAG, L_LINESTATUS, SUM(L_QUANTITY), COUNT(*) FROM LINEITEM WHERE L_QUANTITY < %d GROUP BY L_RETURNFLAG, L_LINESTATUS ORDER BY L_RETURNFLAG, L_LINESTATUS"
	runCase := func(b *testing.B, disableCache bool, query func(i int) string) {
		g := newCacheBenchGateway(b, disableCache)
		s, err := g.NewLocalSession("bench")
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		// Warm up (fills the cache when enabled) outside the measurement.
		for i := 0; i < 8; i++ {
			if _, err := s.Run(query(i)); err != nil {
				b.Fatal(err)
			}
		}
		g.ResetMetrics()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(query(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		m := g.MetricsSnapshot()
		b.ReportMetric(float64(m.Translate.Microseconds())/float64(m.Requests), "translate-µs/query")
		b.ReportMetric(float64(m.CacheHits), "hits")
		b.ReportMetric(float64(m.CacheMisses), "misses")
	}
	b.Run("cold", func(b *testing.B) {
		runCase(b, true, func(int) string { return fmt.Sprintf(shape, 30) })
	})
	b.Run("warm", func(b *testing.B) {
		runCase(b, false, func(int) string { return fmt.Sprintf(shape, 30) })
	})
	b.Run("literal-variant", func(b *testing.B) {
		runCase(b, false, func(i int) string { return fmt.Sprintf(shape, 10+i%40) })
	})
}

// --- observability overhead ---------------------------------------------------

// BenchmarkTracedTranslate measures the cost of per-request observability on
// the full gateway pipeline. Literal-variant queries defeat the raw result
// cache so every iteration runs parse→bind→transform→serialize→execute→
// convert; "traced" runs tracing plus the workload-statistics registry and
// SLO tracking (the full observability tax), "nostats" runs tracing with the
// registry disabled (isolating the wstats share), and "untraced" disables
// tracing (histograms record in all modes). The observability tax must stay
// under a few percent of request time, and steady-state registry recording
// must not allocate — the literal variants all share one statement shape, so
// after warm-up every iteration is a recording hit.
func BenchmarkTracedTranslate(b *testing.B) {
	for _, tc := range tracedTranslateCases {
		b.Run(tc.name, func(b *testing.B) {
			run := tracedTranslateFixture(b, tc.disableTracing, tc.disableStats)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
		})
	}
}

var tracedTranslateCases = []struct {
	name           string
	disableTracing bool
	disableStats   bool
}{
	{name: "traced"},
	{name: "untraced", disableTracing: true, disableStats: true},
	{name: "nostats", disableStats: true},
}

// tracedTranslateFixture builds a warmed-up session over a TPC-H gateway with
// the translation cache off and returns the function sending the i-th
// literal variant through it.
func tracedTranslateFixture(tb testing.TB, disableTracing, disableStats bool) func(i int) {
	tb.Helper()
	const shape = "SEL L_RETURNFLAG, COUNT(*) FROM LINEITEM WHERE L_QUANTITY < %d GROUP BY L_RETURNFLAG"
	target := dialect.CloudA()
	eng := engine.New(target)
	if err := tpch.SetupEngine(eng.NewSession(), benchSF); err != nil {
		tb.Fatal(err)
	}
	g, err := hyperq.New(hyperq.Config{
		Target:                  target,
		Driver:                  &odbc.LocalDriver{Engine: eng},
		Catalog:                 eng.Catalog().Clone(),
		DisableTranslationCache: true, // full pipeline every request
		DisableTracing:          disableTracing,
		DisableStatStatements:   disableStats,
		SLO:                     100 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := g.NewLocalSession("bench")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	run := func(i int) {
		if _, err := s.Run(fmt.Sprintf(shape, 10+i%40)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm up outside the measurement
		run(i)
	}
	return run
}

// The translate-path allocation budgets (DESIGN.md §11): one uncached
// request through the full pipeline — engine execution included — must stay
// within them with the whole observability stack on ("traced": tracing,
// the statistics registry, SLO tracking) and with the registry off
// ("nostats"). That the two fit the same budget is the proof that
// steady-state recording allocates nothing. The allocation budget is the
// 270 measured on the reference VM plus 20 %.
const (
	translateAllocsBudget = 324
	translateBytesBudget  = 128 << 10
)

func TestTracedTranslateAllocBudget(t *testing.T) {
	for _, tc := range tracedTranslateCases {
		if tc.disableTracing {
			continue
		}
		run := tracedTranslateFixture(t, tc.disableTracing, tc.disableStats)
		const n = 100
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			run(i)
		}
		runtime.ReadMemStats(&m1)
		allocs, bytes := (m1.Mallocs-m0.Mallocs)/n, (m1.TotalAlloc-m0.TotalAlloc)/n
		t.Logf("%s: %d allocs/op, %d B/op", tc.name, allocs, bytes)
		if allocs > translateAllocsBudget || bytes > translateBytesBudget {
			t.Errorf("%s: %d allocs/op (budget %d), %d B/op (budget %d)",
				tc.name, allocs, translateAllocsBudget, bytes, translateBytesBudget)
		}
	}
}

// BenchmarkResultConversion measures the Result Converter path in isolation:
// a wide SELECT whose output is dominated by conversion work.
func BenchmarkResultConversion(b *testing.B) {
	g, err := bench.NewTPCHGateway(dialect.CloudA(), benchSF)
	if err != nil {
		b.Fatal(err)
	}
	s, err := g.NewLocalSession("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const q = "SEL * FROM lineitem"
	if _, err := s.Run(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := g.MetricsSnapshot()
	b.ReportMetric(100*float64(m.Convert)/float64(m.Translate+m.Execute+m.Convert), "convert-%")
}

// --- ablations ---------------------------------------------------------------

// BenchmarkAblationPushdown compares a comma-join query with the
// predicate-pushdown performance transformation enabled vs disabled
// (DESIGN.md: performance transformations in the Transformer, §4.3). A
// two-table join is used so the disabled variant stays tractable — with
// pushdown the equijoin hashes; without it the engine materializes the
// cross product and filters.
func BenchmarkAblationPushdown(b *testing.B) {
	const rows = 2000
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			eng := engine.New(dialect.CloudA())
			be := eng.NewSession()
			for _, ddl := range []string{
				"CREATE TABLE pa (k INT, v INT)",
				"CREATE TABLE pb (k INT, w INT)",
			} {
				if _, err := be.ExecSQL(ddl); err != nil {
					b.Fatal(err)
				}
			}
			var pa, pb strings.Builder
			pa.WriteString("INSERT INTO pa VALUES (0, 0)")
			pb.WriteString("INSERT INTO pb VALUES (0, 0)")
			for i := 1; i < rows; i++ {
				fmt.Fprintf(&pa, ",(%d,%d)", i, i%97)
				fmt.Fprintf(&pb, ",(%d,%d)", i, i%89)
			}
			if _, err := be.ExecSQL(pa.String()); err != nil {
				b.Fatal(err)
			}
			if _, err := be.ExecSQL(pb.String()); err != nil {
				b.Fatal(err)
			}
			eng.SetOptimizerEnabled(on)
			g, err := hyperq.New(hyperq.Config{
				Target:  dialect.CloudA(),
				Driver:  &odbc.LocalDriver{Engine: eng},
				Catalog: eng.Catalog().Clone(),
			})
			if err != nil {
				b.Fatal(err)
			}
			s, err := g.NewLocalSession("bench")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run("SEL COUNT(*) FROM pa, pb WHERE pa.k = pb.k AND pa.v > 10 AND pb.w > 10"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRecursionStrategy compares native recursion against the
// Figure 7 temp-table emulation for the same query. Both sides are CloudA's
// row; only CapRecursive differs.
func BenchmarkAblationRecursionStrategy(b *testing.B) {
	const recursive = `
	  WITH RECURSIVE r (empno, mgrno) AS (
	    SEL empno, mgrno FROM hier WHERE mgrno = 0
	    UNION ALL
	    SEL hier.empno, hier.mgrno FROM hier, r WHERE r.empno = hier.mgrno
	  )
	  SEL COUNT(*) FROM r`
	native := dialect.CloudA()
	native.Caps |= dialect.CapsOf(dialect.CapRecursive)
	for _, target := range []*dialect.Profile{native, dialect.CloudA()} {
		mode := "emulated"
		if target.Supports(dialect.CapRecursive) {
			mode = "native"
		}
		b.Run(mode, func(b *testing.B) {
			eng := engine.New(target)
			be := eng.NewSession()
			if _, err := be.ExecSQL("CREATE TABLE hier (empno INT, mgrno INT)"); err != nil {
				b.Fatal(err)
			}
			// A 5-level chain of 50 employees under manager 0.
			sql := "INSERT INTO hier VALUES (1, 0)"
			for i := 2; i <= 50; i++ {
				sql += fmt.Sprintf(", (%d, %d)", i, i/2)
			}
			if _, err := be.ExecSQL(sql); err != nil {
				b.Fatal(err)
			}
			g, err := hyperq.New(hyperq.Config{
				Target:  target,
				Driver:  &odbc.LocalDriver{Engine: eng},
				Catalog: eng.Catalog().Clone(),
			})
			if err != nil {
				b.Fatal(err)
			}
			s, err := g.NewLocalSession("bench")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(recursive); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMacroEmulation measures the cost of mid-tier macro
// execution vs submitting the body directly.
func BenchmarkAblationMacroEmulation(b *testing.B) {
	eng := engine.New(dialect.CloudA())
	be := eng.NewSession()
	for _, ddl := range customer.SchemaDDL {
		if _, err := be.ExecSQL(ddl); err != nil {
			b.Fatal(err)
		}
	}
	g, err := hyperq.New(hyperq.Config{
		Target:  dialect.CloudA(),
		Driver:  &odbc.LocalDriver{Engine: eng},
		Catalog: eng.Catalog().Clone(),
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := g.NewLocalSession("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run("CREATE MACRO m (lim INTEGER) AS (SELECT acct, SUM(amount) AS total FROM cust_txn WHERE acct <= :lim GROUP BY acct;)"); err != nil {
		b.Fatal(err)
	}
	b.Run("exec-macro", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Run("EXEC m(3)"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-sql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Run("SELECT acct, SUM(amount) AS total FROM cust_txn WHERE acct <= 3 GROUP BY acct"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDMLBatching compares a 50-statement single-row INSERT
// storm with the §4.3 batching transformation (one backend statement) against
// the same inserts submitted one request at a time (no batching possible).
func BenchmarkAblationDMLBatching(b *testing.B) {
	storm := func() string {
		var sb strings.Builder
		for i := 0; i < 50; i++ {
			fmt.Fprintf(&sb, "INS storm (%d, %d);\n", i, i*i)
		}
		return sb.String()
	}()
	newSess := func(b *testing.B) *hyperq.Session {
		eng := engine.New(dialect.CloudA())
		if _, err := eng.NewSession().ExecSQL("CREATE TABLE storm (a INT, b INT)"); err != nil {
			b.Fatal(err)
		}
		g, err := hyperq.New(hyperq.Config{
			Target:  dialect.CloudA(),
			Driver:  &odbc.LocalDriver{Engine: eng},
			Catalog: eng.Catalog().Clone(),
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := g.NewLocalSession("bench")
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("batched-request", func(b *testing.B) {
		s := newSess(b)
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(storm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-by-one", func(b *testing.B) {
		s := newSess(b)
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 50; j++ {
				if _, err := s.Run(fmt.Sprintf("INS storm (%d, %d)", j, j*j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
