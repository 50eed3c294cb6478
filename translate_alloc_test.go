package hyperqbench

import (
	"testing"

	"hyperq/internal/binder"
	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/feature"
	"hyperq/internal/fingerprint"
	"hyperq/internal/hyperq"
	"hyperq/internal/israce"
	"hyperq/internal/odbc"
	"hyperq/internal/parser"
	"hyperq/internal/serializer"
	"hyperq/internal/sqlast"
	"hyperq/internal/transform"
	"hyperq/internal/workload/customer"
	"hyperq/internal/xtra"
)

// The translate-stage allocation budgets (DESIGN.md §11), per statement over
// Workload 1's distinct translatable statements on CloudA: bind, the binding
// stage's transform, and a lifted serialize, resolved through a gateway
// session the way a request is. Measured 16.0 + 3.1 + 8.5 = 27.6 on the
// 2-vCPU reference VM; each budget is the measurement plus a small margin.
const (
	bindAllocsBudget      = 18
	serializeAllocsBudget = 10
	translateStmtBudget   = 30
)

// w1Translatable returns a provisioned customer gateway session and the
// Workload 1 statements that go through bind → transform → serialize on it,
// with their literals numbered by the fingerprint pass as on a cache fill.
func w1Translatable(tb testing.TB) (*hyperq.Session, []sqlast.Statement) {
	tb.Helper()
	target := dialect.CloudA()
	eng := engine.New(target)
	be := eng.NewSession()
	for _, ddl := range customer.SchemaDDL {
		if _, err := be.ExecSQL(ddl); err != nil {
			tb.Fatal(err)
		}
	}
	g, err := hyperq.New(hyperq.Config{Target: target, Driver: &odbc.LocalDriver{Engine: eng}, Catalog: eng.Catalog().Clone()})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := g.NewLocalSession("alloc")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	for _, sql := range customer.GatewaySetup {
		if _, err := s.Run(sql); err != nil {
			tb.Fatal(err)
		}
	}
	seen := map[string]bool{}
	var stmts []sqlast.Statement
	for _, q := range customer.Generate(customer.Workload1()) {
		if seen[q.SQL] {
			continue
		}
		seen[q.SQL] = true
		parsed, err := parser.Parse(q.SQL, parser.Teradata, nil)
		if err != nil || len(parsed) != 1 {
			continue
		}
		switch parsed[0].(type) {
		case *sqlast.SelectStmt, *sqlast.InsertStmt, *sqlast.UpdateStmt, *sqlast.DeleteStmt:
		default:
			continue
		}
		fingerprint.Statement(parsed[0])
		if _, err := binder.New(s, parser.Teradata, nil).Bind(parsed[0]); err != nil {
			continue
		}
		stmts = append(stmts, parsed[0])
	}
	if len(stmts) < 500 {
		tb.Fatalf("only %d translatable Workload 1 statements; generation drifted", len(stmts))
	}
	return s, stmts
}

// TestTranslateAllocsPerStatement pins the allocation count of the three
// translation stages after the parser. A stage that starts building strings
// or maps per column, or re-walking the plan, shows here as a count, which
// does not drift with machine load the way a time does.
func TestTranslateAllocsPerStatement(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's runtime changes allocation counts")
	}
	s, stmts := w1Translatable(t)
	target := dialect.CloudA()
	rec := &feature.Recorder{}
	bound := make([]xtra.Statement, len(stmts))
	maxCol := make([]xtra.ColumnID, len(stmts))
	mid := make([]xtra.Statement, len(stmts))
	n := float64(len(stmts))
	bind := testing.AllocsPerRun(3, func() {
		for i, st := range stmts {
			b := binder.New(s, parser.Teradata, rec)
			var err error
			if bound[i], err = b.Bind(st); err != nil {
				t.Fatal(err)
			}
			maxCol[i] = b.MaxColumnID()
		}
	}) / n
	xform := testing.AllocsPerRun(3, func() {
		for i := range stmts {
			var err error
			c := transform.NewContext(nil, rec, maxCol[i])
			if mid[i], err = transform.BindingStage().Statement(bound[i], c); err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	ser := testing.AllocsPerRun(3, func() {
		for i := range stmts {
			if _, err := serializer.New(target, rec).LiftLiterals().Serialize(mid[i]); err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	total := bind + xform + ser
	t.Logf("%d statements: bind %.1f + transform %.1f + serialize %.1f = %.1f allocs/stmt", len(stmts), bind, xform, ser, total)
	if bind > bindAllocsBudget || ser > serializeAllocsBudget || total > translateStmtBudget {
		t.Errorf("allocs/stmt: bind %.1f (budget %d), serialize %.1f (budget %d), total %.1f (budget %d)",
			bind, bindAllocsBudget, ser, serializeAllocsBudget, total, translateStmtBudget)
	}
}

// BenchmarkTranslateStatements times bind → binding-stage transform →
// serialize per statement over Workload 1's translatable statements, the
// three stages TestTranslateAllocsPerStatement counts.
func BenchmarkTranslateStatements(b *testing.B) {
	s, stmts := w1Translatable(b)
	target := dialect.CloudA()
	rec := &feature.Recorder{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := stmts[i%len(stmts)]
		bd := binder.New(s, parser.Teradata, rec)
		bound, err := bd.Bind(st)
		if err != nil {
			b.Fatal(err)
		}
		mid, err := transform.BindingStage().Statement(bound, transform.NewContext(nil, rec, bd.MaxColumnID()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := serializer.New(target, rec).Serialize(mid); err != nil {
			b.Fatal(err)
		}
	}
}
