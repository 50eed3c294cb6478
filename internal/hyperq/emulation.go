package hyperq

import (
	"fmt"

	"hyperq/internal/catalog"
	"hyperq/internal/emulate"
	"hyperq/internal/feature"
	"hyperq/internal/parser"
	"hyperq/internal/sqlast"
	"hyperq/internal/types"
	"hyperq/internal/wire/tdp"
	"hyperq/internal/xtra"

	"hyperq/internal/binder"
)

// maxRecursionSteps bounds the emulated recursion loop.
const maxRecursionSteps = 10000

// emulateRecursive implements the Figure 7 protocol for targets without
// native recursion: seed rows initialize both WorkTable and TempTable; each
// step evaluates the recursive branch against TempTable, appends results to
// WorkTable, and stops when a step yields no rows; finally the main query
// runs with the CTE substituted by WorkTable.
func (s *Session) emulateRecursive(sel *sqlast.SelectStmt, e env) ([]*FrontResult, Plan, error) {
	// The emulation span wraps the whole multi-request protocol; the trace's
	// BackendRequests counter records the resulting fan-out.
	esp := s.req.tr.Start("emulate")
	esp.Set("feature", "recursive")
	defer esp.End()
	plan, err := emulate.PlanRecursive(sel.Query)
	if err != nil {
		return nil, Plan{}, failf(tdp.CodeSemanticError, "%v", err)
	}
	if plan == nil {
		// WITH RECURSIVE keyword without an actual self-reference.
		q := *sel.Query
		if q.With != nil {
			w := *q.With
			w.Recursive = false
			q.With = &w
		}
		return s.translateAndRun(&sqlast.SelectStmt{Query: &q}, e)
	}
	// Only the protocol is a composite: the query above is one statement and
	// streams like any other.
	e.composite = true
	e.rec.Record(feature.RecursiveQuery)

	// Derive the CTE row type by binding the seed branch.
	seedBinder := binder.New(s, parser.Teradata, nil)
	seedBinder.SetParams(e.params)
	seedBound, err := seedBinder.Bind(&sqlast.SelectStmt{Query: plan.Seed})
	if err != nil {
		return nil, Plan{}, failf(tdp.CodeSemanticError, "recursive seed: %v", err)
	}
	seedCols := seedBound.(*xtra.Query).Root.Columns()
	names := plan.Columns
	if len(names) == 0 {
		for _, c := range seedCols {
			names = append(names, c.Name)
		}
	}
	if len(names) != len(seedCols) {
		return nil, Plan{}, failf(tdp.CodeSemanticError, "recursive CTE column list mismatch")
	}

	work := s.newTempName("work")
	temp := s.newTempName("temp")
	next := s.newTempName("next")
	cleanup := func() {
		for _, t := range []string{next, temp, work} {
			_, _, _ = s.translateAndRun(&sqlast.DropTableStmt{Name: t, IfExists: true}, env{composite: true})
			_ = s.sessionCat.DropTable(t)
			s.forgetSessionDDL(t)
		}
	}
	defer cleanup()
	for _, t := range []string{work, temp, next} {
		if err := s.createEmulationTable(t, names, seedCols, e); err != nil {
			return nil, Plan{}, err
		}
	}
	// Step 1: initialize WorkTable and TempTable with the seed results.
	for _, t := range []string{work, temp} {
		if _, _, err := s.translateAndRun(&sqlast.InsertStmt{Table: t, Query: plan.Seed}, e); err != nil {
			return nil, Plan{}, err
		}
	}
	// Steps 2..n: evaluate the recursive branch against TempTable until the
	// step produces no new rows.
	recursiveQuery := emulate.RenameTables(plan.Recursive, plan.CTEName, temp)
	for step := 0; ; step++ {
		if step > maxRecursionSteps {
			return nil, Plan{}, failf(tdp.CodeObjectNotFound, "recursion exceeded %d steps", maxRecursionSteps)
		}
		if _, _, err := s.translateAndRun(&sqlast.DeleteStmt{Table: next, All: true}, e); err != nil {
			return nil, Plan{}, err
		}
		ins, _, err := s.translateAndRun(&sqlast.InsertStmt{Table: next, Query: recursiveQuery}, e)
		if err != nil {
			return nil, Plan{}, err
		}
		if len(ins) == 0 || ins[0].Activity == 0 {
			break
		}
		if _, _, err := s.translateAndRun(&sqlast.InsertStmt{Table: work, Query: selectStarFrom(next)}, e); err != nil {
			return nil, Plan{}, err
		}
		if _, _, err := s.translateAndRun(&sqlast.DeleteStmt{Table: temp, All: true}, e); err != nil {
			return nil, Plan{}, err
		}
		if _, _, err := s.translateAndRun(&sqlast.InsertStmt{Table: temp, Query: selectStarFrom(next)}, e); err != nil {
			return nil, Plan{}, err
		}
	}
	// Step 5: run the main query with the CTE substituted by WorkTable.
	mainQuery := emulate.RenameTables(plan.Main, plan.CTEName, work)
	out, _, err := s.translateAndRun(&sqlast.SelectStmt{Query: mainQuery}, e)
	return out, Plan{}, err
}

func (s *Session) newTempName(kind string) string {
	s.nextTemp++
	return fmt.Sprintf("hq_%s_%d", kind, s.nextTemp)
}

// createEmulationTable creates a session temporary table on the backend and
// registers it in the session catalog overlay.
func (s *Session) createEmulationTable(name string, colNames []string, cols []xtra.Col, e env) error {
	// Work tables are backend-session state: pin a pooled backend connection
	// so every request of the emulation protocol sees them.
	if err := s.pinBackend(); err != nil {
		return err
	}
	def := &catalog.Table{Name: name, Kind: catalog.KindVolatile}
	ast := &sqlast.CreateTableStmt{Name: name, Volatile: true}
	for i, c := range cols {
		def.Columns = append(def.Columns, catalog.Column{Name: colNames[i], Type: c.Type})
		ast.Columns = append(ast.Columns, sqlast.ColumnDef{Name: colNames[i], Type: typeNameOf(c.Type)})
	}
	if err := s.sessionCat.CreateTable(def); err != nil {
		return failf(tdp.CodeObjectExists, "%v", err)
	}
	_, p, err := s.translateAndRun(ast, e)
	if err != nil {
		_ = s.sessionCat.DropTable(name)
		return err
	}
	// The work table is backend session state a replacement connection must
	// rebuild after a reconnect.
	s.recordSessionDDL(name, p.sql)
	return nil
}

// typeNameOf maps a resolved type back to DDL syntax.
func typeNameOf(t types.T) sqlast.TypeName {
	switch t.Kind {
	case types.KindInt:
		return sqlast.TypeName{Name: "INTEGER"}
	case types.KindBigInt:
		return sqlast.TypeName{Name: "BIGINT"}
	case types.KindFloat:
		return sqlast.TypeName{Name: "FLOAT"}
	case types.KindDecimal:
		return sqlast.TypeName{Name: "DECIMAL", Args: []int{t.Precision, t.Scale}}
	case types.KindChar:
		n := t.Length
		if n == 0 {
			n = 1
		}
		return sqlast.TypeName{Name: "CHAR", Args: []int{n}}
	case types.KindVarChar:
		if t.Length > 0 {
			return sqlast.TypeName{Name: "VARCHAR", Args: []int{t.Length}}
		}
		return sqlast.TypeName{Name: "VARCHAR", Args: []int{4096}}
	case types.KindDate:
		return sqlast.TypeName{Name: "DATE"}
	case types.KindTime:
		return sqlast.TypeName{Name: "TIME"}
	case types.KindTimestamp:
		return sqlast.TypeName{Name: "TIMESTAMP"}
	case types.KindBool:
		return sqlast.TypeName{Name: "BOOLEAN"}
	case types.KindBytes:
		return sqlast.TypeName{Name: "VARBYTE", Args: []int{t.Length}}
	case types.KindPeriod:
		if t.Elem == types.KindTimestamp {
			return sqlast.TypeName{Name: "PERIOD(TIMESTAMP)"}
		}
		return sqlast.TypeName{Name: "PERIOD(DATE)"}
	}
	return sqlast.TypeName{Name: "VARCHAR", Args: []int{4096}}
}

// selectStarFrom builds SELECT * FROM t.
func selectStarFrom(table string) *sqlast.QueryExpr {
	return &sqlast.QueryExpr{Body: &sqlast.SelectCore{
		Items: []sqlast.SelectItem{{Expr: &sqlast.Star{}}},
		From:  []sqlast.TableExpr{&sqlast.TableRef{Name: table}},
	}}
}

// execMerge emulates MERGE by decomposition into UPDATE + INSERT (§6),
// reporting the combined activity count.
func (s *Session) execMerge(m *sqlast.MergeStmt, e env) ([]*FrontResult, error) {
	esp := s.req.tr.Start("emulate")
	esp.Set("feature", "merge")
	defer esp.End()
	e.composite = true
	e.rec.Record(feature.Merge)
	stmts, err := emulate.DecomposeMerge(m)
	if err != nil {
		return nil, failf(tdp.CodeSemanticError, "%v", err)
	}
	var total int64
	for _, stmt := range stmts {
		results, _, err := s.execStatement(stmt, e)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			total += r.Activity
		}
	}
	return []*FrontResult{{Activity: total, Command: "MERGE"}}, nil
}

// execSetTableInsert enforces SET-table duplicate elimination in the mid
// tier before sending the insert to a target without set semantics.
func (s *Session) execSetTableInsert(ins *sqlast.InsertStmt, tbl *catalog.Table, e env) ([]*FrontResult, Plan, error) {
	var allCols []string
	for _, c := range tbl.Columns {
		allCols = append(allCols, c.Name)
	}
	rewritten, err := emulate.DeduplicateInsert(ins, allCols)
	if err != nil {
		return nil, Plan{}, failf(tdp.CodeSemanticError, "%v", err)
	}
	e.composite = true
	return s.translateAndRun(rewritten, e)
}
