package binder

import (
	"fmt"
	"slices"
	"strings"

	"hyperq/internal/catalog"
	"hyperq/internal/feature"
	"hyperq/internal/parser"
	"hyperq/internal/sqlast"
	"hyperq/internal/types"
	"hyperq/internal/xtra"
)

const maxViewDepth = 16

// bindQueryExpr binds a full query expression within the given outer scope
// (used for correlation).
func (b *Binder) bindQueryExpr(q *sqlast.QueryExpr, outer *scope) (xtra.Op, error) {
	sc := outer.child()
	if q.With != nil {
		for i := range q.With.CTEs {
			cte := q.With.CTEs[i]
			def := &cteDef{name: cte.Name, columns: cte.Columns, query: cte.Query, recursive: q.With.Recursive, defScope: sc}
			sc.addCTE(def)
		}
	}
	return b.bindQueryBody(q.Body, sc, q.OrderBy, q.Limit)
}

func (b *Binder) bindQueryBody(body sqlast.QueryBody, sc *scope, orderBy []sqlast.OrderItem, limit *sqlast.TopClause) (xtra.Op, error) {
	switch t := body.(type) {
	case *sqlast.SelectCore:
		return b.bindSelectCore(t, sc, orderBy, limit)
	case *sqlast.SetOpBody:
		op, err := b.bindSetOp(t, sc)
		if err != nil {
			return nil, err
		}
		return b.applyOutputOrderBy(op, orderBy, limit)
	case *sqlast.QueryExpr:
		op, err := b.bindQueryExpr(t, sc)
		if err != nil {
			return nil, err
		}
		return b.applyOutputOrderBy(op, orderBy, limit)
	}
	return nil, fmt.Errorf("binder: unknown query body %T", body)
}

// applyOutputOrderBy sorts a set-operation result; keys may reference output
// column names or ordinals only.
func (b *Binder) applyOutputOrderBy(op xtra.Op, orderBy []sqlast.OrderItem, limit *sqlast.TopClause) (xtra.Op, error) {
	if len(orderBy) == 0 && limit == nil {
		return op, nil
	}
	cols := op.Columns()
	var keys []xtra.SortKey
	for _, item := range orderBy {
		var col *xtra.Col
		switch e := item.Expr.(type) {
		case *sqlast.Ident:
			for i := range cols {
				if strings.EqualFold(cols[i].Name, e.Name()) {
					col = &cols[i]
					break
				}
			}
		case *sqlast.Const:
			if e.Val.Type().IsNumeric() {
				n := int(e.Val.AsInt())
				if n >= 1 && n <= len(cols) {
					col = &cols[n-1]
					b.rec.Record(feature.OrdinalGroupBy)
				}
			}
		}
		if col == nil {
			return nil, fmt.Errorf("binder: ORDER BY after set operation must name an output column")
		}
		keys = append(keys, b.makeSortKey(&xtra.ColRef{Col: *col}, item))
	}
	if len(keys) > 0 {
		op = &xtra.Sort{Input: op, Keys: keys}
	}
	if limit != nil {
		if limit.WithTies && len(keys) == 0 {
			return nil, fmt.Errorf("binder: FETCH FIRST WITH TIES requires ORDER BY")
		}
		op = &xtra.Limit{Input: op, N: limit.N, WithTies: limit.WithTies, Keys: keys}
	}
	return op, nil
}

// makeSortKey resolves null placement: explicit NULLS FIRST/LAST wins;
// otherwise the source-system default applies (Teradata sorts NULLs low:
// first ascending, last descending — one of the silent semantic differences
// §2.1 warns about).
func (b *Binder) makeSortKey(e xtra.Scalar, item sqlast.OrderItem) xtra.SortKey {
	k := xtra.SortKey{Expr: e, Desc: item.Desc}
	if item.NullsFirst != nil {
		k.NullsFirst = *item.NullsFirst
	} else {
		k.NullsFirst = !item.Desc
	}
	return k
}

func (b *Binder) bindSetOp(s *sqlast.SetOpBody, sc *scope) (xtra.Op, error) {
	l, err := b.bindQueryBody(s.L, sc, nil, nil)
	if err != nil {
		return nil, err
	}
	r, err := b.bindQueryBody(s.R, sc, nil, nil)
	if err != nil {
		return nil, err
	}
	lc, rc := l.Columns(), r.Columns()
	if len(lc) != len(rc) {
		return nil, fmt.Errorf("binder: set operands have %d vs %d columns", len(lc), len(rc))
	}
	outCols := make([]xtra.Col, len(lc))
	var lCasts, rCasts []types.T
	needL, needR := false, false
	for i := range lc {
		super, err := types.CommonSupertype(lc[i].Type, rc[i].Type)
		if err != nil {
			return nil, fmt.Errorf("binder: set operation column %d: %v", i+1, err)
		}
		outCols[i] = b.newCol(lc[i].Name, super)
		lCasts = append(lCasts, super)
		rCasts = append(rCasts, super)
		if !lc[i].Type.Equal(super) && lc[i].Type.Kind != types.KindNull {
			needL = true
		}
		if !rc[i].Type.Equal(super) && rc[i].Type.Kind != types.KindNull {
			needR = true
		}
	}
	if needL {
		l = b.castProject(l, lCasts)
	}
	if needR {
		r = b.castProject(r, rCasts)
	}
	kind := map[sqlast.SetOp]xtra.SetOpKind{
		sqlast.SetUnion:     xtra.SetUnion,
		sqlast.SetIntersect: xtra.SetIntersect,
		sqlast.SetExcept:    xtra.SetExcept,
	}[s.Op]
	return &xtra.SetOp{Kind: kind, All: s.All, L: l, R: r, Cols: outCols}, nil
}

func (b *Binder) castProject(op xtra.Op, to []types.T) xtra.Op {
	cols := op.Columns()
	p := &xtra.Project{Input: op}
	for i, c := range cols {
		var e xtra.Scalar = &xtra.ColRef{Col: c}
		if !c.Type.Equal(to[i]) && c.Type.Kind != types.KindNull {
			e = &xtra.CastExpr{X: e, To: to[i], Implicit: true}
		}
		p.Exprs = append(p.Exprs, xtra.NamedScalar{Col: b.newCol(c.Name, to[i]), Expr: e})
	}
	return p
}

// --- FROM clause -----------------------------------------------------------

// bindFromList binds a comma list of table expressions as cross joins,
// registering columns into sc.
func (b *Binder) bindFromList(list []sqlast.TableExpr, sc *scope) (xtra.Op, error) {
	var op xtra.Op
	for _, te := range list {
		o, err := b.bindTableExpr(te, sc)
		if err != nil {
			return nil, err
		}
		if op == nil {
			op = o
		} else {
			op = &xtra.Join{Kind: xtra.JoinCross, L: op, R: o}
		}
	}
	return op, nil
}

func (b *Binder) bindTableExpr(te sqlast.TableExpr, sc *scope) (xtra.Op, error) {
	switch t := te.(type) {
	case *sqlast.TableRef:
		return b.bindTableRef(t, sc)
	case *sqlast.DerivedTable:
		defScope := sc.parent
		if defScope == nil {
			defScope = b.globalScope()
		}
		op, err := b.bindQueryExpr(t.Query, defScope)
		if err != nil {
			return nil, err
		}
		cols := op.Columns()
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = c.Name
		}
		if len(t.ColAliases) > 0 {
			if len(t.ColAliases) != len(cols) {
				return nil, fmt.Errorf("binder: derived table %s alias list has %d names, query yields %d", t.Alias, len(t.ColAliases), len(cols))
			}
			names = t.ColAliases
		}
		sc.addCols(t.Alias, names, cols)
		return op, nil
	case *sqlast.JoinExpr:
		l, err := b.bindTableExpr(t.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bindTableExpr(t.R, sc)
		if err != nil {
			return nil, err
		}
		kind := map[sqlast.JoinKind]xtra.JoinKind{
			sqlast.JoinInner: xtra.JoinInner,
			sqlast.JoinLeft:  xtra.JoinLeft,
			sqlast.JoinRight: xtra.JoinRight,
			sqlast.JoinFull:  xtra.JoinFull,
			sqlast.JoinCross: xtra.JoinCross,
		}[t.Kind]
		j := &xtra.Join{Kind: kind, L: l, R: r}
		if t.On != nil {
			pred, err := b.bindPredicate(t.On, sc)
			if err != nil {
				return nil, err
			}
			j.Pred = pred
		}
		return j, nil
	}
	return nil, fmt.Errorf("binder: unknown table expression %T", te)
}

func (b *Binder) bindTableRef(t *sqlast.TableRef, sc *scope) (xtra.Op, error) {
	alias := t.Alias
	if alias == "" {
		alias = t.Name
	}
	// CTE?
	if def := sc.findCTE(t.Name); def != nil {
		op, cols, err := b.bindCTERef(def)
		if err != nil {
			return nil, err
		}
		names := colNames(cols)
		if len(t.ColAliases) > 0 {
			if len(t.ColAliases) != len(cols) {
				return nil, fmt.Errorf("binder: alias list length mismatch for %s", t.Name)
			}
			names = t.ColAliases
		}
		sc.addCols(alias, names, cols)
		return op, nil
	}
	// Base table?
	if tbl, ok := b.cat.Table(t.Name); ok {
		return b.makeGet(tbl, alias, t.ColAliases, sc)
	}
	// View?
	if v, ok := b.cat.View(t.Name); ok {
		return b.bindViewRef(v, alias, t.ColAliases, sc)
	}
	return nil, fmt.Errorf("binder: table %s does not exist", t.Name)
}

func (b *Binder) makeGet(tbl *catalog.Table, alias string, colAliases []string, sc *scope) (xtra.Op, error) {
	if len(colAliases) > 0 && len(colAliases) != len(tbl.Columns) {
		return nil, fmt.Errorf("binder: alias list for %s has %d names, table has %d columns", tbl.Name, len(colAliases), len(tbl.Columns))
	}
	g := &xtra.Get{Table: tbl.Name, Alias: alias, Cols: make([]xtra.Col, len(tbl.Columns))}
	aliasKey := correlationKey(tbl, alias)
	sc.cols = slices.Grow(sc.cols, len(tbl.Columns))
	for i, c := range tbl.Columns {
		name, key := c.Name, tbl.ColumnKey(i)
		if len(colAliases) > 0 {
			name = colAliases[i]
			key = catalog.Key(name)
		}
		col := b.newCol(name, c.Type)
		if c.CaseInsensitive {
			b.markCaseInsensitive(col.ID)
		}
		g.Cols[i] = col
		sc.addCol(aliasKey, key, col)
	}
	return g, nil
}

// correlationKey returns the key of a correlation name of tbl, which is
// the table's own key when the name is the table's.
func correlationKey(tbl *catalog.Table, name string) string {
	if k := tbl.NameKey(); catalog.FoldEqual(k, name) {
		return k
	}
	return catalog.Key(name)
}

// addCols registers a derived relation's columns under the given names.
func (s *scope) addCols(alias string, names []string, cols []xtra.Col) {
	aliasKey := catalog.Key(alias)
	s.cols = slices.Grow(s.cols, len(cols))
	for i, c := range cols {
		s.addCol(aliasKey, catalog.Key(names[i]), xtra.Col{ID: c.ID, Name: names[i], Type: c.Type})
	}
}

func (b *Binder) bindViewRef(v *catalog.View, alias string, colAliases []string, sc *scope) (xtra.Op, error) {
	if b.viewDepth >= maxViewDepth {
		return nil, fmt.Errorf("binder: view nesting exceeds %d (circular definition?)", maxViewDepth)
	}
	b.viewDepth++
	defer func() { b.viewDepth-- }()
	stmts, err := parser.Parse(v.SQL, b.dialect, nil)
	if err != nil {
		return nil, fmt.Errorf("binder: view %s definition: %v", v.Name, err)
	}
	sel, ok := stmts[0].(*sqlast.SelectStmt)
	if !ok || len(stmts) != 1 {
		return nil, fmt.Errorf("binder: view %s definition is not a query", v.Name)
	}
	op, err := b.bindQueryExpr(sel.Query, b.globalScope())
	if err != nil {
		return nil, fmt.Errorf("binder: view %s: %v", v.Name, err)
	}
	cols := op.Columns()
	names := colNames(cols)
	if len(v.Columns) > 0 {
		if len(v.Columns) != len(cols) {
			return nil, fmt.Errorf("binder: view %s column list mismatch", v.Name)
		}
		names = v.Columns
	}
	if len(colAliases) > 0 {
		if len(colAliases) != len(cols) {
			return nil, fmt.Errorf("binder: alias list length mismatch for view %s", v.Name)
		}
		names = colAliases
	}
	sc.addCols(alias, names, cols)
	return op, nil
}

func colNames(cols []xtra.Col) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// bindCTERef binds a (possibly recursive) CTE reference, producing a fresh
// operator tree per reference.
func (b *Binder) bindCTERef(def *cteDef) (xtra.Op, []xtra.Col, error) {
	// Inside the recursive branch, references to the CTE read the work table.
	if def.work != nil {
		ws := &xtra.WorkScan{Name: def.name, WorkID: def.work.id}
		for _, c := range def.work.cols {
			ws.Cols = append(ws.Cols, b.newCol(c.Name, c.Type))
		}
		def.work.used = true
		return ws, ws.Cols, nil
	}
	if b.viewDepth >= maxViewDepth {
		return nil, nil, fmt.Errorf("binder: CTE nesting exceeds %d", maxViewDepth)
	}
	b.viewDepth++
	defer func() { b.viewDepth-- }()

	defScope := def.defScope
	if defScope == nil {
		defScope = b.globalScope()
	}
	if def.recursive {
		if op, cols, err, handled := b.bindRecursiveCTE(def, defScope); handled {
			return op, cols, err
		}
	}
	op, err := b.bindQueryExpr(def.query, defScope)
	if err != nil {
		return nil, nil, fmt.Errorf("binder: CTE %s: %v", def.name, err)
	}
	cols := op.Columns()
	if len(def.columns) > 0 {
		if len(def.columns) != len(cols) {
			return nil, nil, fmt.Errorf("binder: CTE %s column list mismatch", def.name)
		}
		renamed := make([]xtra.Col, len(cols))
		for i, c := range cols {
			renamed[i] = xtra.Col{ID: c.ID, Name: def.columns[i], Type: c.Type}
		}
		return op, renamed, nil
	}
	return op, cols, nil
}

// bindRecursiveCTE binds WITH RECURSIVE name AS (seed UNION ALL recursive).
// handled is false when the definition contains no self-reference (then it
// binds as an ordinary CTE).
func (b *Binder) bindRecursiveCTE(def *cteDef, defScope *scope) (xtra.Op, []xtra.Col, error, bool) {
	body, ok := def.query.Body.(*sqlast.SetOpBody)
	if !ok || body.Op != sqlast.SetUnion || !body.All {
		// Not the seed UNION ALL recursive shape; check for self reference.
		if !queryReferencesTable(def.query, def.name) {
			return nil, nil, nil, false
		}
		return nil, nil, fmt.Errorf("binder: recursive CTE %s must be 'seed UNION ALL recursive'", def.name), true
	}
	if !bodyReferencesTable(body.R, def.name) && !bodyReferencesTable(body.L, def.name) {
		return nil, nil, nil, false // plain UNION ALL CTE
	}
	if bodyReferencesTable(body.L, def.name) {
		return nil, nil, fmt.Errorf("binder: recursive CTE %s references itself in the seed branch", def.name), true
	}
	seed, err := b.bindQueryBody(body.L, defScope.child(), nil, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("binder: recursive CTE %s seed: %v", def.name, err), true
	}
	seedCols := seed.Columns()
	names := colNames(seedCols)
	if len(def.columns) > 0 {
		if len(def.columns) != len(seedCols) {
			return nil, nil, fmt.Errorf("binder: CTE %s column list mismatch", def.name), true
		}
		names = def.columns
	}
	b.nextWrk++
	work := &workTable{id: b.nextWrk}
	for i, c := range seedCols {
		work.cols = append(work.cols, xtra.Col{ID: 0, Name: names[i], Type: c.Type})
	}
	def.work = work
	rec, err := b.bindQueryBody(body.R, defScope.child(), nil, nil)
	def.work = nil
	if err != nil {
		return nil, nil, fmt.Errorf("binder: recursive CTE %s: %v", def.name, err), true
	}
	recCols := rec.Columns()
	if len(recCols) != len(seedCols) {
		return nil, nil, fmt.Errorf("binder: recursive CTE %s branch arity mismatch", def.name), true
	}
	outCols := make([]xtra.Col, len(seedCols))
	for i := range seedCols {
		outCols[i] = b.newCol(names[i], seedCols[i].Type)
	}
	ru := &xtra.RecursiveUnion{Seed: seed, Recursive: rec, Cols: outCols, WorkID: work.id}
	return ru, outCols, nil, true
}

func queryReferencesTable(q *sqlast.QueryExpr, name string) bool {
	return bodyReferencesTable(q.Body, name)
}

func bodyReferencesTable(body sqlast.QueryBody, name string) bool {
	switch t := body.(type) {
	case *sqlast.SelectCore:
		for _, te := range t.From {
			if tableExprReferences(te, name) {
				return true
			}
		}
		return false
	case *sqlast.SetOpBody:
		return bodyReferencesTable(t.L, name) || bodyReferencesTable(t.R, name)
	case *sqlast.QueryExpr:
		return bodyReferencesTable(t.Body, name)
	}
	return false
}

func tableExprReferences(te sqlast.TableExpr, name string) bool {
	switch t := te.(type) {
	case *sqlast.TableRef:
		return strings.EqualFold(t.Name, name)
	case *sqlast.DerivedTable:
		return bodyReferencesTable(t.Query.Body, name)
	case *sqlast.JoinExpr:
		return tableExprReferences(t.L, name) || tableExprReferences(t.R, name)
	}
	return false
}
