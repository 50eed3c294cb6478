package binder

import (
	"fmt"
	"slices"
	"strings"

	"hyperq/internal/catalog"
	"hyperq/internal/feature"
	"hyperq/internal/parser"
	"hyperq/internal/sqlast"
	"hyperq/internal/xtra"
)

// aggContext carries the grouping state of an aggregate query block.
type aggContext struct {
	groupASTs []sqlast.Expr
	groups    []xtra.GroupCol
	aggs      []xtra.AggDef
	// inAggArg guards against nested aggregates.
	inAggArg bool
}

// findGroup returns the output column of a grouping expression structurally
// equal to e.
func (a *aggContext) findGroup(e sqlast.Expr) (xtra.Col, bool) {
	for i, g := range a.groupASTs {
		if astEqual(g, e) {
			return a.groups[i].Out, true
		}
	}
	return xtra.Col{}, false
}

// windowGroup accumulates window functions sharing one specification.
type windowGroup struct {
	partitionBy []xtra.Scalar
	orderBy     []xtra.SortKey
	funcs       []xtra.WindowDef
}

// windowCollector gathers the window computations of a block.
type windowCollector struct {
	groups []*windowGroup
}

// selCtx is the binding context for select-list/HAVING/QUALIFY/ORDER BY
// expressions of one block.
type selCtx struct {
	agg     *aggContext
	windows *windowCollector
}

// bindSelectCore binds one SELECT block into an operator tree.
func (b *Binder) bindSelectCore(core *sqlast.SelectCore, outer *scope, orderBy []sqlast.OrderItem, limit *sqlast.TopClause) (xtra.Op, error) {
	top := core.Top
	if limit != nil {
		if top != nil {
			return nil, fmt.Errorf("binder: both TOP and LIMIT specified")
		}
		top = limit
	}
	sc := outer.child()
	sc.fromActive = true
	var op xtra.Op
	var err error
	if len(core.From) > 0 {
		op, err = b.bindFromList(core.From, sc)
		if err != nil {
			return nil, err
		}
	} else {
		// SELECT without FROM: one empty row.
		op = &xtra.Values{Rows: [][]xtra.Scalar{{}}}
	}

	// Register select-list aliases for named-expression references before
	// binding any clause (Teradata allows WHERE to use them too).
	if b.dialect == parser.Teradata {
		for _, item := range core.Items {
			if item.Alias == "" {
				continue
			}
			if sc.aliasExprs == nil {
				sc.aliasExprs = map[string]sqlast.Expr{}
			}
			sc.aliasExprs[catalog.Key(item.Alias)] = item.Expr
		}
	}

	// WHERE binds pre-aggregation, windows not allowed.
	var wherePred xtra.Scalar
	if core.Where != nil {
		wherePred, err = b.bindPredicateCtx(core.Where, sc, selCtx{})
		if err != nil {
			return nil, err
		}
	}

	// Expand stars in the select list.
	items, err := b.expandStars(core.Items, sc)
	if err != nil {
		return nil, err
	}

	// Decide whether this is an aggregate query.
	isAgg := len(core.GroupBy) > 0 || core.GroupingSets != nil || core.Having != nil
	if !isAgg {
		for _, it := range items {
			if astHasAggregate(it.Expr) {
				isAgg = true
				break
			}
		}
	}
	if !isAgg && core.Qualify != nil && astHasAggregate(core.Qualify) {
		isAgg = true
	}
	if !isAgg {
		for _, o := range orderBy {
			if astHasAggregate(o.Expr) {
				isAgg = true
				break
			}
		}
	}

	ctx := selCtx{windows: &windowCollector{}}
	if isAgg {
		actx := &aggContext{}
		for _, g := range core.GroupBy {
			gast := g
			// Ordinal GROUP BY: replace column positions by the
			// corresponding select-list expression (Table 2).
			if c, ok := g.(*sqlast.Const); ok && c.Val.Type().IsNumeric() {
				n := int(c.Val.AsInt())
				if n < 1 || n > len(items) {
					return nil, fmt.Errorf("binder: GROUP BY position %d out of range", n)
				}
				if b.dialect != parser.Teradata {
					return nil, fmt.Errorf("binder: ordinal GROUP BY is not portable SQL")
				}
				b.rec.Record(feature.OrdinalGroupBy)
				gast = items[n-1].Expr
			}
			ge, err := b.bindScalarCtx(gast, sc, selCtx{})
			if err != nil {
				return nil, err
			}
			name := exprName(gast)
			actx.groupASTs = append(actx.groupASTs, gast)
			actx.groups = append(actx.groups, xtra.GroupCol{Out: b.newCol(name, ge.Type()), Expr: ge})
		}
		ctx.agg = actx
	}

	// Bind select items (registers aggregates and windows) into the wide
	// projection built below: visible items, then hidden ORDER BY keys. A
	// bound item's column gets its ID and type once every clause is bound.
	proj := &xtra.Project{Exprs: make([]xtra.NamedScalar, len(items), len(items)+len(orderBy))}
	bound := proj.Exprs
	for i, it := range items {
		e, err := b.bindScalarCtx(it.Expr, sc, ctx)
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr)
		}
		bound[i] = xtra.NamedScalar{Col: xtra.Col{Name: name}, Expr: e}
	}

	// HAVING binds in the aggregate context (no window functions).
	var havingPred xtra.Scalar
	if core.Having != nil {
		havingPred, err = b.bindPredicateCtx(core.Having, sc, selCtx{agg: ctx.agg})
		if err != nil {
			return nil, err
		}
	}

	// QUALIFY binds with windows enabled.
	var qualifyPred xtra.Scalar
	if core.Qualify != nil {
		qualifyPred, err = b.bindPredicateCtx(core.Qualify, sc, ctx)
		if err != nil {
			return nil, err
		}
	}

	// ORDER BY keys: output alias > ordinal > source expression.
	type orderKey struct {
		expr   xtra.Scalar
		item   sqlast.OrderItem
		outIdx int // index into bound items, or -1
	}
	var oKeys []orderKey
	for _, item := range orderBy {
		k := orderKey{item: item, outIdx: -1}
		if id, ok := item.Expr.(*sqlast.Ident); ok && id.Qualifier() == "" {
			for i, bi := range bound {
				if strings.EqualFold(bi.Col.Name, id.Name()) {
					k.outIdx = i
					break
				}
			}
		}
		if k.outIdx < 0 {
			if c, ok := item.Expr.(*sqlast.Const); ok && c.Val.Type().IsNumeric() {
				n := int(c.Val.AsInt())
				if n >= 1 && n <= len(bound) {
					k.outIdx = n - 1
					b.rec.Record(feature.OrdinalGroupBy)
				}
			}
		}
		if k.outIdx < 0 {
			e, err := b.bindScalarCtx(item.Expr, sc, ctx)
			if err != nil {
				return nil, err
			}
			k.expr = e
		}
		oKeys = append(oKeys, k)
	}

	// Implicit joins discovered while binding expressions extend the FROM
	// tree ("Expand FROM clause with referenced tables", Table 2).
	for _, g := range sc.implicitGets {
		if op == nil {
			op = g
			continue
		}
		op = &xtra.Join{Kind: xtra.JoinCross, L: op, R: g}
	}

	// Assemble the tree: from -> where -> agg -> having -> windows ->
	// qualify -> project -> distinct -> sort -> limit -> final project.
	if wherePred != nil {
		op = &xtra.Select{Input: op, Pred: wherePred}
	}
	if ctx.agg != nil {
		op = &xtra.Agg{Input: op, Groups: ctx.agg.groups, Aggs: ctx.agg.aggs, GroupingSets: core.GroupingSets}
	}
	if havingPred != nil {
		op = &xtra.Select{Input: op, Pred: havingPred}
	}
	for _, wg := range ctx.windows.groups {
		op = &xtra.Window{Input: op, PartitionBy: wg.partitionBy, OrderBy: wg.orderBy, Funcs: wg.funcs}
	}
	if qualifyPred != nil {
		op = &xtra.Select{Input: op, Pred: qualifyPred}
	}

	proj.Input = op
	for i := range bound {
		bound[i].Col = b.newCol(bound[i].Col.Name, bound[i].Expr.Type())
	}
	var sortKeys []xtra.SortKey
	hidden := 0
	for _, k := range oKeys {
		var ref xtra.Scalar
		if k.outIdx >= 0 {
			ref = &xtra.ColRef{Col: bound[k.outIdx].Col}
		} else {
			if core.Distinct {
				return nil, fmt.Errorf("binder: ORDER BY expression must appear in the select list with DISTINCT")
			}
			col := b.newCol(fmt.Sprintf("$orderkey%d", hidden+1), k.expr.Type())
			hidden++
			proj.Exprs = append(proj.Exprs, xtra.NamedScalar{Col: col, Expr: k.expr})
			ref = &xtra.ColRef{Col: col}
		}
		sortKeys = append(sortKeys, b.makeSortKey(ref, k.item))
	}
	op = proj

	if core.Distinct {
		groups := make([]xtra.GroupCol, len(bound))
		for i, bi := range bound {
			groups[i] = xtra.GroupCol{Out: bi.Col, Expr: &xtra.ColRef{Col: bi.Col}}
		}
		op = &xtra.Agg{Input: op, Groups: groups}
	}
	if len(sortKeys) > 0 {
		op = &xtra.Sort{Input: op, Keys: sortKeys}
	}
	if top != nil {
		if top.Percent {
			return nil, fmt.Errorf("binder: TOP n PERCENT is not supported")
		}
		if top.WithTies && len(sortKeys) == 0 {
			return nil, fmt.Errorf("binder: TOP WITH TIES requires ORDER BY")
		}
		op = &xtra.Limit{Input: op, N: top.N, WithTies: top.WithTies, Keys: sortKeys}
	}
	if hidden > 0 {
		final := &xtra.Project{Input: op}
		for _, bi := range bound {
			final.Exprs = append(final.Exprs, xtra.NamedScalar{Col: bi.Col, Expr: &xtra.ColRef{Col: bi.Col}})
		}
		op = final
	}
	return op, nil
}

// expandStars replaces * and t.* select items with explicit columns.
func (b *Binder) expandStars(items []sqlast.SelectItem, sc *scope) ([]sqlast.SelectItem, error) {
	if !slices.ContainsFunc(items, func(it sqlast.SelectItem) bool { _, ok := it.Expr.(*sqlast.Star); return ok }) {
		return items, nil
	}
	var out []sqlast.SelectItem
	for _, it := range items {
		star, ok := it.Expr.(*sqlast.Star)
		if !ok {
			out = append(out, it)
			continue
		}
		cols := sc.allCols(star.Table)
		if len(cols) == 0 {
			if star.Table != "" {
				return nil, fmt.Errorf("binder: unknown table %s in %s.*", star.Table, star.Table)
			}
			return nil, fmt.Errorf("binder: SELECT * with empty FROM")
		}
		for _, c := range cols {
			out = append(out, sqlast.SelectItem{
				Expr:  &sqlast.Ident{Parts: []string{c.tbl, c.name}},
				Alias: c.col.Name,
			})
		}
	}
	return out, nil
}

// exprName derives an output column name from an expression AST.
func exprName(e sqlast.Expr) string {
	switch x := e.(type) {
	case *sqlast.Ident:
		return x.Name()
	case *sqlast.FuncCall:
		return x.Name
	case *sqlast.WindowFunc:
		return x.Func.Name
	case *sqlast.CastExpr:
		return exprName(x.X)
	case *sqlast.ExtractExpr:
		return x.Field
	}
	return ""
}

// aggregate function names usable in non-window position.
var aggFuncs = map[string]bool{"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true}

// astHasAggregate reports whether the expression contains a non-window
// aggregate invocation.
func astHasAggregate(e sqlast.Expr) bool {
	found := false
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		switch f := x.(type) {
		case *sqlast.WindowFunc:
			// Window arguments may contain aggregates; descend selectively.
			for _, a := range f.Func.Args {
				if astHasAggregate(a) {
					found = true
				}
			}
			for _, p := range f.Over.PartitionBy {
				if astHasAggregate(p) {
					found = true
				}
			}
			for _, o := range f.Over.OrderBy {
				if astHasAggregate(o.Expr) {
					found = true
				}
			}
			return false
		case *sqlast.FuncCall:
			if aggFuncs[f.Name] {
				found = true
				return false
			}
		case *sqlast.Subquery, *sqlast.ExistsExpr, *sqlast.InExpr, *sqlast.QuantifiedCmp:
			return false
		}
		return true
	})
	return found
}

// astEqual reports structural equality of two expression ASTs (used for
// GROUP BY matching).
func astEqual(a, b sqlast.Expr) bool {
	switch x := a.(type) {
	case *sqlast.Ident:
		y, ok := b.(*sqlast.Ident)
		if !ok {
			return false
		}
		// Compare by trailing name and, when both qualified, qualifier.
		if !strings.EqualFold(x.Name(), y.Name()) {
			return false
		}
		if x.Qualifier() != "" && y.Qualifier() != "" {
			return strings.EqualFold(x.Qualifier(), y.Qualifier())
		}
		return true
	case *sqlast.Const:
		y, ok := b.(*sqlast.Const)
		return ok && x.Val.Equal(y.Val)
	case *sqlast.BinExpr:
		y, ok := b.(*sqlast.BinExpr)
		return ok && x.Op == y.Op && astEqual(x.L, y.L) && astEqual(x.R, y.R)
	case *sqlast.UnaryExpr:
		y, ok := b.(*sqlast.UnaryExpr)
		return ok && x.Op == y.Op && astEqual(x.X, y.X)
	case *sqlast.FuncCall:
		y, ok := b.(*sqlast.FuncCall)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) || x.Distinct != y.Distinct || x.Star != y.Star {
			return false
		}
		for i := range x.Args {
			if !astEqual(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *sqlast.CastExpr:
		y, ok := b.(*sqlast.CastExpr)
		return ok && x.To.Name == y.To.Name && astEqual(x.X, y.X)
	case *sqlast.ExtractExpr:
		y, ok := b.(*sqlast.ExtractExpr)
		return ok && strings.EqualFold(x.Field, y.Field) && astEqual(x.X, y.X)
	}
	return false
}

// scalarEqual reports structural equality of bound scalars (used to share
// window specifications).
func scalarEqual(a, b xtra.Scalar) bool { return xtra.ScalarEqual(a, b) }

func sortKeysEqual(a, b []xtra.SortKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Desc != b[i].Desc || a[i].NullsFirst != b[i].NullsFirst || !scalarEqual(a[i].Expr, b[i].Expr) {
			return false
		}
	}
	return true
}

func scalarsEqual(a, b []xtra.Scalar) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !scalarEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
