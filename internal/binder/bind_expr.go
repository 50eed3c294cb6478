package binder

import (
	"fmt"
	"strings"

	"hyperq/internal/catalog"
	"hyperq/internal/feature"
	"hyperq/internal/parser"
	"hyperq/internal/sqlast"
	"hyperq/internal/types"
	"hyperq/internal/xtra"
)

// bindPredicate binds a boolean expression with no aggregate/window context.
func (b *Binder) bindPredicate(e sqlast.Expr, sc *scope) (xtra.Scalar, error) {
	return b.bindPredicateCtx(e, sc, selCtx{})
}

func (b *Binder) bindPredicateCtx(e sqlast.Expr, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	s, err := b.bindScalarCtx(e, sc, ctx)
	if err != nil {
		return nil, err
	}
	if s.Type().Kind != types.KindBool && s.Type().Kind != types.KindNull {
		return nil, fmt.Errorf("binder: predicate has type %s, want BOOLEAN", s.Type())
	}
	return s, nil
}

// bindScalar binds an expression with no aggregate/window context.
func (b *Binder) bindScalar(e sqlast.Expr, sc *scope) (xtra.Scalar, error) {
	return b.bindScalarCtx(e, sc, selCtx{})
}

// bindScalarCtx is the main expression binder.
func (b *Binder) bindScalarCtx(e sqlast.Expr, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	// In an aggregate context, an expression structurally equal to a
	// grouping expression resolves to the group output column.
	if ctx.agg != nil && !ctx.agg.inAggArg {
		if col, ok := ctx.agg.findGroup(e); ok {
			return &xtra.ColRef{Col: col}, nil
		}
	}
	switch x := e.(type) {
	case *sqlast.Ident:
		return b.bindIdent(x, sc, ctx)
	case *sqlast.Const:
		c := xtra.NewConst(x.Val)
		c.Lit = x.Lit
		return c, nil
	case *sqlast.Param:
		return b.bindParam(x)
	case *sqlast.Star:
		return nil, fmt.Errorf("binder: '*' is not valid here")
	case *sqlast.BinExpr:
		return b.bindBinExpr(x, sc, ctx)
	case *sqlast.UnaryExpr:
		return b.bindUnary(x, sc, ctx)
	case *sqlast.FuncCall:
		return b.bindFuncCall(x, sc, ctx)
	case *sqlast.WindowFunc:
		return b.bindWindowFunc(x, sc, ctx)
	case *sqlast.CaseExpr:
		return b.bindCase(x, sc, ctx)
	case *sqlast.CastExpr:
		t, err := x.To.Resolve()
		if err != nil {
			return nil, fmt.Errorf("binder: %v", err)
		}
		inner, err := b.bindScalarCtx(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		return &xtra.CastExpr{X: inner, To: t}, nil
	case *sqlast.ExtractExpr:
		f, ok := types.ParseExtractField(x.Field)
		if !ok {
			return nil, fmt.Errorf("binder: invalid EXTRACT field %s", x.Field)
		}
		inner, err := b.bindScalarCtx(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		if !inner.Type().IsTemporal() && inner.Type().Kind != types.KindNull {
			return nil, fmt.Errorf("binder: EXTRACT requires a temporal argument, got %s", inner.Type())
		}
		return &xtra.ExtractExpr{Field: f, X: inner}, nil
	case *sqlast.Subquery:
		op, err := b.bindSubquery(x.Query, sc)
		if err != nil {
			return nil, err
		}
		cols := op.Columns()
		if len(cols) != 1 {
			return nil, fmt.Errorf("binder: scalar subquery must return one column, got %d", len(cols))
		}
		return &xtra.ScalarSubquery{Input: op, T: cols[0].Type}, nil
	case *sqlast.ExistsExpr:
		op, err := b.bindSubquery(x.Query, sc)
		if err != nil {
			return nil, err
		}
		return &xtra.ExistsExpr{Not: x.Not, Input: op}, nil
	case *sqlast.InExpr:
		return b.bindIn(x, sc, ctx)
	case *sqlast.QuantifiedCmp:
		return b.bindQuantified(x, sc, ctx)
	case *sqlast.Tuple:
		return nil, fmt.Errorf("binder: row expression is not valid here")
	case *sqlast.IntervalExpr:
		return b.bindInterval(x, sc, ctx)
	}
	return nil, fmt.Errorf("binder: unsupported expression %T", e)
}

func (b *Binder) bindParam(x *sqlast.Param) (xtra.Scalar, error) {
	if x.Name == "" {
		return nil, fmt.Errorf("binder: positional parameters are not supported")
	}
	if b.params != nil {
		if v, ok := b.params[strings.ToUpper(x.Name)]; ok {
			return xtra.NewConst(v), nil
		}
		return nil, fmt.Errorf("binder: no value for parameter :%s", x.Name)
	}
	return nil, fmt.Errorf("binder: unresolved parameter :%s", x.Name)
}

// bindIdent resolves a column reference, trying in order: scope columns
// (with outer-scope correlation), Teradata named-expression aliases, and
// Teradata implicit joins for qualified names.
func (b *Binder) bindIdent(x *sqlast.Ident, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	qual, name := x.Qualifier(), x.Name()
	col, ok, err := sc.resolve(qual, name)
	if err != nil {
		return nil, err
	}
	if ok {
		if ctx.agg != nil && !ctx.agg.inAggArg {
			// A bare column in an aggregate context must be (part of) a
			// grouping expression; structural group matching already ran.
			if !b.colInGroups(col.ID, ctx.agg) {
				return nil, fmt.Errorf("binder: column %s must appear in GROUP BY or an aggregate", name)
			}
		}
		return &xtra.ColRef{Col: col}, nil
	}
	// Teradata named expression reference (chained projection).
	if b.dialect == parser.Teradata && qual == "" {
		for s := sc; s != nil; s = s.parent {
			if !s.fromActive {
				continue // not a SELECT block
			}
			key := catalog.Key(name)
			if def, ok := s.aliasExprs[key]; ok {
				if s.aliasBinding[key] {
					return nil, fmt.Errorf("binder: circular reference to named expression %s", name)
				}
				if s.aliasBinding == nil {
					s.aliasBinding = map[string]bool{}
				}
				s.aliasBinding[key] = true
				bound, err := b.bindScalarCtx(def, sc, ctx)
				s.aliasBinding[key] = false
				if err != nil {
					return nil, err
				}
				b.rec.Record(feature.NamedExprRef)
				return bound, nil
			}
			break // aliases resolve only in the defining block
		}
	}
	// Teradata implicit join: a qualified reference to a catalog table that
	// is missing from FROM pulls the table into the join tree (Table 2).
	if b.dialect == parser.Teradata && qual != "" {
		if tbl, ok := b.cat.Table(qual); ok {
			target := sc
			for target != nil && !target.fromActive {
				target = target.parent
			}
			if target != nil {
				g := &xtra.Get{Table: tbl.Name, Alias: qual, Cols: make([]xtra.Col, len(tbl.Columns))}
				qualKey := correlationKey(tbl, qual)
				for i, c := range tbl.Columns {
					g.Cols[i] = b.newCol(c.Name, c.Type)
					target.addCol(qualKey, tbl.ColumnKey(i), g.Cols[i])
				}
				target.implicitGets = append(target.implicitGets, g)
				b.rec.Record(feature.ImplicitJoin)
				col, ok, err := sc.resolve(qual, name)
				if err != nil || !ok {
					return nil, fmt.Errorf("binder: column %s not in implicitly joined table %s", name, qual)
				}
				return &xtra.ColRef{Col: col}, nil
			}
		}
	}
	if qual != "" {
		return nil, fmt.Errorf("binder: column %s.%s does not exist", qual, name)
	}
	return nil, fmt.Errorf("binder: column %s does not exist", name)
}

// colInGroups reports whether the column id is one of the grouping output
// or grouping input columns.
func (b *Binder) colInGroups(id xtra.ColumnID, a *aggContext) bool {
	for _, g := range a.groups {
		if g.Out.ID == id {
			return true
		}
		if cr, ok := g.Expr.(*xtra.ColRef); ok && cr.Col.ID == id {
			return true
		}
	}
	return false
}

func (b *Binder) bindBinExpr(x *sqlast.BinExpr, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	switch x.Op {
	case sqlast.BinAnd, sqlast.BinOr:
		l, err := b.bindPredicateCtx(x.L, sc, ctx)
		if err != nil {
			return nil, err
		}
		r, err := b.bindPredicateCtx(x.R, sc, ctx)
		if err != nil {
			return nil, err
		}
		if x.Op == sqlast.BinAnd {
			return xtra.MakeAnd(l, r), nil
		}
		return xtra.MakeOr(l, r), nil
	case sqlast.BinLike, sqlast.BinNotLike:
		l, err := b.bindScalarCtx(x.L, sc, ctx)
		if err != nil {
			return nil, err
		}
		r, err := b.bindScalarCtx(x.R, sc, ctx)
		if err != nil {
			return nil, err
		}
		if !l.Type().IsString() && l.Type().Kind != types.KindNull {
			return nil, fmt.Errorf("binder: LIKE requires string operands, got %s", l.Type())
		}
		return &xtra.LikeExpr{Not: x.Op == sqlast.BinNotLike, X: l, Pattern: r}, nil
	case sqlast.BinConcat:
		l, err := b.bindScalarCtx(x.L, sc, ctx)
		if err != nil {
			return nil, err
		}
		r, err := b.bindScalarCtx(x.R, sc, ctx)
		if err != nil {
			return nil, err
		}
		return &xtra.ConcatExpr{L: stringify(l), R: stringify(r)}, nil
	}
	if x.Op.IsComparison() {
		return b.bindComparison(x, sc, ctx)
	}
	// Arithmetic.
	l, err := b.bindScalarCtx(x.L, sc, ctx)
	if err != nil {
		return nil, err
	}
	r, err := b.bindScalarCtx(x.R, sc, ctx)
	if err != nil {
		return nil, err
	}
	op := map[sqlast.BinOp]types.ArithOp{
		sqlast.BinAdd: types.OpAdd, sqlast.BinSub: types.OpSub,
		sqlast.BinMul: types.OpMul, sqlast.BinDiv: types.OpDiv, sqlast.BinMod: types.OpMod,
	}[x.Op]
	lt, rt := l.Type(), r.Type()
	if lt.Kind == types.KindNull {
		lt = rt
	}
	if rt.Kind == types.KindNull {
		rt = lt
	}
	result, err := types.ArithResultType(op, lt, rt)
	if err != nil {
		return nil, fmt.Errorf("binder: %v", err)
	}
	if result.Kind == types.KindDate && (lt.Kind == types.KindDate) != (rt.Kind == types.KindDate) {
		// Teradata date arithmetic: date +/- integer. Tracked so the
		// serializer can respell it for targets without native support.
		b.rec.Record(feature.DateArith)
	}
	return &xtra.ArithExpr{Op: op, L: l, R: r, T: result}, nil
}

var cmpMap = map[sqlast.BinOp]xtra.CmpOp{
	sqlast.BinEQ: xtra.CmpEQ, sqlast.BinNE: xtra.CmpNE,
	sqlast.BinLT: xtra.CmpLT, sqlast.BinLE: xtra.CmpLE,
	sqlast.BinGT: xtra.CmpGT, sqlast.BinGE: xtra.CmpGE,
}

func (b *Binder) bindComparison(x *sqlast.BinExpr, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	l, err := b.bindScalarCtx(x.L, sc, ctx)
	if err != nil {
		return nil, err
	}
	r, err := b.bindScalarCtx(x.R, sc, ctx)
	if err != nil {
		return nil, err
	}
	op := cmpMap[x.Op]
	lt, rt := l.Type(), r.Type()
	if !types.CanCompare(lt, rt) {
		// Teradata's DATE/INT comparison via the internal integer encoding:
		// accepted here, normalized by the Transformer during the binding
		// stage (§5.2). Other systems reject it.
		dateInt := (lt.Kind == types.KindDate && rt.IsNumeric()) ||
			(rt.Kind == types.KindDate && lt.IsNumeric())
		if dateInt && b.dialect == parser.Teradata {
			b.rec.Record(feature.DateIntCompare)
			return &xtra.CompExpr{Op: op, L: l, R: r}, nil
		}
		return nil, fmt.Errorf("binder: cannot compare %s with %s", lt, rt)
	}
	// NOT CASESPECIFIC columns (Table 2, unsupported column properties):
	// the property is kept in the gateway catalog and applied here by
	// folding both sides of a string comparison to a common case, since the
	// target system cannot store the property itself.
	if b.dialect == parser.Teradata && lt.IsString() && rt.IsString() && (b.isCaseInsensitive(l) || b.isCaseInsensitive(r)) {
		l = &xtra.FuncExpr{Name: "UPPER", Args: []xtra.Scalar{l}, T: types.VarChar(0)}
		r = &xtra.FuncExpr{Name: "UPPER", Args: []xtra.Scalar{r}, T: types.VarChar(0)}
	}
	// Insert implicit casts for comparable-but-different temporal kinds.
	if lt.Kind != rt.Kind && lt.IsTemporal() && rt.IsTemporal() {
		super, err := types.CommonSupertype(lt, rt)
		if err != nil {
			return nil, fmt.Errorf("binder: %v", err)
		}
		if lt.Kind != super.Kind {
			l = &xtra.CastExpr{X: l, To: super, Implicit: true}
		}
		if rt.Kind != super.Kind {
			r = &xtra.CastExpr{X: r, To: super, Implicit: true}
		}
	}
	return &xtra.CompExpr{Op: op, L: l, R: r}, nil
}

func (b *Binder) bindUnary(x *sqlast.UnaryExpr, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	switch x.Op {
	case sqlast.UnaryNot:
		inner, err := b.bindPredicateCtx(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		return &xtra.NotExpr{X: inner}, nil
	case sqlast.UnaryNeg:
		inner, err := b.bindScalarCtx(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		if !inner.Type().IsNumeric() && inner.Type().Kind != types.KindNull && inner.Type().Kind != types.KindInterval {
			return nil, fmt.Errorf("binder: cannot negate %s", inner.Type())
		}
		return &xtra.NegExpr{X: inner}, nil
	case sqlast.UnaryIsNull, sqlast.UnaryIsNotNull:
		inner, err := b.bindScalarCtx(x.X, sc, ctx)
		if err != nil {
			return nil, err
		}
		return &xtra.IsNullExpr{Not: x.Op == sqlast.UnaryIsNotNull, X: inner}, nil
	}
	return nil, fmt.Errorf("binder: unknown unary operator")
}

func (b *Binder) bindCase(x *sqlast.CaseExpr, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	out := &xtra.CaseExpr{}
	var operand xtra.Scalar
	if x.Operand != nil {
		op, err := b.bindScalarCtx(x.Operand, sc, ctx)
		if err != nil {
			return nil, err
		}
		operand = op
	}
	resultT := types.Null
	for _, w := range x.Whens {
		var cond xtra.Scalar
		var err error
		if operand != nil {
			// Simple CASE desugars to operand = when.
			rhs, err2 := b.bindScalarCtx(w.Cond, sc, ctx)
			if err2 != nil {
				return nil, err2
			}
			cond = &xtra.CompExpr{Op: xtra.CmpEQ, L: operand, R: rhs}
		} else {
			cond, err = b.bindPredicateCtx(w.Cond, sc, ctx)
			if err != nil {
				return nil, err
			}
		}
		then, err := b.bindScalarCtx(w.Then, sc, ctx)
		if err != nil {
			return nil, err
		}
		resultT, err = mergeCaseType(resultT, then.Type())
		if err != nil {
			return nil, err
		}
		out.Whens = append(out.Whens, xtra.CaseWhen{Cond: cond, Then: then})
	}
	if x.Else != nil {
		els, err := b.bindScalarCtx(x.Else, sc, ctx)
		if err != nil {
			return nil, err
		}
		resultT, err = mergeCaseType(resultT, els.Type())
		if err != nil {
			return nil, err
		}
		out.Else = els
	}
	out.T = resultT
	return out, nil
}

func mergeCaseType(acc, t types.T) (types.T, error) {
	super, err := types.CommonSupertype(acc, t)
	if err != nil {
		return types.Null, fmt.Errorf("binder: incompatible CASE branch types %s and %s", acc, t)
	}
	return super, nil
}

func (b *Binder) bindIn(x *sqlast.InExpr, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	var left []xtra.Scalar
	for _, l := range x.Left {
		e, err := b.bindScalarCtx(l, sc, ctx)
		if err != nil {
			return nil, err
		}
		left = append(left, e)
	}
	if x.Query != nil {
		op, err := b.bindSubquery(x.Query, sc)
		if err != nil {
			return nil, err
		}
		if len(op.Columns()) != len(left) {
			return nil, fmt.Errorf("binder: IN subquery yields %d columns, want %d", len(op.Columns()), len(left))
		}
		var cmp xtra.Scalar = &xtra.SubqueryCmp{Cmp: xtra.CmpEQ, Quant: xtra.QuantAny, Left: left, Input: op}
		if x.Not {
			cmp = &xtra.NotExpr{X: cmp}
		}
		return cmp, nil
	}
	if len(left) != 1 {
		return nil, fmt.Errorf("binder: row IN value-list is not supported")
	}
	var vals []xtra.Scalar
	for _, v := range x.List {
		e, err := b.bindScalarCtx(v, sc, ctx)
		if err != nil {
			return nil, err
		}
		if !types.CanCompare(left[0].Type(), e.Type()) {
			return nil, fmt.Errorf("binder: IN list value type %s incompatible with %s", e.Type(), left[0].Type())
		}
		vals = append(vals, e)
	}
	return &xtra.InValues{Not: x.Not, X: left[0], Vals: vals}, nil
}

func (b *Binder) bindQuantified(x *sqlast.QuantifiedCmp, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	var left []xtra.Scalar
	for _, l := range x.Left {
		e, err := b.bindScalarCtx(l, sc, ctx)
		if err != nil {
			return nil, err
		}
		left = append(left, e)
	}
	op, err := b.bindSubquery(x.Query, sc)
	if err != nil {
		return nil, err
	}
	if len(op.Columns()) != len(left) {
		return nil, fmt.Errorf("binder: quantified subquery yields %d columns, want %d", len(op.Columns()), len(left))
	}
	quant := xtra.QuantAny
	if x.Quant == sqlast.QuantAll {
		quant = xtra.QuantAll
	}
	return &xtra.SubqueryCmp{Cmp: cmpMap[x.Op], Quant: quant, Left: left, Input: op}, nil
}

// bindSubquery binds a nested query with the current scope as correlation
// parent.
func (b *Binder) bindSubquery(q *sqlast.QueryExpr, sc *scope) (xtra.Op, error) {
	return b.bindQueryExpr(q, sc)
}

func (b *Binder) bindInterval(x *sqlast.IntervalExpr, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	v, err := b.bindScalarCtx(x.Value, sc, ctx)
	if err != nil {
		return nil, err
	}
	c, ok := v.(*xtra.ConstExpr)
	if !ok {
		return nil, fmt.Errorf("binder: INTERVAL requires a literal value")
	}
	var n int64
	switch {
	case c.Val.Type().IsNumeric():
		n = c.Val.AsInt()
	case c.Val.Type().IsString():
		d, err := types.Cast(c.Val, types.BigInt)
		if err != nil {
			return nil, fmt.Errorf("binder: invalid INTERVAL value %q", c.Val.S)
		}
		n = d.I
	default:
		return nil, fmt.Errorf("binder: invalid INTERVAL value")
	}
	// Day intervals become day counts usable in date arithmetic; month/year
	// intervals have no uniform arithmetic across targets — the portable
	// canonical form is ADD_MONTHS, so direct INTERVAL MONTH arithmetic is
	// rejected with a hint.
	switch strings.ToUpper(x.Unit) {
	case "DAY":
		return xtra.NewConst(types.NewInt(n)), nil
	case "MONTH", "YEAR":
		return nil, fmt.Errorf("binder: INTERVAL %s arithmetic is not portable; use ADD_MONTHS", strings.ToUpper(x.Unit))
	case "HOUR", "MINUTE", "SECOND":
		mult := map[string]int64{"HOUR": 3600, "MINUTE": 60, "SECOND": 1}[strings.ToUpper(x.Unit)]
		return xtra.NewConst(types.NewInterval(n * mult * 1_000_000)), nil
	}
	return nil, fmt.Errorf("binder: unsupported INTERVAL unit %s", x.Unit)
}

// isCaseInsensitive reports whether the scalar is a direct reference to a
// NOT CASESPECIFIC column.
func (b *Binder) isCaseInsensitive(s xtra.Scalar) bool {
	cr, ok := s.(*xtra.ColRef)
	return ok && b.ciCols[cr.Col.ID]
}

// markCaseInsensitive records a NOT CASESPECIFIC column.
func (b *Binder) markCaseInsensitive(id xtra.ColumnID) {
	if b.ciCols == nil {
		b.ciCols = map[xtra.ColumnID]bool{}
	}
	b.ciCols[id] = true
}

func stringify(s xtra.Scalar) xtra.Scalar {
	if s.Type().IsString() || s.Type().Kind == types.KindNull {
		return s
	}
	return &xtra.CastExpr{X: s, To: types.VarChar(0), Implicit: true}
}
