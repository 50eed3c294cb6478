package binder

import (
	"fmt"
	"strings"

	"hyperq/internal/sqlast"
	"hyperq/internal/types"
	"hyperq/internal/xtra"
)

// implicitCast coerces e to want, inserting an implicit cast when needed.
func (b *Binder) implicitCast(e xtra.Scalar, want types.T) (xtra.Scalar, error) {
	t := e.Type()
	if t.Equal(want) || t.Kind == types.KindNull {
		return e, nil
	}
	if !coercible(t, want) {
		return nil, fmt.Errorf("cannot coerce %s to %s", t, want)
	}
	return &xtra.CastExpr{X: e, To: want, Implicit: true}, nil
}

// aggResultType derives the aggregate output type.
func aggResultType(fn string, arg types.T) (types.T, error) {
	switch fn {
	case "COUNT":
		return types.BigInt, nil
	case "SUM":
		switch arg.Kind {
		case types.KindInt, types.KindBigInt:
			return types.BigInt, nil
		case types.KindDecimal:
			return types.Decimal(18, arg.Scale), nil
		case types.KindFloat:
			return types.Float, nil
		case types.KindNull:
			return types.BigInt, nil
		}
		return types.Null, fmt.Errorf("SUM over %s", arg)
	case "AVG":
		switch arg.Kind {
		case types.KindInt, types.KindBigInt, types.KindFloat, types.KindNull:
			return types.Float, nil
		case types.KindDecimal:
			s := arg.Scale
			if s < 4 {
				s = 4
			}
			return types.Decimal(18, s), nil
		}
		return types.Null, fmt.Errorf("AVG over %s", arg)
	case "MIN", "MAX":
		return arg, nil
	}
	return types.Null, fmt.Errorf("unknown aggregate %s", fn)
}

// bindFuncCall binds aggregates and scalar builtins.
func (b *Binder) bindFuncCall(x *sqlast.FuncCall, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	name := strings.ToUpper(x.Name)
	if aggFuncs[name] {
		return b.bindAggregate(x, sc, ctx)
	}
	if x.Distinct {
		return nil, fmt.Errorf("binder: DISTINCT is only valid in aggregates")
	}
	if x.Star {
		return nil, fmt.Errorf("binder: %s(*) is not valid", name)
	}
	// Target-dialect spellings normalize to the canonical builtin so the
	// engine substrate accepts the SQL each serializer emits.
	switch name {
	case "LEN":
		name = "CHAR_LENGTH"
	case "CHARINDEX":
		name = "POSITION"
	}
	var args []xtra.Scalar
	for _, a := range x.Args {
		e, err := b.bindScalarCtx(a, sc, ctx)
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	if name == "STRPOS" {
		// STRPOS(haystack, needle) -> POSITION(needle, haystack).
		if len(args) != 2 {
			return nil, fmt.Errorf("binder: STRPOS takes two arguments")
		}
		name = "POSITION"
		args[0], args[1] = args[1], args[0]
	}
	return b.resolveBuiltin(name, args)
}

// resolveBuiltin type-checks a canonical scalar builtin.
func (b *Binder) resolveBuiltin(name string, args []xtra.Scalar) (xtra.Scalar, error) {
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("binder: %s takes %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	wantString := func(i int) (xtra.Scalar, error) {
		if args[i].Type().IsString() || args[i].Type().Kind == types.KindNull {
			return args[i], nil
		}
		return nil, fmt.Errorf("binder: argument %d of %s must be a string, got %s", i+1, name, args[i].Type())
	}
	switch name {
	case "CHAR_LENGTH", "LENGTH":
		if err := arity(1); err != nil {
			return nil, err
		}
		if _, err := wantString(0); err != nil {
			return nil, err
		}
		return &xtra.FuncExpr{Name: "CHAR_LENGTH", Args: args, T: types.Int}, nil
	case "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("binder: SUBSTR takes 2 or 3 arguments")
		}
		if _, err := wantString(0); err != nil {
			return nil, err
		}
		return &xtra.FuncExpr{Name: "SUBSTR", Args: args, T: types.VarChar(0)}, nil
	case "POSITION":
		if err := arity(2); err != nil {
			return nil, err
		}
		return &xtra.FuncExpr{Name: "POSITION", Args: args, T: types.Int}, nil
	case "UPPER", "LOWER":
		if err := arity(1); err != nil {
			return nil, err
		}
		if _, err := wantString(0); err != nil {
			return nil, err
		}
		return &xtra.FuncExpr{Name: name, Args: args, T: types.VarChar(0)}, nil
	case "TRIM", "LTRIM", "RTRIM":
		// The optional second argument is the character to trim.
		if len(args) != 1 && len(args) != 2 {
			return nil, fmt.Errorf("binder: %s takes 1 or 2 arguments", name)
		}
		for i := range args {
			if _, err := wantString(i); err != nil {
				return nil, err
			}
		}
		return &xtra.FuncExpr{Name: name, Args: args, T: types.VarChar(0)}, nil
	case "COALESCE":
		if len(args) < 2 {
			return nil, fmt.Errorf("binder: COALESCE takes at least 2 arguments")
		}
		t := types.Null
		var err error
		for _, a := range args {
			t, err = types.CommonSupertype(t, a.Type())
			if err != nil {
				return nil, fmt.Errorf("binder: COALESCE: %v", err)
			}
		}
		return &xtra.FuncExpr{Name: "COALESCE", Args: args, T: t}, nil
	case "NULLIF":
		if err := arity(2); err != nil {
			return nil, err
		}
		if !types.CanCompare(args[0].Type(), args[1].Type()) {
			return nil, fmt.Errorf("binder: NULLIF arguments are not comparable")
		}
		return &xtra.FuncExpr{Name: "NULLIF", Args: args, T: args[0].Type()}, nil
	case "ABS":
		if err := arity(1); err != nil {
			return nil, err
		}
		if !args[0].Type().IsNumeric() && args[0].Type().Kind != types.KindNull {
			return nil, fmt.Errorf("binder: ABS requires a numeric argument")
		}
		return &xtra.FuncExpr{Name: "ABS", Args: args, T: args[0].Type()}, nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return nil, fmt.Errorf("binder: ROUND takes 1 or 2 arguments")
		}
		return &xtra.FuncExpr{Name: "ROUND", Args: args, T: args[0].Type()}, nil
	case "FLOOR", "CEIL", "CEILING":
		if err := arity(1); err != nil {
			return nil, err
		}
		n := name
		if n == "CEILING" {
			n = "CEIL"
		}
		return &xtra.FuncExpr{Name: n, Args: args, T: types.BigInt}, nil
	case "MOD":
		if err := arity(2); err != nil {
			return nil, err
		}
		t, err := types.ArithResultType(types.OpMod, args[0].Type(), args[1].Type())
		if err != nil {
			return nil, fmt.Errorf("binder: %v", err)
		}
		return &xtra.ArithExpr{Op: types.OpMod, L: args[0], R: args[1], T: t}, nil
	case "ADD_MONTHS":
		if err := arity(2); err != nil {
			return nil, err
		}
		t := args[0].Type()
		if t.Kind != types.KindDate && t.Kind != types.KindTimestamp && t.Kind != types.KindNull {
			return nil, fmt.Errorf("binder: ADD_MONTHS requires a date argument")
		}
		if !args[1].Type().IsNumeric() && args[1].Type().Kind != types.KindNull {
			return nil, fmt.Errorf("binder: ADD_MONTHS requires a numeric month count")
		}
		return &xtra.FuncExpr{Name: "ADD_MONTHS", Args: args, T: types.Date}, nil
	case "DATEADD":
		if err := arity(3); err != nil {
			return nil, err
		}
		if !args[1].Type().IsNumeric() && args[1].Type().Kind != types.KindNull {
			return nil, fmt.Errorf("binder: DATEADD requires a numeric count")
		}
		t := args[2].Type()
		if t.Kind != types.KindDate && t.Kind != types.KindTimestamp && t.Kind != types.KindNull {
			return nil, fmt.Errorf("binder: DATEADD requires a date argument")
		}
		return &xtra.FuncExpr{Name: "DATEADD", Args: args, T: types.Date}, nil
	case "CURRENT_DATE":
		if err := arity(0); err != nil {
			return nil, err
		}
		return &xtra.FuncExpr{Name: "CURRENT_DATE", T: types.Date}, nil
	case "CURRENT_TIMESTAMP", "CURRENT_TIME":
		if err := arity(0); err != nil {
			return nil, err
		}
		t := types.Timestamp
		if name == "CURRENT_TIME" {
			t = types.Time
		}
		return &xtra.FuncExpr{Name: name, T: t}, nil
	case "USER", "SESSION_USER":
		if err := arity(0); err != nil {
			return nil, err
		}
		return &xtra.FuncExpr{Name: "USER", T: types.VarChar(0)}, nil
	}
	return nil, fmt.Errorf("binder: unknown function %s", name)
}

// bindAggregate registers an aggregate computation in the current context.
func (b *Binder) bindAggregate(x *sqlast.FuncCall, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	name := strings.ToUpper(x.Name)
	if ctx.agg == nil {
		return nil, fmt.Errorf("binder: aggregate %s is not allowed here", name)
	}
	if ctx.agg.inAggArg {
		return nil, fmt.Errorf("binder: aggregates cannot be nested")
	}
	def := xtra.AggDef{Func: name, Distinct: x.Distinct, Star: x.Star}
	if x.Star {
		if name != "COUNT" {
			return nil, fmt.Errorf("binder: %s(*) is not valid", name)
		}
	} else {
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("binder: %s takes one argument", name)
		}
		inner := ctx
		inner.agg = &aggContext{
			groupASTs: ctx.agg.groupASTs,
			groups:    ctx.agg.groups,
			inAggArg:  true,
		}
		arg, err := b.bindScalarCtx(x.Args[0], sc, inner)
		if err != nil {
			return nil, err
		}
		def.Arg = arg
	}
	argT := types.BigInt
	if def.Arg != nil {
		argT = def.Arg.Type()
	}
	outT, err := aggResultType(name, argT)
	if err != nil {
		return nil, fmt.Errorf("binder: %v", err)
	}
	// Reuse an identical aggregate definition.
	for _, existing := range ctx.agg.aggs {
		if existing.Func == def.Func && existing.Distinct == def.Distinct && existing.Star == def.Star {
			if (existing.Arg == nil && def.Arg == nil) ||
				(existing.Arg != nil && def.Arg != nil && scalarEqual(existing.Arg, def.Arg)) {
				return &xtra.ColRef{Col: existing.Out}, nil
			}
		}
	}
	def.Out = b.newCol(lowerName(name), outT)
	ctx.agg.aggs = append(ctx.agg.aggs, def)
	return &xtra.ColRef{Col: def.Out}, nil
}

// lowerNames holds the output column names of the aggregate and window
// functions.
var lowerNames = map[string]string{}

func init() {
	for name := range windowFuncs {
		lowerNames[name] = strings.ToLower(name)
	}
}

// lowerName is strings.ToLower for an aggregate or window function name.
func lowerName(name string) string {
	if n, ok := lowerNames[name]; ok {
		return n
	}
	return strings.ToLower(name)
}

// windowFuncs maps supported window function names to rank-like (true) or
// aggregate-window (false).
var windowFuncs = map[string]bool{
	"RANK": true, "DENSE_RANK": true, "ROW_NUMBER": true,
	"SUM": false, "COUNT": false, "AVG": false, "MIN": false, "MAX": false,
}

// bindWindowFunc binds a window invocation, registering it in the block's
// window collector grouped by specification.
func (b *Binder) bindWindowFunc(x *sqlast.WindowFunc, sc *scope, ctx selCtx) (xtra.Scalar, error) {
	if ctx.windows == nil {
		return nil, fmt.Errorf("binder: window functions are not allowed here")
	}
	name := strings.ToUpper(x.Func.Name)
	rankLike, ok := windowFuncs[name]
	if !ok {
		return nil, fmt.Errorf("binder: unknown window function %s", name)
	}
	// Window operands bind without window context (no nesting), but with the
	// aggregate context: windows evaluate after grouping.
	inner := ctx
	inner.windows = nil

	var partitionBy []xtra.Scalar
	for _, p := range x.Over.PartitionBy {
		e, err := b.bindScalarCtx(p, sc, inner)
		if err != nil {
			return nil, err
		}
		partitionBy = append(partitionBy, e)
	}
	var orderBy []xtra.SortKey
	for _, o := range x.Over.OrderBy {
		e, err := b.bindScalarCtx(o.Expr, sc, inner)
		if err != nil {
			return nil, err
		}
		orderBy = append(orderBy, b.makeSortKey(e, o))
	}
	def := xtra.WindowDef{Name: name, TdForm: x.TdForm}
	var outT types.T
	if rankLike {
		if len(x.Func.Args) != 0 {
			return nil, fmt.Errorf("binder: %s takes no arguments", name)
		}
		if len(orderBy) == 0 {
			return nil, fmt.Errorf("binder: %s requires ORDER BY", name)
		}
		outT = types.BigInt
	} else {
		if x.Func.Star {
			if name != "COUNT" {
				return nil, fmt.Errorf("binder: %s(*) is not valid", name)
			}
			def.Star = true
			outT = types.BigInt
		} else {
			if len(x.Func.Args) != 1 {
				return nil, fmt.Errorf("binder: %s takes one argument", name)
			}
			arg, err := b.bindScalarCtx(x.Func.Args[0], sc, inner)
			if err != nil {
				return nil, err
			}
			def.Args = []xtra.Scalar{arg}
			t, err := aggResultType(name, arg.Type())
			if err != nil {
				return nil, fmt.Errorf("binder: %v", err)
			}
			outT = t
		}
	}
	def.Out = b.newCol(lowerName(name), outT)

	// Attach to an existing group with the same specification.
	for _, g := range ctx.windows.groups {
		if scalarsEqual(g.partitionBy, partitionBy) && sortKeysEqual(g.orderBy, orderBy) {
			g.funcs = append(g.funcs, def)
			return &xtra.ColRef{Col: def.Out}, nil
		}
	}
	ctx.windows.groups = append(ctx.windows.groups, &windowGroup{
		partitionBy: partitionBy, orderBy: orderBy, funcs: []xtra.WindowDef{def},
	})
	return &xtra.ColRef{Col: def.Out}, nil
}
