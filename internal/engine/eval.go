package engine

import (
	"fmt"
	"strings"
	"time"

	"hyperq/internal/types"
	"hyperq/internal/xtra"
)

// eval evaluates a scalar expression for the current row environment, with
// SQL three-valued logic.
func (ex *executor) eval(s xtra.Scalar, e *env) (types.Datum, error) {
	switch x := s.(type) {
	case *xtra.ColRef:
		d, ok := e.lookup(x.Col.ID)
		if !ok {
			return types.Datum{}, fmt.Errorf("engine: unresolved column %s (#%d)", x.Col.Name, x.Col.ID)
		}
		return d, nil
	case *xtra.ConstExpr:
		return x.Val, nil
	case *xtra.CompExpr:
		return ex.evalComp(x, e)
	case *xtra.BoolExpr:
		return ex.evalBool(x, e)
	case *xtra.NotExpr:
		d, err := ex.eval(x.X, e)
		if err != nil {
			return types.Datum{}, err
		}
		if d.Null {
			return types.NewNull(types.KindBool), nil
		}
		return types.NewBool(!d.Bool()), nil
	case *xtra.IsNullExpr:
		d, err := ex.eval(x.X, e)
		if err != nil {
			return types.Datum{}, err
		}
		return types.NewBool(d.Null != x.Not), nil
	case *xtra.ArithExpr:
		l, err := ex.eval(x.L, e)
		if err != nil {
			return types.Datum{}, err
		}
		r, err := ex.eval(x.R, e)
		if err != nil {
			return types.Datum{}, err
		}
		return types.Arith(x.Op, l, r)
	case *xtra.NegExpr:
		d, err := ex.eval(x.X, e)
		if err != nil {
			return types.Datum{}, err
		}
		return types.Neg(d)
	case *xtra.ConcatExpr:
		l, err := ex.eval(x.L, e)
		if err != nil {
			return types.Datum{}, err
		}
		r, err := ex.eval(x.R, e)
		if err != nil {
			return types.Datum{}, err
		}
		if l.Null || r.Null {
			return types.NewNull(types.KindVarChar), nil
		}
		return types.NewString(l.String() + r.String()), nil
	case *xtra.LikeExpr:
		return ex.evalLike(x, e)
	case *xtra.FuncExpr:
		return ex.evalFunc(x, e)
	case *xtra.ExtractExpr:
		d, err := ex.eval(x.X, e)
		if err != nil {
			return types.Datum{}, err
		}
		return types.Extract(x.Field, d)
	case *xtra.CastExpr:
		d, err := ex.eval(x.X, e)
		if err != nil {
			return types.Datum{}, err
		}
		return types.Cast(d, x.To)
	case *xtra.CaseExpr:
		for _, w := range x.Whens {
			c, err := ex.eval(w.Cond, e)
			if err != nil {
				return types.Datum{}, err
			}
			if c.Bool() {
				return ex.eval(w.Then, e)
			}
		}
		if x.Else != nil {
			return ex.eval(x.Else, e)
		}
		return types.NewNull(x.T.Kind), nil
	case *xtra.ExistsExpr:
		rs, err := ex.execSubquery(x.Input, e)
		if err != nil {
			return types.Datum{}, err
		}
		return types.NewBool((len(rs.rows) > 0) != x.Not), nil
	case *xtra.SubqueryCmp:
		return ex.evalSubqueryCmp(x, e)
	case *xtra.InValues:
		return ex.evalInValues(x, e)
	case *xtra.ScalarSubquery:
		rs, err := ex.execSubquery(x.Input, e)
		if err != nil {
			return types.Datum{}, err
		}
		switch len(rs.rows) {
		case 0:
			return types.NewNull(x.T.Kind), nil
		case 1:
			return rs.rows[0][0], nil
		}
		return types.Datum{}, fmt.Errorf("engine: scalar subquery returned %d rows", len(rs.rows))
	case *xtra.ParamExpr:
		return types.Datum{}, fmt.Errorf("engine: unresolved parameter :%s", x.Name)
	}
	return types.Datum{}, fmt.Errorf("engine: unsupported scalar %T", s)
}

// evalComp applies three-valued comparison.
func (ex *executor) evalComp(x *xtra.CompExpr, e *env) (types.Datum, error) {
	l, err := ex.eval(x.L, e)
	if err != nil {
		return types.Datum{}, err
	}
	r, err := ex.eval(x.R, e)
	if err != nil {
		return types.Datum{}, err
	}
	if l.Null || r.Null {
		return types.NewNull(types.KindBool), nil
	}
	c, err := types.Compare(l, r)
	if err != nil {
		return types.Datum{}, err
	}
	return types.NewBool(cmpHolds(x.Op, c)), nil
}

func cmpHolds(op xtra.CmpOp, c int) bool {
	switch op {
	case xtra.CmpEQ:
		return c == 0
	case xtra.CmpNE:
		return c != 0
	case xtra.CmpLT:
		return c < 0
	case xtra.CmpLE:
		return c <= 0
	case xtra.CmpGT:
		return c > 0
	case xtra.CmpGE:
		return c >= 0
	}
	return false
}

// evalBool implements three-valued AND/OR with short circuits.
func (ex *executor) evalBool(x *xtra.BoolExpr, e *env) (types.Datum, error) {
	sawNull := false
	for _, a := range x.Args {
		d, err := ex.eval(a, e)
		if err != nil {
			return types.Datum{}, err
		}
		if d.Null {
			sawNull = true
			continue
		}
		if x.Op == xtra.BoolAnd && !d.Bool() {
			return types.NewBool(false), nil
		}
		if x.Op == xtra.BoolOr && d.Bool() {
			return types.NewBool(true), nil
		}
	}
	if sawNull {
		return types.NewNull(types.KindBool), nil
	}
	return types.NewBool(x.Op == xtra.BoolAnd), nil
}

func (ex *executor) evalLike(x *xtra.LikeExpr, e *env) (types.Datum, error) {
	v, err := ex.eval(x.X, e)
	if err != nil {
		return types.Datum{}, err
	}
	p, err := ex.eval(x.Pattern, e)
	if err != nil {
		return types.Datum{}, err
	}
	if v.Null || p.Null {
		return types.NewNull(types.KindBool), nil
	}
	m := likeMatch(strings.TrimRight(v.S, " "), p.S)
	return types.NewBool(m != x.Not), nil
}

// likeMatch implements SQL LIKE with % and _ wildcards (greedy two-pointer
// algorithm, O(n*m) worst case).
func likeMatch(s, pattern string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// evalSubqueryCmp implements quantified (possibly vector) subquery
// comparison with the lexicographic row semantics of the paper's Example 2:
// (a, b) > (x, y) iff a > x OR (a = x AND b > y).
func (ex *executor) evalSubqueryCmp(x *xtra.SubqueryCmp, e *env) (types.Datum, error) {
	left := make([]types.Datum, len(x.Left))
	for i, l := range x.Left {
		d, err := ex.eval(l, e)
		if err != nil {
			return types.Datum{}, err
		}
		left[i] = d
	}
	rs, err := ex.execSubquery(x.Input, e)
	if err != nil {
		return types.Datum{}, err
	}
	anyTrue, anyFalse, anyUnknown := false, false, false
	for _, row := range rs.rows {
		holds, unknown, err := rowCmp(x.Cmp, left, row)
		if err != nil {
			return types.Datum{}, err
		}
		switch {
		case unknown:
			anyUnknown = true
		case holds:
			anyTrue = true
		default:
			anyFalse = true
		}
	}
	if x.Quant == xtra.QuantAny {
		switch {
		case anyTrue:
			return types.NewBool(true), nil
		case anyUnknown:
			return types.NewNull(types.KindBool), nil
		default:
			return types.NewBool(false), nil
		}
	}
	// ALL
	switch {
	case anyFalse:
		return types.NewBool(false), nil
	case anyUnknown:
		return types.NewNull(types.KindBool), nil
	default:
		return types.NewBool(true), nil
	}
}

// rowCmp compares two rows lexicographically under op.
func rowCmp(op xtra.CmpOp, left, right []types.Datum) (holds, unknown bool, err error) {
	// Equality/inequality: all pairs must be comparable.
	for i := range left {
		if left[i].Null || right[i].Null {
			return false, true, nil
		}
	}
	cmp := 0
	for i := range left {
		c, err := types.Compare(left[i], right[i])
		if err != nil {
			return false, false, err
		}
		if c != 0 {
			cmp = c
			break
		}
	}
	return cmpHolds(op, cmp), false, nil
}

func (ex *executor) evalInValues(x *xtra.InValues, e *env) (types.Datum, error) {
	v, err := ex.eval(x.X, e)
	if err != nil {
		return types.Datum{}, err
	}
	if v.Null {
		return types.NewNull(types.KindBool), nil
	}
	sawNull := false
	for _, item := range x.Vals {
		d, err := ex.eval(item, e)
		if err != nil {
			return types.Datum{}, err
		}
		if d.Null {
			sawNull = true
			continue
		}
		c, err := types.Compare(v, d)
		if err != nil {
			return types.Datum{}, err
		}
		if c == 0 {
			return types.NewBool(!x.Not), nil
		}
	}
	if sawNull {
		return types.NewNull(types.KindBool), nil
	}
	return types.NewBool(x.Not), nil
}

func (ex *executor) evalFunc(x *xtra.FuncExpr, e *env) (types.Datum, error) {
	args := make([]types.Datum, len(x.Args))
	for i, a := range x.Args {
		d, err := ex.eval(a, e)
		if err != nil {
			return types.Datum{}, err
		}
		args[i] = d
	}
	switch x.Name {
	case "COALESCE":
		for _, a := range args {
			if !a.Null {
				return types.Cast(a, x.T)
			}
		}
		return types.NewNull(x.T.Kind), nil
	case "NULLIF":
		if args[0].Null {
			return types.NewNull(x.T.Kind), nil
		}
		if !args[1].Null {
			c, err := types.Compare(args[0], args[1])
			if err != nil {
				return types.Datum{}, err
			}
			if c == 0 {
				return types.NewNull(x.T.Kind), nil
			}
		}
		return args[0], nil
	case "CURRENT_DATE":
		now := time.Now().UTC()
		return types.NewDate(now.Year(), int(now.Month()), now.Day()), nil
	case "CURRENT_TIMESTAMP":
		return types.NewTimestamp(time.Now().UnixMicro()), nil
	case "CURRENT_TIME":
		now := time.Now().UTC()
		return types.NewTime(int64(now.Hour()*3600 + now.Minute()*60 + now.Second())), nil
	case "USER":
		return types.NewString(ex.sess.user), nil
	}
	// NULL propagation for the remaining strict functions.
	for _, a := range args {
		if a.Null {
			return types.NewNull(x.T.Kind), nil
		}
	}
	switch x.Name {
	case "CHAR_LENGTH":
		return types.NewInt(int64(len(strings.TrimRight(args[0].S, " ")))), nil
	case "SUBSTR":
		s := args[0].S
		start := int(args[1].AsInt())
		if start < 1 {
			start = 1
		}
		if start > len(s) {
			return types.NewString(""), nil
		}
		out := s[start-1:]
		if len(args) == 3 {
			n := int(args[2].AsInt())
			if n < 0 {
				n = 0
			}
			if n < len(out) {
				out = out[:n]
			}
		}
		return types.NewString(out), nil
	case "POSITION":
		return types.NewInt(int64(strings.Index(args[1].S, args[0].S) + 1)), nil
	case "UPPER":
		return types.NewString(strings.ToUpper(args[0].S)), nil
	case "LOWER":
		return types.NewString(strings.ToLower(args[0].S)), nil
	case "TRIM":
		return types.NewString(strings.Trim(args[0].S, trimChars(args))), nil
	case "LTRIM":
		return types.NewString(strings.TrimLeft(args[0].S, trimChars(args))), nil
	case "RTRIM":
		return types.NewString(strings.TrimRight(args[0].S, trimChars(args))), nil
	case "ABS":
		if args[0].K == types.KindFloat {
			f := args[0].F
			if f < 0 {
				f = -f
			}
			return types.NewFloat(f), nil
		}
		d := args[0]
		if d.I < 0 {
			d.I = -d.I
		}
		return d, nil
	case "ROUND":
		scale := 0
		if len(args) == 2 {
			scale = int(args[1].AsInt())
		}
		f := args[0].AsFloat()
		p := 1.0
		for i := 0; i < scale; i++ {
			p *= 10
		}
		v := float64(int64(f*p+sign(f)*0.5)) / p
		if args[0].K == types.KindFloat {
			return types.NewFloat(v), nil
		}
		return types.Cast(types.NewFloat(v), args[0].Type())
	case "FLOOR":
		f := args[0].AsFloat()
		n := int64(f)
		if f < 0 && float64(n) != f {
			n--
		}
		return types.NewBigInt(n), nil
	case "CEIL":
		f := args[0].AsFloat()
		n := int64(f)
		if f > 0 && float64(n) != f {
			n++
		}
		return types.NewBigInt(n), nil
	case "DATEADD":
		unit := strings.ToUpper(args[0].S)
		d := args[2]
		if d.K != types.KindDate {
			cd, err := types.Cast(d, types.Date)
			if err != nil {
				return types.Datum{}, err
			}
			d = cd
		}
		n := args[1].AsInt()
		switch unit {
		case "DAY":
			return types.AddDays(d, n), nil
		case "MONTH":
			return types.AddMonths(d, n), nil
		case "YEAR":
			return types.AddMonths(d, n*12), nil
		}
		return types.Datum{}, fmt.Errorf("engine: bad DATEADD unit %q", unit)
	case "ADD_MONTHS":
		if args[0].K != types.KindDate {
			d, err := types.Cast(args[0], types.Date)
			if err != nil {
				return types.Datum{}, err
			}
			args[0] = d
		}
		return types.AddMonths(args[0], args[1].AsInt()), nil
	}
	return types.Datum{}, fmt.Errorf("engine: unknown function %s", x.Name)
}

func sign(f float64) float64 {
	if f < 0 {
		return -1
	}
	return 1
}

// trimChars is the cutset of a trim call: its second argument, a space by
// default.
func trimChars(args []types.Datum) string {
	if len(args) == 2 {
		return args[1].S
	}
	return " "
}
