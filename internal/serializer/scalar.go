package serializer

import (
	"fmt"
	"strings"

	"hyperq/internal/dialect"
	"hyperq/internal/fingerprint"
	"hyperq/internal/types"
	"hyperq/internal/xtra"
)

// scalar renders a scalar expression in the target dialect as a string of
// its own.
func (w *writer) scalar(s xtra.Scalar) (string, error) {
	mark := len(w.buf)
	if err := w.appendScalar(s); err != nil {
		return "", err
	}
	return w.cut(mark), nil
}

// appendScalar appends a scalar expression rendered in the target dialect.
// Subqueries fold and render on top of the buffer under its stack
// discipline, so they may append mid-expression.
func (w *writer) appendScalar(s xtra.Scalar) error {
	switch x := s.(type) {
	case *xtra.ColRef:
		n, ok := w.names[x.Col.ID]
		if !ok {
			return fmt.Errorf("serializer: unresolved column %s (#%d)", x.Col.Name, x.Col.ID)
		}
		w.appendName(n)
	case *xtra.ConstExpr:
		if w.lift && x.Lit > 0 {
			w.buf = fingerprint.AppendMarker(w.buf, x.Lit-1)
		} else {
			w.buf = x.Val.AppendSQLLiteral(w.buf)
		}
	case *xtra.CompExpr:
		return w.appendInfix(x.L, x.Op.SQL(), x.R)
	case *xtra.BoolExpr:
		w.buf = append(w.buf, '(')
		for i, a := range x.Args {
			if i > 0 {
				w.buf = append(w.buf, ' ')
				w.buf = append(w.buf, x.Op.String()...)
				w.buf = append(w.buf, ' ')
			}
			if err := w.appendScalar(a); err != nil {
				return err
			}
		}
		w.buf = append(w.buf, ')')
	case *xtra.NotExpr:
		// A chain of NOTs shares one pair of parentheses, so SQL-B nests no
		// deeper than the request did.
		w.buf = append(w.buf, "(NOT"...)
		inner := x.X
		for n, ok := inner.(*xtra.NotExpr); ok; n, ok = inner.(*xtra.NotExpr) {
			w.buf = append(w.buf, " NOT"...)
			inner = n.X
		}
		return w.appendWrapped(" ", inner, ")")
	case *xtra.IsNullExpr:
		if x.Not {
			return w.appendWrapped("(", x.X, " IS NOT NULL)")
		}
		return w.appendWrapped("(", x.X, " IS NULL)")
	case *xtra.ArithExpr:
		if x.Op == types.OpMod {
			return w.appendCall("MOD", x.L, x.R)
		}
		return w.appendInfix(x.L, x.Op.String(), x.R)
	case *xtra.NegExpr:
		return w.appendWrapped("(- ", x.X, ")")
	case *xtra.ConcatExpr:
		return w.appendInfix(x.L, "||", x.R)
	case *xtra.LikeExpr:
		if x.Not {
			return w.appendInfix(x.X, "NOT LIKE", x.Pattern)
		}
		return w.appendInfix(x.X, "LIKE", x.Pattern)
	case *xtra.FuncExpr:
		return w.funcExpr(x)
	case *xtra.ExtractExpr:
		w.buf = append(w.buf, "EXTRACT("...)
		w.buf = append(w.buf, x.Field.String()...)
		return w.appendWrapped(" FROM ", x.X, ")")
	case *xtra.CastExpr:
		if err := w.appendWrapped("CAST(", x.X, " AS "); err != nil {
			return err
		}
		w.buf = append(w.buf, x.To.String()...)
		w.buf = append(w.buf, ')')
	case *xtra.CaseExpr:
		w.buf = append(w.buf, "CASE"...)
		for _, wh := range x.Whens {
			if err := w.appendWrapped(" WHEN ", wh.Cond, ""); err != nil {
				return err
			}
			if err := w.appendWrapped(" THEN ", wh.Then, ""); err != nil {
				return err
			}
		}
		if x.Else != nil {
			if err := w.appendWrapped(" ELSE ", x.Else, ""); err != nil {
				return err
			}
		}
		w.buf = append(w.buf, " END"...)
	case *xtra.ExistsExpr:
		if x.Not {
			w.buf = append(w.buf, "(NOT EXISTS ("...)
		} else {
			w.buf = append(w.buf, "(EXISTS ("...)
		}
		if err := w.appendExistsBody(x.Input); err != nil {
			return err
		}
		w.buf = append(w.buf, "))"...)
	case *xtra.SubqueryCmp:
		// A vector comparison reaches here only for a target with
		// CapVectorSubquery; it is written as a row comparison.
		w.buf = append(w.buf, '(')
		if len(x.Left) > 1 {
			w.buf = append(w.buf, '(')
		}
		if err := w.appendScalars(x.Left); err != nil {
			return err
		}
		if len(x.Left) > 1 {
			w.buf = append(w.buf, ')')
		}
		w.buf = append(w.buf, ' ')
		w.buf = append(w.buf, x.Cmp.SQL()...)
		w.buf = append(w.buf, ' ')
		w.buf = append(w.buf, x.Quant.String()...)
		w.buf = append(w.buf, " ("...)
		b, err := w.fold(x.Input)
		if err != nil {
			return err
		}
		w.appendRender(b)
		w.buf = append(w.buf, "))"...)
	case *xtra.InValues:
		if err := w.appendWrapped("(", x.X, ""); err != nil {
			return err
		}
		if x.Not {
			w.buf = append(w.buf, " NOT IN ("...)
		} else {
			w.buf = append(w.buf, " IN ("...)
		}
		if err := w.appendScalars(x.Vals); err != nil {
			return err
		}
		w.buf = append(w.buf, "))"...)
	case *xtra.ScalarSubquery:
		b, err := w.fold(x.Input)
		if err != nil {
			return err
		}
		w.buf = append(w.buf, '(')
		w.appendRender(b)
		w.buf = append(w.buf, ')')
	case *xtra.ParamExpr:
		return fmt.Errorf("serializer: unresolved parameter :%s", x.Name)
	default:
		return fmt.Errorf("serializer: unsupported scalar %T", s)
	}
	return nil
}

// appendWrapped appends open, x, close.
func (w *writer) appendWrapped(open string, x xtra.Scalar, close string) error {
	w.buf = append(w.buf, open...)
	if err := w.appendScalar(x); err != nil {
		return err
	}
	w.buf = append(w.buf, close...)
	return nil
}

// appendInfix appends "(l op r)".
func (w *writer) appendInfix(l xtra.Scalar, op string, r xtra.Scalar) error {
	if err := w.appendWrapped("(", l, " "); err != nil {
		return err
	}
	w.buf = append(w.buf, op...)
	return w.appendWrapped(" ", r, ")")
}

// appendCall appends "name(args...)".
func (w *writer) appendCall(name string, args ...xtra.Scalar) error {
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '(')
	if err := w.appendScalars(args); err != nil {
		return err
	}
	w.buf = append(w.buf, ')')
	return nil
}

// appendScalars appends each of xs, joined by ", ".
func (w *writer) appendScalars(xs []xtra.Scalar) error {
	for i, x := range xs {
		w.sep(i, ", ")
		if err := w.appendScalar(x); err != nil {
			return err
		}
	}
	return nil
}

// appendExistsBody appends the EXISTS subquery input as SELECT 1 over the
// folded input (the "remap consts: (1)" projection of the paper's Figure 6).
func (w *writer) appendExistsBody(op xtra.Op) error {
	b, err := w.fold(op)
	if err != nil {
		return err
	}
	if b.computed() {
		b = w.wrap(b)
	}
	b.sel = "1 AS one"
	b.cols = nil
	w.appendRender(b)
	return nil
}

// funcExpr renders a canonical builtin under the target's spelling rules.
// Arguments render in their own order whatever order the spelling writes
// them in: a subquery argument numbers its table aliases as it renders.
func (w *writer) funcExpr(x *xtra.FuncExpr) error {
	switch x.Name {
	case "CURRENT_DATE", "CURRENT_TIMESTAMP", "CURRENT_TIME", "USER":
		w.buf = append(w.buf, x.Name...)
		return nil
	case "DATEADD":
		// Unit argument is emitted as a bare keyword.
		unit := "DAY"
		if c, ok := x.Args[0].(*xtra.ConstExpr); ok {
			unit = strings.ToUpper(c.Val.S)
		}
		w.buf = append(w.buf, "DATEADD("...)
		w.buf = append(w.buf, unit...)
		w.buf = append(w.buf, ", "...)
		if err := w.appendScalars(x.Args[1:]); err != nil {
			return err
		}
		w.buf = append(w.buf, ')')
		return nil
	case "ADD_MONTHS":
		if w.profile.MonthArith == dialect.DateAddMonth {
			return w.appendSwapped("DATEADD(MONTH, ", x.Args, ", ", ")")
		}
		return w.appendCall("ADD_MONTHS", x.Args...)
	case "TRIM", "LTRIM", "RTRIM":
		if len(x.Args) == 2 {
			// The standard form every modeled target parses.
			return w.appendSwapped("TRIM("+trimSpecs[x.Name]+" ", x.Args, " FROM ", ")")
		}
	case "POSITION":
		switch name := w.profile.FuncName("POSITION"); name {
		case "POSITION":
			if err := w.appendWrapped("POSITION(", x.Args[0], " IN "); err != nil {
				return err
			}
			return w.appendWrapped("", x.Args[1], ")")
		case "STRPOS":
			// STRPOS(haystack, needle), CHARINDEX(needle, haystack).
			return w.appendSwapped("STRPOS(", x.Args, ", ", ")")
		default:
			return w.appendCall(name, x.Args...)
		}
	}
	return w.appendCall(w.profile.FuncName(x.Name), x.Args...)
}

// trimSpecs spells the trim functions' TRIM specification.
var trimSpecs = map[string]string{"TRIM": "BOTH", "LTRIM": "LEADING", "RTRIM": "TRAILING"}

// appendSwapped appends open, args[1], mid, args[0], close, rendering the
// arguments in their own order.
func (w *writer) appendSwapped(open string, args []xtra.Scalar, mid, close string) error {
	a0, err := w.scalar(args[0])
	if err != nil {
		return err
	}
	if err := w.appendWrapped(open, args[1], mid); err != nil {
		return err
	}
	w.buf = append(w.buf, a0...)
	w.buf = append(w.buf, close...)
	return nil
}
