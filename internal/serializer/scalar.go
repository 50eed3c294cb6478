package serializer

import (
	"fmt"
	"strings"

	"hyperq/internal/dialect"
	"hyperq/internal/fingerprint"
	"hyperq/internal/types"
	"hyperq/internal/xtra"
)

// scalar renders a scalar expression in the target dialect.
func (w *writer) scalar(s xtra.Scalar) (string, error) {
	switch x := s.(type) {
	case *xtra.ColRef:
		n, ok := w.names[x.Col.ID]
		if !ok {
			return "", fmt.Errorf("serializer: unresolved column %s (#%d)", x.Col.Name, x.Col.ID)
		}
		return n, nil
	case *xtra.ConstExpr:
		if w.lift && x.Lit > 0 {
			return fingerprint.Marker(x.Lit - 1), nil
		}
		return x.Val.SQLLiteral(), nil
	case *xtra.CompExpr:
		l, err := w.scalar(x.L)
		if err != nil {
			return "", err
		}
		r, err := w.scalar(x.R)
		if err != nil {
			return "", err
		}
		return "(" + l + " " + x.Op.SQL() + " " + r + ")", nil
	case *xtra.BoolExpr:
		parts, err := w.scalars(x.Args)
		if err != nil {
			return "", err
		}
		return "(" + strings.Join(parts, " "+x.Op.String()+" ") + ")", nil
	case *xtra.NotExpr:
		inner, err := w.scalar(x.X)
		if err != nil {
			return "", err
		}
		return "(NOT " + inner + ")", nil
	case *xtra.IsNullExpr:
		inner, err := w.scalar(x.X)
		if err != nil {
			return "", err
		}
		if x.Not {
			return "(" + inner + " IS NOT NULL)", nil
		}
		return "(" + inner + " IS NULL)", nil
	case *xtra.ArithExpr:
		l, err := w.scalar(x.L)
		if err != nil {
			return "", err
		}
		r, err := w.scalar(x.R)
		if err != nil {
			return "", err
		}
		if x.Op == types.OpMod {
			return "MOD(" + l + ", " + r + ")", nil
		}
		return "(" + l + " " + x.Op.String() + " " + r + ")", nil
	case *xtra.NegExpr:
		inner, err := w.scalar(x.X)
		if err != nil {
			return "", err
		}
		return "(- " + inner + ")", nil
	case *xtra.ConcatExpr:
		l, err := w.scalar(x.L)
		if err != nil {
			return "", err
		}
		r, err := w.scalar(x.R)
		if err != nil {
			return "", err
		}
		return "(" + l + " || " + r + ")", nil
	case *xtra.LikeExpr:
		v, err := w.scalar(x.X)
		if err != nil {
			return "", err
		}
		p, err := w.scalar(x.Pattern)
		if err != nil {
			return "", err
		}
		op := " LIKE "
		if x.Not {
			op = " NOT LIKE "
		}
		return "(" + v + op + p + ")", nil
	case *xtra.FuncExpr:
		return w.funcExpr(x)
	case *xtra.ExtractExpr:
		inner, err := w.scalar(x.X)
		if err != nil {
			return "", err
		}
		return "EXTRACT(" + x.Field.String() + " FROM " + inner + ")", nil
	case *xtra.CastExpr:
		inner, err := w.scalar(x.X)
		if err != nil {
			return "", err
		}
		return "CAST(" + inner + " AS " + x.To.String() + ")", nil
	case *xtra.CaseExpr:
		// Nested scalar calls also use w.buf; stack discipline keeps this
		// emission's prefix intact while they append and cut behind it.
		mark := len(w.buf)
		w.buf = append(w.buf, "CASE"...)
		for _, wh := range x.Whens {
			c, err := w.scalar(wh.Cond)
			if err != nil {
				w.buf = w.buf[:mark]
				return "", err
			}
			t, err := w.scalar(wh.Then)
			if err != nil {
				w.buf = w.buf[:mark]
				return "", err
			}
			w.buf = append(w.buf, " WHEN "...)
			w.buf = append(w.buf, c...)
			w.buf = append(w.buf, " THEN "...)
			w.buf = append(w.buf, t...)
		}
		if x.Else != nil {
			e, err := w.scalar(x.Else)
			if err != nil {
				w.buf = w.buf[:mark]
				return "", err
			}
			w.buf = append(w.buf, " ELSE "...)
			w.buf = append(w.buf, e...)
		}
		w.buf = append(w.buf, " END"...)
		return w.cut(mark), nil
	case *xtra.ExistsExpr:
		sub, err := w.existsBody(x.Input)
		if err != nil {
			return "", err
		}
		if x.Not {
			return "(NOT EXISTS (" + sub + "))", nil
		}
		return "(EXISTS (" + sub + "))", nil
	case *xtra.SubqueryCmp:
		// A vector comparison reaches here only for a target with
		// CapVectorSubquery; it is written as a row comparison.
		left, err := w.scalars(x.Left)
		if err != nil {
			return "", err
		}
		l := strings.Join(left, ", ")
		if len(left) > 1 {
			l = "(" + l + ")"
		}
		b, err := w.fold(x.Input)
		if err != nil {
			return "", err
		}
		return "(" + l + " " + x.Cmp.SQL() + " " + x.Quant.String() + " (" + w.render(b) + "))", nil
	case *xtra.InValues:
		v, err := w.scalar(x.X)
		if err != nil {
			return "", err
		}
		vals, err := w.scalars(x.Vals)
		if err != nil {
			return "", err
		}
		op := " IN ("
		if x.Not {
			op = " NOT IN ("
		}
		return "(" + v + op + strings.Join(vals, ", ") + "))", nil
	case *xtra.ScalarSubquery:
		b, err := w.fold(x.Input)
		if err != nil {
			return "", err
		}
		return "(" + w.render(b) + ")", nil
	case *xtra.ParamExpr:
		return "", fmt.Errorf("serializer: unresolved parameter :%s", x.Name)
	}
	return "", fmt.Errorf("serializer: unsupported scalar %T", s)
}

// scalars renders each of xs.
func (w *writer) scalars(xs []xtra.Scalar) ([]string, error) {
	out := make([]string, len(xs))
	for i, x := range xs {
		s, err := w.scalar(x)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// existsBody renders the EXISTS subquery input as SELECT 1 over the folded
// input (the "remap consts: (1)" projection of the paper's Figure 6).
func (w *writer) existsBody(op xtra.Op) (string, error) {
	b, err := w.fold(op)
	if err != nil {
		return "", err
	}
	if b.computed() {
		b = w.wrap(b)
	}
	b.sel = []string{"1 AS one"}
	b.cols = nil
	return w.render(b), nil
}

// funcExpr renders a canonical builtin under the target's spelling rules.
func (w *writer) funcExpr(x *xtra.FuncExpr) (string, error) {
	args, err := w.scalars(x.Args)
	if err != nil {
		return "", err
	}
	switch x.Name {
	case "CURRENT_DATE", "CURRENT_TIMESTAMP", "CURRENT_TIME", "USER":
		return x.Name, nil
	case "DATEADD":
		// Unit argument is emitted as a bare keyword.
		unit := "DAY"
		if c, ok := x.Args[0].(*xtra.ConstExpr); ok {
			unit = strings.ToUpper(c.Val.S)
		}
		return "DATEADD(" + unit + ", " + args[1] + ", " + args[2] + ")", nil
	case "ADD_MONTHS":
		if w.profile.MonthArith == dialect.DateAddMonth {
			return "DATEADD(MONTH, " + args[1] + ", " + args[0] + ")", nil
		}
		return "ADD_MONTHS(" + args[0] + ", " + args[1] + ")", nil
	case "POSITION":
		name := w.profile.FuncName("POSITION")
		if name == "POSITION" {
			return "POSITION(" + args[0] + " IN " + args[1] + ")", nil
		}
		// STRPOS/CHARINDEX argument orders: STRPOS(haystack, needle),
		// CHARINDEX(needle, haystack).
		if name == "STRPOS" {
			return "STRPOS(" + args[1] + ", " + args[0] + ")", nil
		}
		return name + "(" + args[0] + ", " + args[1] + ")", nil
	}
	name := w.profile.FuncName(x.Name)
	return name + "(" + strings.Join(args, ", ") + ")", nil
}
