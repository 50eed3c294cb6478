package transform

import (
	"fmt"
	"slices"

	"hyperq/internal/xtra"
)

// rewriteChildren rebuilds op with one rewrite pass applied to its children
// and owned scalar expressions. Unchanged subtrees are shared.
func (t *Transformer) rewriteChildren(op xtra.Op, c *Context) (xtra.Op, bool, error) {
	switch o := op.(type) {
	case *xtra.Get, *xtra.WorkScan:
		return op, false, nil
	case *xtra.Select:
		in, f1, err := t.opOnce(o.Input, c)
		if err != nil {
			return nil, false, err
		}
		p, f2, err := t.scalarOnce(o.Pred, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return op, false, nil
		}
		return &xtra.Select{Input: in, Pred: p}, true, nil
	case *xtra.Project:
		in, fired, err := t.opOnce(o.Input, c)
		if err != nil {
			return nil, false, err
		}
		exprs := o.Exprs // copied on the first change
		for i, ns := range o.Exprs {
			e, f, err := t.scalarOnce(ns.Expr, c)
			if err != nil {
				return nil, false, err
			}
			if f {
				exprs = cloneOnce(exprs, o.Exprs)
				exprs[i].Expr = e
				fired = true
			}
		}
		if !fired {
			return op, false, nil
		}
		return &xtra.Project{Input: in, Exprs: exprs}, true, nil
	case *xtra.Window:
		in, fired, err := t.opOnce(o.Input, c)
		if err != nil {
			return nil, false, err
		}
		pb, f, err := t.scalarSlice(o.PartitionBy, c)
		if err != nil {
			return nil, false, err
		}
		fired = fired || f
		ob, f2, err := t.sortKeys(o.OrderBy, c)
		if err != nil {
			return nil, false, err
		}
		fired = fired || f2
		funcs := o.Funcs // copied on the first change
		for i, d := range o.Funcs {
			args, f3, err := t.scalarSlice(d.Args, c)
			if err != nil {
				return nil, false, err
			}
			if f3 {
				funcs = cloneOnce(funcs, o.Funcs)
				funcs[i].Args = args
				fired = true
			}
		}
		if !fired {
			return op, false, nil
		}
		return &xtra.Window{Input: in, PartitionBy: pb, OrderBy: ob, Funcs: funcs}, true, nil
	case *xtra.Join:
		l, f1, err := t.opOnce(o.L, c)
		if err != nil {
			return nil, false, err
		}
		r, f2, err := t.opOnce(o.R, c)
		if err != nil {
			return nil, false, err
		}
		fired := f1 || f2
		pred := o.Pred
		if pred != nil {
			p, f3, err := t.scalarOnce(pred, c)
			if err != nil {
				return nil, false, err
			}
			pred = p
			fired = fired || f3
		}
		if !fired {
			return op, false, nil
		}
		return &xtra.Join{Kind: o.Kind, L: l, R: r, Pred: pred}, true, nil
	case *xtra.Agg:
		in, fired, err := t.opOnce(o.Input, c)
		if err != nil {
			return nil, false, err
		}
		groups := o.Groups // copied on the first change
		for i, g := range o.Groups {
			e, f, err := t.scalarOnce(g.Expr, c)
			if err != nil {
				return nil, false, err
			}
			if f {
				groups = cloneOnce(groups, o.Groups)
				groups[i].Expr = e
				fired = true
			}
		}
		aggs := o.Aggs // copied on the first change
		for i, a := range o.Aggs {
			if a.Arg == nil {
				continue
			}
			e, f, err := t.scalarOnce(a.Arg, c)
			if err != nil {
				return nil, false, err
			}
			if f {
				aggs = cloneOnce(aggs, o.Aggs)
				aggs[i].Arg = e
				fired = true
			}
		}
		if !fired {
			return op, false, nil
		}
		return &xtra.Agg{Input: in, Groups: groups, Aggs: aggs, GroupingSets: o.GroupingSets}, true, nil
	case *xtra.Sort:
		in, f1, err := t.opOnce(o.Input, c)
		if err != nil {
			return nil, false, err
		}
		keys, f2, err := t.sortKeys(o.Keys, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return op, false, nil
		}
		return &xtra.Sort{Input: in, Keys: keys}, true, nil
	case *xtra.Limit:
		in, f1, err := t.opOnce(o.Input, c)
		if err != nil {
			return nil, false, err
		}
		keys, f2, err := t.sortKeys(o.Keys, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return op, false, nil
		}
		return &xtra.Limit{Input: in, N: o.N, WithTies: o.WithTies, Keys: keys}, true, nil
	case *xtra.SetOp:
		l, f1, err := t.opOnce(o.L, c)
		if err != nil {
			return nil, false, err
		}
		r, f2, err := t.opOnce(o.R, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return op, false, nil
		}
		return &xtra.SetOp{Kind: o.Kind, All: o.All, L: l, R: r, Cols: o.Cols}, true, nil
	case *xtra.Values:
		fired := false
		rows := o.Rows // copied on the first change
		for i, row := range o.Rows {
			nr, f, err := t.scalarSlice(row, c)
			if err != nil {
				return nil, false, err
			}
			if f {
				rows = cloneOnce(rows, o.Rows)
				rows[i] = nr
				fired = true
			}
		}
		if !fired {
			return op, false, nil
		}
		return &xtra.Values{Rows: rows, Cols: o.Cols}, true, nil
	case *xtra.RecursiveUnion:
		seed, f1, err := t.opOnce(o.Seed, c)
		if err != nil {
			return nil, false, err
		}
		rec, f2, err := t.opOnce(o.Recursive, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return op, false, nil
		}
		return &xtra.RecursiveUnion{Seed: seed, Recursive: rec, Cols: o.Cols, WorkID: o.WorkID}, true, nil
	}
	return nil, false, fmt.Errorf("transform: unknown operator %T", op)
}

// cloneOnce is the copy-on-write step for a node's slice: called before
// writing element i of cur, which starts out as the node's own slice orig,
// it returns a copy of orig the first time and cur after that. An unchanged
// node keeps sharing its slices.
func cloneOnce[T any](cur, orig []T) []T {
	if &cur[0] == &orig[0] {
		return slices.Clone(orig)
	}
	return cur
}

func (t *Transformer) scalarSlice(ss []xtra.Scalar, c *Context) ([]xtra.Scalar, bool, error) {
	out := ss // copied on the first change
	fired := false
	for i, s := range ss {
		ns, f, err := t.scalarOnce(s, c)
		if err != nil {
			return nil, false, err
		}
		if f {
			out = cloneOnce(out, ss)
			out[i] = ns
			fired = true
		}
	}
	return out, fired, nil
}

func (t *Transformer) sortKeys(keys []xtra.SortKey, c *Context) ([]xtra.SortKey, bool, error) {
	out := keys // copied on the first change
	fired := false
	for i, k := range keys {
		e, f, err := t.scalarOnce(k.Expr, c)
		if err != nil {
			return nil, false, err
		}
		if f {
			out = cloneOnce(out, keys)
			out[i].Expr = e
			fired = true
		}
	}
	return out, fired, nil
}

// rewriteScalarChildren rebuilds s with one pass applied to nested scalars
// and subquery operator inputs.
func (t *Transformer) rewriteScalarChildren(s xtra.Scalar, c *Context) (xtra.Scalar, bool, error) {
	switch x := s.(type) {
	case *xtra.ColRef, *xtra.ConstExpr, *xtra.ParamExpr:
		return s, false, nil
	case *xtra.CompExpr:
		l, f1, err := t.scalarOnce(x.L, c)
		if err != nil {
			return nil, false, err
		}
		r, f2, err := t.scalarOnce(x.R, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return s, false, nil
		}
		return &xtra.CompExpr{Op: x.Op, L: l, R: r}, true, nil
	case *xtra.BoolExpr:
		args, fired, err := t.scalarSlice(x.Args, c)
		if err != nil {
			return nil, false, err
		}
		if !fired {
			return s, false, nil
		}
		return &xtra.BoolExpr{Op: x.Op, Args: args}, true, nil
	case *xtra.NotExpr:
		e, f, err := t.scalarOnce(x.X, c)
		if err != nil || !f {
			return s, f, err
		}
		return &xtra.NotExpr{X: e}, true, nil
	case *xtra.IsNullExpr:
		e, f, err := t.scalarOnce(x.X, c)
		if err != nil || !f {
			return s, f, err
		}
		return &xtra.IsNullExpr{Not: x.Not, X: e}, true, nil
	case *xtra.ArithExpr:
		l, f1, err := t.scalarOnce(x.L, c)
		if err != nil {
			return nil, false, err
		}
		r, f2, err := t.scalarOnce(x.R, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return s, false, nil
		}
		return &xtra.ArithExpr{Op: x.Op, L: l, R: r, T: x.T}, true, nil
	case *xtra.NegExpr:
		e, f, err := t.scalarOnce(x.X, c)
		if err != nil || !f {
			return s, f, err
		}
		return &xtra.NegExpr{X: e}, true, nil
	case *xtra.ConcatExpr:
		l, f1, err := t.scalarOnce(x.L, c)
		if err != nil {
			return nil, false, err
		}
		r, f2, err := t.scalarOnce(x.R, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return s, false, nil
		}
		return &xtra.ConcatExpr{L: l, R: r}, true, nil
	case *xtra.LikeExpr:
		v, f1, err := t.scalarOnce(x.X, c)
		if err != nil {
			return nil, false, err
		}
		p, f2, err := t.scalarOnce(x.Pattern, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return s, false, nil
		}
		return &xtra.LikeExpr{Not: x.Not, X: v, Pattern: p}, true, nil
	case *xtra.FuncExpr:
		args, fired, err := t.scalarSlice(x.Args, c)
		if err != nil || !fired {
			return s, fired, err
		}
		return &xtra.FuncExpr{Name: x.Name, Args: args, T: x.T}, true, nil
	case *xtra.ExtractExpr:
		e, f, err := t.scalarOnce(x.X, c)
		if err != nil || !f {
			return s, f, err
		}
		return &xtra.ExtractExpr{Field: x.Field, X: e}, true, nil
	case *xtra.CastExpr:
		e, f, err := t.scalarOnce(x.X, c)
		if err != nil || !f {
			return s, f, err
		}
		return &xtra.CastExpr{X: e, To: x.To, Implicit: x.Implicit}, true, nil
	case *xtra.CaseExpr:
		fired := false
		whens := x.Whens // copied on the first change
		for i, w := range x.Whens {
			cond, f1, err := t.scalarOnce(w.Cond, c)
			if err != nil {
				return nil, false, err
			}
			then, f2, err := t.scalarOnce(w.Then, c)
			if err != nil {
				return nil, false, err
			}
			if f1 || f2 {
				whens = cloneOnce(whens, x.Whens)
				whens[i] = xtra.CaseWhen{Cond: cond, Then: then}
				fired = true
			}
		}
		els := x.Else
		if els != nil {
			e, f, err := t.scalarOnce(els, c)
			if err != nil {
				return nil, false, err
			}
			els = e
			fired = fired || f
		}
		if !fired {
			return s, false, nil
		}
		return &xtra.CaseExpr{Whens: whens, Else: els, T: x.T}, true, nil
	case *xtra.ExistsExpr:
		in, f, err := t.opOnce(x.Input, c)
		if err != nil || !f {
			return s, f, err
		}
		return &xtra.ExistsExpr{Not: x.Not, Input: in}, true, nil
	case *xtra.SubqueryCmp:
		left, f1, err := t.scalarSlice(x.Left, c)
		if err != nil {
			return nil, false, err
		}
		in, f2, err := t.opOnce(x.Input, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return s, false, nil
		}
		return &xtra.SubqueryCmp{Cmp: x.Cmp, Quant: x.Quant, Left: left, Input: in}, true, nil
	case *xtra.InValues:
		v, f1, err := t.scalarOnce(x.X, c)
		if err != nil {
			return nil, false, err
		}
		vals, f2, err := t.scalarSlice(x.Vals, c)
		if err != nil {
			return nil, false, err
		}
		if !f1 && !f2 {
			return s, false, nil
		}
		return &xtra.InValues{Not: x.Not, X: v, Vals: vals}, true, nil
	case *xtra.ScalarSubquery:
		in, f, err := t.opOnce(x.Input, c)
		if err != nil || !f {
			return s, f, err
		}
		return &xtra.ScalarSubquery{Input: in, T: x.T}, true, nil
	}
	return nil, false, fmt.Errorf("transform: unknown scalar %T", s)
}
