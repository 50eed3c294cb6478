// Package xtra implements the eXtended Relational Algebra (XTRA) of the
// paper (§4.2): the universal, language-agnostic query representation the
// Algebrizer binds ASTs into, the Transformer rewrites, and the Serializers
// turn into target-dialect SQL. XTRA "builds on a uniform algebraic model,
// where the output of a given operator depends on operator's inputs as well
// as operator's type" (§5.2).
package xtra

import (
	"hyperq/internal/types"
)

// ColumnID uniquely identifies a column within one bound statement. IDs are
// allocated by the binder's column factory; executor row layouts and
// serializer name scopes are both keyed by ColumnID.
type ColumnID int

// Col describes one produced column.
type Col struct {
	ID   ColumnID
	Name string
	Type types.T
}

// Scalar is a scalar expression over columns.
type Scalar interface {
	scalarNode()
	// Type returns the static result type.
	Type() types.T
}

// ColRef references a column by ID.
type ColRef struct {
	Col Col
}

func (c *ColRef) Type() types.T { return c.Col.Type }

// ConstExpr is a literal.
type ConstExpr struct {
	Val types.Datum
	T   types.T
	// Lit is the 1-based translation-cache literal ordinal carried over from
	// the source AST (sqlast.Const.Lit); 0 for constants that were not lifted
	// (view-body literals, transform-introduced constants).
	Lit int
}

// NewConst builds a constant with its natural type.
func NewConst(d types.Datum) *ConstExpr { return &ConstExpr{Val: d, T: d.Type()} }

func (c *ConstExpr) Type() types.T { return c.T }

// ParamExpr is an unresolved parameter (only valid inside macro bodies before
// expansion; bound plans must be parameter-free).
type ParamExpr struct {
	Name string
	T    types.T
}

func (p *ParamExpr) Type() types.T { return p.T }

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (o CmpOp) String() string {
	switch o {
	case CmpEQ:
		return "EQ"
	case CmpNE:
		return "NE"
	case CmpLT:
		return "LT"
	case CmpLE:
		return "LE"
	case CmpGT:
		return "GT"
	case CmpGE:
		return "GE"
	}
	return "?"
}

// SQL returns the SQL spelling of the operator.
func (o CmpOp) SQL() string {
	switch o {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	}
	return "?"
}

// CompExpr is a comparison; its result is BOOLEAN.
type CompExpr struct {
	Op   CmpOp
	L, R Scalar
}

func (*CompExpr) Type() types.T { return types.Bool }

// BoolOp is AND/OR.
type BoolOp uint8

// Boolean connectives.
const (
	BoolAnd BoolOp = iota
	BoolOr
)

func (o BoolOp) String() string {
	if o == BoolOr {
		return "OR"
	}
	return "AND"
}

// BoolExpr is an n-ary AND/OR.
type BoolExpr struct {
	Op   BoolOp
	Args []Scalar
}

func (*BoolExpr) Type() types.T { return types.Bool }

// NotExpr is logical negation.
type NotExpr struct {
	X Scalar
}

func (*NotExpr) Type() types.T { return types.Bool }

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	Not bool
	X   Scalar
}

func (*IsNullExpr) Type() types.T { return types.Bool }

// ArithExpr is binary arithmetic with a derived result type.
type ArithExpr struct {
	Op   types.ArithOp
	L, R Scalar
	T    types.T
}

func (a *ArithExpr) Type() types.T { return a.T }

// NegExpr is unary minus.
type NegExpr struct {
	X Scalar
}

func (n *NegExpr) Type() types.T { return n.X.Type() }

// ConcatExpr is string concatenation.
type ConcatExpr struct {
	L, R Scalar
}

func (*ConcatExpr) Type() types.T { return types.VarChar(0) }

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	Not     bool
	X       Scalar
	Pattern Scalar
}

func (*LikeExpr) Type() types.T { return types.Bool }

// FuncExpr is a scalar builtin with canonical name (CHAR_LENGTH, SUBSTR,
// POSITION, COALESCE, NULLIF, UPPER, LOWER, TRIM, ABS, ADD_MONTHS,
// CURRENT_DATE, ...). Per-target name mapping happens in the serializer.
type FuncExpr struct {
	Name string
	Args []Scalar
	T    types.T
}

func (f *FuncExpr) Type() types.T { return f.T }

// ExtractExpr is EXTRACT(field FROM x).
type ExtractExpr struct {
	Field types.ExtractField
	X     Scalar
}

func (*ExtractExpr) Type() types.T { return types.Int }

// CastExpr is CAST(x AS t).
type CastExpr struct {
	X  Scalar
	To types.T
	// Implicit marks casts inserted by the binder/transformer rather than
	// written by the user; serializers may render them explicitly anyway.
	Implicit bool
}

func (c *CastExpr) Type() types.T { return c.To }

// CaseWhen is one searched-CASE arm.
type CaseWhen struct {
	Cond Scalar
	Then Scalar
}

// CaseExpr is a searched CASE (the binder desugars the simple form).
type CaseExpr struct {
	Whens []CaseWhen
	Else  Scalar
	T     types.T
}

func (c *CaseExpr) Type() types.T { return c.T }

// ExistsExpr is [NOT] EXISTS over a relational input, possibly correlated.
type ExistsExpr struct {
	Not   bool
	Input Op
}

func (*ExistsExpr) Type() types.T { return types.Bool }

// Quant enumerates subquery quantifiers.
type Quant uint8

// Quantifiers.
const (
	QuantAny Quant = iota
	QuantAll
)

func (q Quant) String() string {
	if q == QuantAll {
		return "ALL"
	}
	return "ANY"
}

// SubqueryCmp is (left...) cmp ANY/ALL (input). With len(Left) > 1 this is
// the vector-comparison construct of the paper's Example 2; the
// serialization-stage transformation rewrites it into a correlated EXISTS
// for targets lacking vector comparison support (§5.3, Figure 6).
type SubqueryCmp struct {
	Cmp   CmpOp
	Quant Quant
	Left  []Scalar
	Input Op
}

func (*SubqueryCmp) Type() types.T { return types.Bool }

// InValues is x IN (v1, v2, ...) with a literal list.
type InValues struct {
	Not  bool
	X    Scalar
	Vals []Scalar
}

func (*InValues) Type() types.T { return types.Bool }

// ScalarSubquery yields the single value of a one-row, one-column input.
type ScalarSubquery struct {
	Input Op
	T     types.T
}

func (s *ScalarSubquery) Type() types.T { return s.T }

func (*ColRef) scalarNode()         {}
func (*ConstExpr) scalarNode()      {}
func (*ParamExpr) scalarNode()      {}
func (*CompExpr) scalarNode()       {}
func (*BoolExpr) scalarNode()       {}
func (*NotExpr) scalarNode()        {}
func (*IsNullExpr) scalarNode()     {}
func (*ArithExpr) scalarNode()      {}
func (*NegExpr) scalarNode()        {}
func (*ConcatExpr) scalarNode()     {}
func (*LikeExpr) scalarNode()       {}
func (*FuncExpr) scalarNode()       {}
func (*ExtractExpr) scalarNode()    {}
func (*CastExpr) scalarNode()       {}
func (*CaseExpr) scalarNode()       {}
func (*ExistsExpr) scalarNode()     {}
func (*SubqueryCmp) scalarNode()    {}
func (*InValues) scalarNode()       {}
func (*ScalarSubquery) scalarNode() {}

// WalkScalar visits s and all nested scalars pre-order; fn returning false
// prunes. Relational inputs of subquery expressions are not entered — use
// SubOps to reach them.
func WalkScalar(s Scalar, fn func(Scalar) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch x := s.(type) {
	case *CompExpr:
		WalkScalar(x.L, fn)
		WalkScalar(x.R, fn)
	case *BoolExpr:
		for _, a := range x.Args {
			WalkScalar(a, fn)
		}
	case *NotExpr:
		WalkScalar(x.X, fn)
	case *IsNullExpr:
		WalkScalar(x.X, fn)
	case *ArithExpr:
		WalkScalar(x.L, fn)
		WalkScalar(x.R, fn)
	case *NegExpr:
		WalkScalar(x.X, fn)
	case *ConcatExpr:
		WalkScalar(x.L, fn)
		WalkScalar(x.R, fn)
	case *LikeExpr:
		WalkScalar(x.X, fn)
		WalkScalar(x.Pattern, fn)
	case *FuncExpr:
		for _, a := range x.Args {
			WalkScalar(a, fn)
		}
	case *ExtractExpr:
		WalkScalar(x.X, fn)
	case *CastExpr:
		WalkScalar(x.X, fn)
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkScalar(w.Cond, fn)
			WalkScalar(w.Then, fn)
		}
		WalkScalar(x.Else, fn)
	case *SubqueryCmp:
		for _, l := range x.Left {
			WalkScalar(l, fn)
		}
	case *InValues:
		WalkScalar(x.X, fn)
		for _, v := range x.Vals {
			WalkScalar(v, fn)
		}
	}
}

// SubOps returns the relational inputs of subquery expressions directly
// nested in s.
func SubOps(s Scalar) []Op {
	var out []Op
	WalkScalar(s, func(x Scalar) bool {
		switch q := x.(type) {
		case *ExistsExpr:
			out = append(out, q.Input)
		case *SubqueryCmp:
			out = append(out, q.Input)
		case *ScalarSubquery:
			out = append(out, q.Input)
		}
		return true
	})
	return out
}

// ColRefsIn collects the distinct ColumnIDs referenced by s, including those
// inside subquery inputs (for correlation analysis).
func ColRefsIn(s Scalar) map[ColumnID]bool {
	out := make(map[ColumnID]bool)
	collectColRefs(s, out)
	return out
}

func collectColRefs(s Scalar, out map[ColumnID]bool) {
	WalkScalar(s, func(x Scalar) bool {
		if cr, ok := x.(*ColRef); ok {
			out[cr.Col.ID] = true
		}
		return true
	})
	for _, op := range SubOps(s) {
		collectOpColRefs(op, out)
	}
}

func collectOpColRefs(op Op, out map[ColumnID]bool) {
	for _, s := range op.Scalars() {
		collectColRefs(s, out)
	}
	for _, c := range op.Children() {
		collectOpColRefs(c, out)
	}
}

// MakeAnd conjoins predicates, flattening nested ANDs and dropping nils.
func MakeAnd(preds ...Scalar) Scalar {
	var args []Scalar
	for _, p := range preds {
		if p == nil {
			continue
		}
		if b, ok := p.(*BoolExpr); ok && b.Op == BoolAnd {
			args = append(args, b.Args...)
			continue
		}
		args = append(args, p)
	}
	switch len(args) {
	case 0:
		return nil
	case 1:
		return args[0]
	}
	return &BoolExpr{Op: BoolAnd, Args: args}
}

// MakeOr disjoins predicates.
func MakeOr(preds ...Scalar) Scalar {
	var args []Scalar
	for _, p := range preds {
		if p == nil {
			continue
		}
		if b, ok := p.(*BoolExpr); ok && b.Op == BoolOr {
			args = append(args, b.Args...)
			continue
		}
		args = append(args, p)
	}
	switch len(args) {
	case 0:
		return nil
	case 1:
		return args[0]
	}
	return &BoolExpr{Op: BoolOr, Args: args}
}
