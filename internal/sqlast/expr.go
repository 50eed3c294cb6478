// Package sqlast defines the abstract syntax tree produced by the dialect
// parsers. Following the paper (§5.1, Figure 4), the tree mixes generic ANSI
// nodes with vendor-specific nodes: Teradata-only constructs such as QUALIFY,
// the RANK(expr DESC) window form, or vector subqueries are represented by
// dedicated fields/nodes so the binder can apply the vendor-specific binding
// implementation while sharing the generic one across source systems.
package sqlast

import (
	"hyperq/internal/types"
)

// Expr is a scalar expression node.
type Expr interface{ exprNode() }

// Ident is a possibly qualified identifier: a, t.a, db.t.a.
type Ident struct {
	Parts []string
}

// Name returns the unqualified column name.
func (i *Ident) Name() string { return i.Parts[len(i.Parts)-1] }

// Qualifier returns the table qualifier (empty when unqualified).
func (i *Ident) Qualifier() string {
	if len(i.Parts) < 2 {
		return ""
	}
	return i.Parts[len(i.Parts)-2]
}

// Const is a literal constant.
type Const struct {
	Val types.Datum
	// Lit is the 1-based literal-vector ordinal assigned by the fingerprint
	// pass when this constant is lifted into the translation-cache parameter
	// vector; 0 means the constant is not lifted. The binder propagates the
	// ordinal into the bound plan so the serializer can emit a placeholder.
	Lit int
}

// Param is a named (:name) or positional (?) parameter reference.
type Param struct {
	Name string // empty for positional
	Pos  int    // 1-based for positional
}

// Star is * or qualifier.* in a select list or COUNT(*).
type Star struct {
	Table string // empty for bare *
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	BinAdd BinOp = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinConcat
	BinEQ
	BinNE
	BinLT
	BinLE
	BinGT
	BinGE
	BinAnd
	BinOr
	BinLike
	BinNotLike
)

func (o BinOp) String() string {
	switch o {
	case BinAdd:
		return "+"
	case BinSub:
		return "-"
	case BinMul:
		return "*"
	case BinDiv:
		return "/"
	case BinMod:
		return "MOD"
	case BinConcat:
		return "||"
	case BinEQ:
		return "="
	case BinNE:
		return "<>"
	case BinLT:
		return "<"
	case BinLE:
		return "<="
	case BinGT:
		return ">"
	case BinGE:
		return ">="
	case BinAnd:
		return "AND"
	case BinOr:
		return "OR"
	case BinLike:
		return "LIKE"
	case BinNotLike:
		return "NOT LIKE"
	}
	return "?"
}

// IsComparison reports whether the operator is a comparison.
func (o BinOp) IsComparison() bool { return o >= BinEQ && o <= BinGE }

// BinExpr is a binary operation.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

// UnaryOp enumerates unary operators.
type UnaryOp uint8

// Unary operators.
const (
	UnaryNot UnaryOp = iota
	UnaryNeg
	UnaryIsNull
	UnaryIsNotNull
)

// UnaryExpr is a unary operation.
type UnaryExpr struct {
	Op UnaryOp
	X  Expr
}

// FuncCall is a (possibly aggregate) function invocation. Star marks
// COUNT(*); Distinct marks aggregate DISTINCT.
type FuncCall struct {
	Name     string
	Args     []Expr
	Distinct bool
	Star     bool
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
	// NullsFirst is nil when unspecified (dialect default applies),
	// otherwise the explicit NULLS FIRST/LAST choice.
	NullsFirst *bool
}

// WindowSpec is the OVER(...) clause.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []OrderItem
	// RowsUnboundedPreceding marks the explicit ROWS UNBOUNDED PRECEDING
	// frame Teradata requires on some functions. Only the default frame and
	// the running frame are modeled.
	RowsUnboundedPreceding bool
}

// WindowFunc is a window function invocation. Two syntactic flavors exist:
// the ANSI RANK() OVER (ORDER BY x DESC) and the Teradata RANK(x DESC) form
// where the order is given as the argument (paper §5, Example 2). The parser
// normalizes both into this node; TdForm records the vendor form for feature
// tracking.
type WindowFunc struct {
	Func   FuncCall
	Over   WindowSpec
	TdForm bool
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

// CaseExpr is a (searched or simple) CASE expression.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// TypeName is an unresolved type reference in CAST or DDL.
type TypeName struct {
	Name string
	Args []int
}

// Resolve converts the reference into a concrete type.
func (t TypeName) Resolve() (types.T, error) { return types.ParseTypeName(t.Name, t.Args...) }

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X  Expr
	To TypeName
}

// ExtractExpr is EXTRACT(field FROM x).
type ExtractExpr struct {
	Field string
	X     Expr
}

// Subquery is a scalar subquery used as an expression.
type Subquery struct {
	Query *QueryExpr
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not   bool
	Query *QueryExpr
}

// InExpr is row [NOT] IN (list | subquery).
type InExpr struct {
	Not   bool
	Left  []Expr // one element for scalar IN, more for vector form
	List  []Expr // value list form
	Query *QueryExpr
}

// Quantifier for quantified comparisons.
type Quantifier uint8

// Quantifiers.
const (
	QuantAny Quantifier = iota
	QuantAll
)

func (q Quantifier) String() string {
	if q == QuantAll {
		return "ALL"
	}
	return "ANY"
}

// QuantifiedCmp is (expr, ...) op ANY/ALL (subquery). A Left vector of more
// than one element is the Teradata vector-subquery construct the paper
// rewrites into a correlated EXISTS for targets lacking support (§5.3).
type QuantifiedCmp struct {
	Op    BinOp
	Quant Quantifier
	Left  []Expr
	Query *QueryExpr
}

// Tuple is a parenthesized row expression.
type Tuple struct {
	Items []Expr
}

// IntervalExpr is INTERVAL 'n' DAY etc. Only day-time units are modeled.
type IntervalExpr struct {
	Value Expr
	Unit  string // DAY, HOUR, MINUTE, SECOND, MONTH, YEAR
}

func (*Ident) exprNode()         {}
func (*Const) exprNode()         {}
func (*Param) exprNode()         {}
func (*Star) exprNode()          {}
func (*BinExpr) exprNode()       {}
func (*UnaryExpr) exprNode()     {}
func (*FuncCall) exprNode()      {}
func (*WindowFunc) exprNode()    {}
func (*CaseExpr) exprNode()      {}
func (*CastExpr) exprNode()      {}
func (*ExtractExpr) exprNode()   {}
func (*Subquery) exprNode()      {}
func (*ExistsExpr) exprNode()    {}
func (*InExpr) exprNode()        {}
func (*QuantifiedCmp) exprNode() {}
func (*Tuple) exprNode()         {}
func (*IntervalExpr) exprNode()  {}

// WalkExpr invokes fn on e and every sub-expression, pre-order. fn returning
// false prunes the subtree. Subqueries are not descended into.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *WindowFunc:
		for _, a := range x.Func.Args {
			WalkExpr(a, fn)
		}
		for _, p := range x.Over.PartitionBy {
			WalkExpr(p, fn)
		}
		for _, o := range x.Over.OrderBy {
			WalkExpr(o.Expr, fn)
		}
	case *CaseExpr:
		WalkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	case *CastExpr:
		WalkExpr(x.X, fn)
	case *ExtractExpr:
		WalkExpr(x.X, fn)
	case *InExpr:
		for _, l := range x.Left {
			WalkExpr(l, fn)
		}
		for _, l := range x.List {
			WalkExpr(l, fn)
		}
	case *QuantifiedCmp:
		for _, l := range x.Left {
			WalkExpr(l, fn)
		}
	case *Tuple:
		for _, i := range x.Items {
			WalkExpr(i, fn)
		}
	case *IntervalExpr:
		WalkExpr(x.Value, fn)
	}
}
