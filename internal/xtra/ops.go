package xtra

// Op is a relational operator. Every operator reports its output columns
// (identity-carrying, so parents reference them by ColumnID), its relational
// children, and the scalar expressions it owns (for generic traversal by the
// Transformer).
type Op interface {
	opNode()
	Columns() []Col
	Children() []Op
	Scalars() []Scalar
}

// Get is a base-table scan. The binder assigns fresh ColumnIDs per reference
// so self-joins stay unambiguous (S1/S2 in the paper's Figure 6).
type Get struct {
	Table string
	Alias string
	Cols  []Col
}

func (g *Get) Columns() []Col    { return g.Cols }
func (g *Get) Children() []Op    { return nil }
func (g *Get) Scalars() []Scalar { return nil }

// Select filters rows by a predicate.
type Select struct {
	Input Op
	Pred  Scalar
}

func (s *Select) Columns() []Col    { return s.Input.Columns() }
func (s *Select) Children() []Op    { return []Op{s.Input} }
func (s *Select) Scalars() []Scalar { return []Scalar{s.Pred} }

// NamedScalar is one computed output column.
type NamedScalar struct {
	Col  Col
	Expr Scalar
}

// Project computes a new column list.
type Project struct {
	Input Op
	Exprs []NamedScalar
}

func (p *Project) Columns() []Col { return AppendColumns(make([]Col, 0, len(p.Exprs)), p) }
func (p *Project) Children() []Op { return []Op{p.Input} }
func (p *Project) Scalars() []Scalar {
	out := make([]Scalar, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = e.Expr
	}
	return out
}

// SortKey is one ordering key with resolved null placement.
type SortKey struct {
	Expr       Scalar
	Desc       bool
	NullsFirst bool
}

// WindowDef is one window-function computation.
type WindowDef struct {
	Out  Col
	Name string // RANK, DENSE_RANK, ROW_NUMBER, SUM, COUNT, AVG, MIN, MAX
	Args []Scalar
	Star bool // COUNT(*)
	// TdForm marks the vendor order-as-argument origin, preserved for
	// debugging and golden-tree output.
	TdForm bool
}

// Window evaluates window functions over one shared specification; output is
// the input columns followed by the function outputs.
type Window struct {
	Input       Op
	PartitionBy []Scalar
	OrderBy     []SortKey
	Funcs       []WindowDef
}

func (w *Window) Columns() []Col { return AppendColumns(nil, w) }
func (w *Window) Children() []Op { return []Op{w.Input} }
func (w *Window) Scalars() []Scalar {
	var out []Scalar
	out = append(out, w.PartitionBy...)
	for _, k := range w.OrderBy {
		out = append(out, k.Expr)
	}
	for _, f := range w.Funcs {
		out = append(out, f.Args...)
	}
	return out
}

// JoinKind enumerates join types.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER"
	case JoinLeft:
		return "LEFT"
	case JoinRight:
		return "RIGHT"
	case JoinFull:
		return "FULL"
	case JoinCross:
		return "CROSS"
	}
	return "?"
}

// Join combines two inputs; output is L columns followed by R columns.
type Join struct {
	Kind JoinKind
	L, R Op
	Pred Scalar // nil for cross joins
}

func (j *Join) Columns() []Col { return AppendColumns(nil, j) }
func (j *Join) Children() []Op { return []Op{j.L, j.R} }
func (j *Join) Scalars() []Scalar {
	if j.Pred == nil {
		return nil
	}
	return []Scalar{j.Pred}
}

// AggDef is one aggregate computation.
type AggDef struct {
	Out      Col
	Func     string // SUM, COUNT, AVG, MIN, MAX
	Arg      Scalar // nil for COUNT(*)
	Distinct bool
	Star     bool
}

// GroupCol is one grouping expression with its output column identity.
type GroupCol struct {
	Out  Col
	Expr Scalar
}

// Agg groups and aggregates; output is group columns followed by aggregates.
// GroupingSets, when non-nil, holds ROLLUP/CUBE/GROUPING SETS index lists
// into Groups; the Transformer expands them into a UNION ALL of simple
// aggregations for targets without native support (Table 2).
type Agg struct {
	Input        Op
	Groups       []GroupCol
	Aggs         []AggDef
	GroupingSets [][]int
}

func (a *Agg) Columns() []Col { return AppendColumns(make([]Col, 0, len(a.Groups)+len(a.Aggs)), a) }
func (a *Agg) Children() []Op { return []Op{a.Input} }
func (a *Agg) Scalars() []Scalar {
	var out []Scalar
	for _, g := range a.Groups {
		out = append(out, g.Expr)
	}
	for _, ag := range a.Aggs {
		if ag.Arg != nil {
			out = append(out, ag.Arg)
		}
	}
	return out
}

// Sort orders rows.
type Sort struct {
	Input Op
	Keys  []SortKey
}

func (s *Sort) Columns() []Col { return s.Input.Columns() }
func (s *Sort) Children() []Op { return []Op{s.Input} }
func (s *Sort) Scalars() []Scalar {
	out := make([]Scalar, len(s.Keys))
	for i, k := range s.Keys {
		out[i] = k.Expr
	}
	return out
}

// Limit returns the first N rows of its (ordered) input. WithTies extends
// the cut to rows equal to the last kept row under Keys.
type Limit struct {
	Input    Op
	N        int64
	WithTies bool
	Keys     []SortKey // ordering context for WithTies
}

func (l *Limit) Columns() []Col { return l.Input.Columns() }
func (l *Limit) Children() []Op { return []Op{l.Input} }
func (l *Limit) Scalars() []Scalar {
	out := make([]Scalar, len(l.Keys))
	for i, k := range l.Keys {
		out[i] = k.Expr
	}
	return out
}

// SetOpKind enumerates set operations.
type SetOpKind uint8

// Set operations.
const (
	SetUnion SetOpKind = iota
	SetIntersect
	SetExcept
)

func (k SetOpKind) String() string {
	switch k {
	case SetUnion:
		return "UNION"
	case SetIntersect:
		return "INTERSECT"
	case SetExcept:
		return "EXCEPT"
	}
	return "?"
}

// SetOp combines two inputs positionally; Cols are fresh output columns.
type SetOp struct {
	Kind SetOpKind
	All  bool
	L, R Op
	Cols []Col
}

func (s *SetOp) Columns() []Col    { return s.Cols }
func (s *SetOp) Children() []Op    { return []Op{s.L, s.R} }
func (s *SetOp) Scalars() []Scalar { return nil }

// Values is an inline literal relation.
type Values struct {
	Rows [][]Scalar
	Cols []Col
}

func (v *Values) Columns() []Col { return v.Cols }
func (v *Values) Children() []Op { return nil }
func (v *Values) Scalars() []Scalar {
	var out []Scalar
	for _, r := range v.Rows {
		out = append(out, r...)
	}
	return out
}

// RecursiveUnion implements WITH RECURSIVE for engines with native recursion
// capability: Seed produces the initial rows; Recursive is re-evaluated
// against the previous iteration's rows (visible through WorkScan with
// matching WorkID) until a fixed point.
type RecursiveUnion struct {
	Seed      Op
	Recursive Op
	Cols      []Col
	WorkID    int
}

func (r *RecursiveUnion) Columns() []Col    { return r.Cols }
func (r *RecursiveUnion) Children() []Op    { return []Op{r.Seed, r.Recursive} }
func (r *RecursiveUnion) Scalars() []Scalar { return nil }

// WorkScan reads the current iteration's working table inside the recursive
// branch of a RecursiveUnion with the same WorkID.
type WorkScan struct {
	Name   string
	Cols   []Col
	WorkID int
}

func (w *WorkScan) Columns() []Col    { return w.Cols }
func (w *WorkScan) Children() []Op    { return nil }
func (w *WorkScan) Scalars() []Scalar { return nil }

func (*Get) opNode()            {}
func (*Select) opNode()         {}
func (*Project) opNode()        {}
func (*Window) opNode()         {}
func (*Join) opNode()           {}
func (*Agg) opNode()            {}
func (*Sort) opNode()           {}
func (*Limit) opNode()          {}
func (*SetOp) opNode()          {}
func (*Values) opNode()         {}
func (*RecursiveUnion) opNode() {}
func (*WorkScan) opNode()       {}

// WalkOps visits op and its relational descendants pre-order, including
// subquery inputs nested in scalar expressions.
func WalkOps(op Op, fn func(Op) bool) {
	if op == nil || !fn(op) {
		return
	}
	for _, s := range op.Scalars() {
		for _, sub := range SubOps(s) {
			WalkOps(sub, fn)
		}
	}
	for _, c := range op.Children() {
		WalkOps(c, fn)
	}
}

// AppendColumns appends op's output columns to dst: the Columns of an
// operator that computes them, without allocating when dst has room.
func AppendColumns(dst []Col, op Op) []Col {
	switch o := op.(type) {
	case *Select:
		return AppendColumns(dst, o.Input)
	case *Sort:
		return AppendColumns(dst, o.Input)
	case *Limit:
		return AppendColumns(dst, o.Input)
	case *Project:
		for _, e := range o.Exprs {
			dst = append(dst, e.Col)
		}
		return dst
	case *Window:
		dst = AppendColumns(dst, o.Input)
		for _, f := range o.Funcs {
			dst = append(dst, f.Out)
		}
		return dst
	case *Join:
		return AppendColumns(AppendColumns(dst, o.L), o.R)
	case *Agg:
		for _, g := range o.Groups {
			dst = append(dst, g.Out)
		}
		for _, ag := range o.Aggs {
			dst = append(dst, ag.Out)
		}
		return dst
	}
	// The rest store their columns.
	return append(dst, op.Columns()...)
}
