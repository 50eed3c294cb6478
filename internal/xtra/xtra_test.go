package xtra

import (
	"strings"
	"testing"

	"hyperq/internal/types"
)

func col(id int, name string, t types.T) Col { return Col{ID: ColumnID(id), Name: name, Type: t} }

func sampleGet() *Get {
	return &Get{Table: "SALES", Cols: []Col{
		col(1, "AMOUNT", types.Decimal(10, 2)),
		col(2, "SALES_DATE", types.Date),
	}}
}

func TestOpColumns(t *testing.T) {
	g := sampleGet()
	sel := &Select{Input: g, Pred: &CompExpr{Op: CmpGT, L: &ColRef{Col: g.Cols[0]}, R: NewConst(types.NewInt(10))}}
	if len(sel.Columns()) != 2 {
		t.Error("select must preserve columns")
	}
	p := &Project{Input: sel, Exprs: []NamedScalar{
		{Col: col(3, "X", types.Int), Expr: NewConst(types.NewInt(1))},
	}}
	if len(p.Columns()) != 1 || p.Columns()[0].Name != "X" {
		t.Error("project columns wrong")
	}
	w := &Window{Input: g, Funcs: []WindowDef{{Out: col(4, "R", types.BigInt), Name: "RANK"}}}
	if n := len(w.Columns()); n != 3 {
		t.Errorf("window columns = %d", n)
	}
	j := &Join{Kind: JoinInner, L: g, R: sampleGet()}
	if n := len(j.Columns()); n != 4 {
		t.Errorf("join columns = %d", n)
	}
}

func TestMakeAndOrFlattening(t *testing.T) {
	a := &CompExpr{Op: CmpEQ, L: NewConst(types.NewInt(1)), R: NewConst(types.NewInt(1))}
	b := &CompExpr{Op: CmpEQ, L: NewConst(types.NewInt(2)), R: NewConst(types.NewInt(2))}
	c := &CompExpr{Op: CmpEQ, L: NewConst(types.NewInt(3)), R: NewConst(types.NewInt(3))}
	and1 := MakeAnd(a, b)
	and2 := MakeAnd(and1, c)
	be := and2.(*BoolExpr)
	if len(be.Args) != 3 {
		t.Errorf("AND not flattened: %d args", len(be.Args))
	}
	if MakeAnd() != nil {
		t.Error("empty AND should be nil")
	}
	if MakeAnd(a) != Scalar(a) {
		t.Error("single AND should pass through")
	}
	or := MakeOr(a, MakeOr(b, c))
	if len(or.(*BoolExpr).Args) != 3 {
		t.Error("OR not flattened")
	}
	if MakeAnd(nil, a, nil) != Scalar(a) {
		t.Error("nil predicates should be dropped")
	}
}

func TestWalkScalarAndSubOps(t *testing.T) {
	g := sampleGet()
	sub := &ExistsExpr{Input: g}
	pred := MakeAnd(
		&CompExpr{Op: CmpGT, L: &ColRef{Col: g.Cols[0]}, R: NewConst(types.NewInt(0))},
		sub,
	)
	ops := SubOps(pred)
	if len(ops) != 1 || ops[0] != Op(g) {
		t.Errorf("SubOps = %v", ops)
	}
	refs := ColRefsIn(pred)
	if !refs[1] {
		t.Errorf("ColRefsIn = %v", refs)
	}
}

func TestColRefsInReachesSubqueries(t *testing.T) {
	g := sampleGet()
	inner := &Select{Input: g, Pred: &CompExpr{
		Op: CmpEQ,
		L:  &ColRef{Col: g.Cols[1]},
		R:  &ColRef{Col: col(42, "OUTER_COL", types.Date)},
	}}
	pred := &ExistsExpr{Input: inner}
	refs := ColRefsIn(pred)
	if !refs[42] {
		t.Error("correlated reference not found")
	}
}

func TestWalkOps(t *testing.T) {
	g := sampleGet()
	plan := &Sort{
		Input: &Select{
			Input: g,
			Pred:  &ExistsExpr{Input: sampleGet()},
		},
		Keys: []SortKey{{Expr: &ColRef{Col: g.Cols[0]}}},
	}
	var kinds []string
	WalkOps(plan, func(op Op) bool {
		switch op.(type) {
		case *Sort:
			kinds = append(kinds, "sort")
		case *Select:
			kinds = append(kinds, "select")
		case *Get:
			kinds = append(kinds, "get")
		}
		return true
	})
	// sort, select, subquery get, main get
	if len(kinds) != 4 {
		t.Errorf("walked %v", kinds)
	}
}

// The paper's Figure 5/6 shape: window over select over get, with the
// date-int comparison expanded.
func TestFormatExample2Shape(t *testing.T) {
	sales := &Get{Table: "SALES", Cols: []Col{
		col(1, "AMOUNT", types.Decimal(10, 2)),
		col(2, "SALES_DATE", types.Date),
	}}
	hist := &Get{Table: "SALES_HISTORY", Alias: "S2", Cols: []Col{
		col(3, "GROSS", types.Decimal(10, 2)),
		col(4, "NET", types.Decimal(10, 2)),
	}}
	datePart := &ArithExpr{
		Op: types.OpAdd,
		L:  &ExtractExpr{Field: types.FieldDay, X: &ColRef{Col: sales.Cols[1]}},
		R: &ArithExpr{
			Op: types.OpMul,
			L:  &ExtractExpr{Field: types.FieldMonth, X: &ColRef{Col: sales.Cols[1]}},
			R:  NewConst(types.NewInt(100)),
			T:  types.Int,
		},
		T: types.Int,
	}
	pred := MakeAnd(
		&CompExpr{Op: CmpGT, L: datePart, R: NewConst(types.NewInt(1140101))},
		&SubqueryCmp{
			Cmp: CmpGT, Quant: QuantAny,
			Left:  []Scalar{&ColRef{Col: sales.Cols[0]}},
			Input: hist,
		},
	)
	plan := &Window{
		Input:   &Select{Input: sales, Pred: pred},
		OrderBy: []SortKey{{Expr: &ColRef{Col: sales.Cols[0]}, Desc: true}},
		Funcs:   []WindowDef{{Out: col(5, "R", types.BigInt), Name: "RANK"}},
	}
	out := Format(plan)
	for _, want := range []string{
		"window(RANK, DESC, AMOUNT)",
		"get(SALES)",
		"boolexpr(AND)",
		"comp(GT)",
		"extract(DAY, SALES_DATE)",
		"const(1140101)",
		"subq(ANY, GT, [GROSS, NET])",
		"get(SALES_HISTORY 'S2')",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	if Format(plan) != out {
		t.Error("Format is not deterministic")
	}
}

func TestFormatScalar(t *testing.T) {
	e := &CaseExpr{
		Whens: []CaseWhen{{Cond: &IsNullExpr{X: NewConst(types.NewInt(1))}, Then: NewConst(types.NewString("a"))}},
		Else:  NewConst(types.NewString("b")),
		T:     types.VarChar(0),
	}
	out := FormatScalar(e)
	for _, want := range []string{"case", "when", "isnull", "else"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
