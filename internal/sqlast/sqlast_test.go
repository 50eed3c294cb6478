package sqlast

import (
	"testing"

	"hyperq/internal/types"
)

func TestIdentParts(t *testing.T) {
	cases := []struct {
		parts []string
		name  string
		qual  string
	}{
		{[]string{"a"}, "a", ""},
		{[]string{"t", "a"}, "a", "t"},
		{[]string{"db", "t", "a"}, "a", "t"},
	}
	for _, c := range cases {
		id := &Ident{Parts: c.parts}
		if id.Name() != c.name || id.Qualifier() != c.qual {
			t.Errorf("Ident(%v) = %q.%q, want %q.%q", c.parts, id.Qualifier(), id.Name(), c.qual, c.name)
		}
	}
}

func TestTypeNameResolve(t *testing.T) {
	tn := TypeName{Name: "DECIMAL", Args: []int{12, 2}}
	got, err := tn.Resolve()
	if err != nil || got.Kind != types.KindDecimal || got.Scale != 2 {
		t.Fatalf("Resolve = %v, %v", got, err)
	}
	if _, err := (TypeName{Name: "NOPE"}).Resolve(); err == nil {
		t.Error("unknown type resolved")
	}
}

func TestBinOpStrings(t *testing.T) {
	pairs := map[BinOp]string{
		BinAdd: "+", BinEQ: "=", BinNE: "<>", BinAnd: "AND",
		BinLike: "LIKE", BinNotLike: "NOT LIKE", BinConcat: "||",
	}
	for op, want := range pairs {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if !BinLT.IsComparison() || BinAdd.IsComparison() || BinAnd.IsComparison() {
		t.Error("IsComparison wrong")
	}
}

func TestJoinAndSetOpStrings(t *testing.T) {
	if JoinLeft.String() != "LEFT JOIN" || JoinCross.String() != "CROSS JOIN" {
		t.Error("join strings wrong")
	}
	if SetUnion.String() != "UNION" || SetExcept.String() != "EXCEPT" {
		t.Error("set op strings wrong")
	}
	if QuantAll.String() != "ALL" || QuantAny.String() != "ANY" {
		t.Error("quantifier strings wrong")
	}
}

func TestWalkExprPruning(t *testing.T) {
	// (a + b) * c — pruning at the + node skips a and b.
	inner := &BinExpr{Op: BinAdd, L: &Ident{Parts: []string{"a"}}, R: &Ident{Parts: []string{"b"}}}
	e := &BinExpr{Op: BinMul, L: inner, R: &Ident{Parts: []string{"c"}}}
	var visited int
	WalkExpr(e, func(x Expr) bool {
		visited++
		if b, ok := x.(*BinExpr); ok && b.Op == BinAdd {
			return false
		}
		return true
	})
	if visited != 3 { // mul, add (pruned), c
		t.Errorf("visited = %d", visited)
	}
}

func TestWalkExprCoversCase(t *testing.T) {
	e := &CaseExpr{
		Operand: &Ident{Parts: []string{"x"}},
		Whens:   []CaseWhen{{Cond: &Const{}, Then: &Const{}}},
		Else:    &Const{},
	}
	n := 0
	WalkExpr(e, func(Expr) bool { n++; return true })
	if n != 5 {
		t.Errorf("case walk visited %d", n)
	}
}
