package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

func TestFactOps(t *testing.T) {
	a := Fact{}
	if a.Has(nil) {
		t.Fatal("empty fact has nil")
	}
	o := types.NewVar(token.NoPos, nil, "o", types.Typ[types.Int])
	a[o] = struct{}{}
	b := a.Clone()
	delete(a, o)
	if !b.Has(o) || a.Has(o) {
		t.Fatal("clone shares storage with its source")
	}
}
