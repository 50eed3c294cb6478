package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildCFG parses a function body and builds its CFG. src is the body of
// `func f() { ... }` (or a full signature when ret is given).
func buildCFG(t *testing.T, fn string) (*CFG, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", "package x\n"+fn, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	decl := file.Decls[len(file.Decls)-1].(*ast.FuncDecl)
	return New(decl.Body), fset
}

// witnessLines runs LeakWitnesses from the statement containing startMark
// (a substring of its source line) with satisfaction at nodes containing
// okMark, returning the 1-based source lines of the witnesses.
func witnessLines(t *testing.T, src, startMark, okMark string) []int {
	t.Helper()
	g, fset := buildCFG(t, src)
	var start ast.Node
	lineOf := func(n ast.Node) string {
		return nodeText(src, fset, n)
	}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if start == nil && strings.Contains(lineOf(n), startMark) {
				start = n
			}
		}
	}
	if start == nil {
		t.Fatalf("start mark %q not found in CFG", startMark)
	}
	ps := g.LeakWitnesses(start, func(n ast.Node) bool {
		return strings.Contains(lineOf(n), okMark)
	})
	var lines []int
	for _, p := range ps {
		lines = append(lines, fset.Position(p).Line)
	}
	return lines
}

func nodeText(src string, fset *token.FileSet, n ast.Node) string {
	// Reconstruct node text from offsets into the synthetic file.
	full := "package x\n" + src
	s := fset.Position(n.Pos()).Offset
	e := fset.Position(n.End()).Offset
	if s < 0 || e > len(full) || s >= e {
		return ""
	}
	return full[s:e]
}

func TestCFGLinear(t *testing.T) {
	g, _ := buildCFG(t, `func f() { a(); b(); c() }`)
	if !g.Exit.live {
		t.Fatal("linear body must fall off the end")
	}
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry nodes = %d, want 3", len(g.Entry.Nodes))
	}
}

func TestCFGReturnTerminates(t *testing.T) {
	g, _ := buildCFG(t, `func f() int { a(); return 1 }`)
	if g.Exit.live {
		t.Fatal("explicit return: exit block must be unreachable")
	}
	var retBlocks int
	for _, b := range g.Blocks {
		if b.Return != nil {
			retBlocks++
			if len(b.Succs) != 0 {
				t.Fatalf("return block has %d successors", len(b.Succs))
			}
		}
	}
	if retBlocks != 1 {
		t.Fatalf("return blocks = %d, want 1", retBlocks)
	}
}

func TestCFGIfJoins(t *testing.T) {
	// acquire on line 2; release only in the else branch: the then-branch
	// return (line 4) leaks.
	src := `func f(c bool) {
	acq()
	if c {
		return
	}
	rel()
}`
	lines := witnessLines(t, src, "acq", "rel")
	if len(lines) != 1 || lines[0] != 5 {
		t.Fatalf("witnesses = %v, want [5]", lines)
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	// The release inside the loop body covers the path that enters the
	// loop, but the zero-iteration path falls off the end unsatisfied.
	src := `func f(n int) {
	acq()
	for i := 0; i < n; i++ {
		rel()
	}
}`
	lines := witnessLines(t, src, "acq", "rel")
	if len(lines) != 1 {
		t.Fatalf("witnesses = %v, want exactly the fall-off end", lines)
	}
}

func TestCFGContinueSkipsRelease(t *testing.T) {
	src := `func f(ns []int) {
	for _, n := range ns {
		acq()
		if n == 0 {
			continue
		}
		rel()
	}
}`
	// continue loops back to the range head; from there the range can
	// exhaust and fall off the end without ever hitting rel().
	lines := witnessLines(t, src, "acq", "rel")
	if len(lines) != 1 {
		t.Fatalf("witnesses = %v, want the fall-off end via continue", lines)
	}
}

func TestCFGSwitchAllCases(t *testing.T) {
	src := `func f(x int) {
	acq()
	switch x {
	case 1:
		rel()
	case 2:
		rel()
	default:
		rel()
	}
}`
	if lines := witnessLines(t, src, "acq", "rel"); len(lines) != 0 {
		t.Fatalf("witnesses = %v, want none (all cases release)", lines)
	}
	// Dropping the default leaves the no-match path unsatisfied.
	src2 := `func f(x int) {
	acq()
	switch x {
	case 1:
		rel()
	}
}`
	if lines := witnessLines(t, src2, "acq", "rel"); len(lines) != 1 {
		t.Fatalf("witnesses = %v, want the no-match fall-off", lines)
	}
}

func TestCFGSelect(t *testing.T) {
	src := `func f(a, b chan int) {
	acq()
	select {
	case <-a:
		rel()
	case <-b:
		return
	}
}`
	// Line numbers count the synthetic "package x" line: the bare return in
	// the second comm clause sits on file line 8.
	lines := witnessLines(t, src, "acq", "rel")
	if len(lines) != 1 || lines[0] != 8 {
		t.Fatalf("witnesses = %v, want [8] (the un-released comm return)", lines)
	}
}

func TestCFGGotoAndLabels(t *testing.T) {
	src := `func f(c bool) {
	acq()
	if c {
		goto done
	}
	rel()
done:
	use()
}`
	// goto done skips rel; the labeled tail falls off the end.
	lines := witnessLines(t, src, "acq", "rel")
	if len(lines) != 1 {
		t.Fatalf("witnesses = %v, want fall-off via goto", lines)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	src := `func f(xs []int) {
outer:
	for _, x := range xs {
		acq()
		for {
			if x == 0 {
				break outer
			}
			rel()
			break
		}
		use()
	}
}`
	lines := witnessLines(t, src, "acq", "rel")
	if len(lines) != 1 {
		t.Fatalf("witnesses = %v, want fall-off via labeled break", lines)
	}
}

func TestCFGPanicIsNotAWitness(t *testing.T) {
	src := `func f(c bool) {
	acq()
	if c {
		panic("boom")
	}
	rel()
}`
	if lines := witnessLines(t, src, "acq", "rel"); len(lines) != 0 {
		t.Fatalf("witnesses = %v, want none (panic path exempt)", lines)
	}
}

func TestCFGDefersCollected(t *testing.T) {
	g, _ := buildCFG(t, `func f() {
	defer a()
	if c() {
		defer b()
	}
}`)
	if len(g.Defers) != 2 {
		t.Fatalf("defers = %d, want 2", len(g.Defers))
	}
}

func TestCFGDeadCodePruned(t *testing.T) {
	g, _ := buildCFG(t, `func f() int {
	return 1
	a()
}`)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ExprStmt); ok {
				t.Fatal("statically dead statement survived pruning")
			}
		}
	}
	_ = g
}

func TestCFGFallthrough(t *testing.T) {
	src := `func f(x int) {
	acq()
	switch x {
	case 1:
		fallthrough
	case 2:
		rel()
	}
}`
	// case 1 falls through into case 2's release; only the no-match path
	// leaks.
	lines := witnessLines(t, src, "acq", "rel")
	if len(lines) != 1 {
		t.Fatalf("witnesses = %v, want only the no-match fall-off", lines)
	}
}
