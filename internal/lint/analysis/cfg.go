package analysis

// Control-flow graphs for analyzer bodies. New builds a CFG from one
// function body (nested function literals are excluded — package lint
// analyzes each literal as a function of its own), mirroring the shape of
// golang.org/x/tools/go/cfg on top of the stdlib only: basic blocks of
// statements/expressions in execution order, with edges for if/for/range/
// switch/type-switch/select, labeled break/continue, goto, fallthrough,
// return, and panic. Defer statements are collected on the side — a
// deferred call runs on every exit path, so path analyses treat the defer
// set as a property of the whole function rather than a block.
//
// The graph deliberately keeps two exit shapes distinct:
//
//   - a block whose Return field is set ends at an explicit return and has
//     no successors;
//   - the synthetic Exit block (EndPos = the body's closing brace) is the
//     fall-off-the-end exit; only blocks that can complete normally edge
//     into it.
//
// Analyses that must distinguish "leaks at this return" from "leaks at the
// end of the function" (spanend) rely on that split.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: straight-line nodes with no internal control
// transfer. Nodes holds statements and the control expressions evaluated in
// the block (an if condition, a switch tag, range operands), in execution
// order.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Return is the return statement terminating the block, when it ends at
	// one. Return blocks have no successors.
	Return *ast.ReturnStmt
	// EndPos is a stable position for "execution leaves this block here"
	// diagnostics; for the synthetic Exit block it is the body's closing
	// brace.
	EndPos token.Pos

	// live marks blocks reachable from the entry; the builder prunes
	// unreachable blocks (e.g. code after an unconditional return) so path
	// analyses never walk dead code.
	live bool
}

// CFG is a function body's control-flow graph.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the synthetic fall-off-the-end block. It may be unreachable
	// (no Preds) when every path returns explicitly.
	Exit *Block
	// Defers are the function's defer statements in source order, nested
	// blocks included (but not nested function literals).
	Defers []*ast.DeferStmt
}

// builder carries the construction state.
type builder struct {
	g       *CFG
	current *Block
	// frames is the enclosing breakable/continuable construct stack.
	frames []frame
	labels map[string]*labelInfo
}

// frame is one enclosing loop/switch/select for break/continue resolution.
type frame struct {
	label      string // enclosing label, "" when unlabeled
	breakTo    *Block
	contTo     *Block // nil for switch/select (continue skips them)
	isLoop     bool
	nextClause *Block // fallthrough target inside a switch
}

// labelInfo resolves goto targets; a label's block is created on first
// reference (forward gotos) or at its definition.
type labelInfo struct {
	block *Block
}

// New builds the CFG for one function body.
func New(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &builder{g: g, labels: make(map[string]*labelInfo)}
	g.Entry = b.newBlock()
	b.current = g.Entry
	g.Exit = b.newBlock()
	g.Exit.EndPos = body.Rbrace
	b.stmtList(body.List)
	// Fall off the end of the body.
	b.jump(g.Exit)
	g.prune()
	return g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// add appends a node to the current block (no-op once the block is
// terminated — statically dead code after return/branch).
func (b *builder) add(n ast.Node) {
	if b.current != nil && n != nil {
		b.current.Nodes = append(b.current.Nodes, n)
	}
}

// edge links from → to.
func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump terminates the current block with an edge to target and leaves the
// builder with no current block.
func (b *builder) jump(target *Block) {
	if b.current != nil && target != nil {
		edge(b.current, target)
	}
	b.current = nil
}

// startBlock seals the current block (falling through into blk when still
// open) and makes blk current.
func (b *builder) startBlock(blk *Block) {
	if b.current != nil {
		edge(b.current, blk)
	}
	b.current = blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	if b.current == nil {
		// Dead code after an unconditional transfer — unless it is labeled
		// (a goto target can resurrect it) or declares labels inside.
		if !containsLabel(s) {
			return
		}
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.current = nil // panic: no normal successor
		}

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ReturnStmt:
		b.add(s)
		if b.current != nil {
			b.current.Return = s
			b.current.EndPos = s.Pos()
			b.current = nil
		}

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		b.labeled(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, "")

	case *ast.RangeStmt:
		b.rangeStmt(s, "")

	case *ast.SwitchStmt:
		b.switchStmt(s, "")

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")

	case *ast.SelectStmt:
		b.selectStmt(s, "")

	default:
		// Assignments, declarations, sends, inc/dec, go statements, empty
		// statements: straight-line nodes.
		b.add(s)
	}
}

// containsLabel reports whether s is (or contains) a labeled statement — a
// potential goto target that keeps syntactically dead code reachable.
func containsLabel(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if _, ok := n.(*ast.LabeledStmt); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) labelInfoFor(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{block: b.newBlock()}
		b.labels[name] = li
	}
	return li
}

func (b *builder) labeled(s *ast.LabeledStmt) {
	li := b.labelInfoFor(s.Label.Name)
	b.startBlock(li.block)
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *builder) branch(s *ast.BranchStmt) {
	if b.current == nil {
		return
	}
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if label == "" || f.label == label {
				b.jump(f.breakTo)
				return
			}
		}
		b.current = nil // malformed; drop the edge
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.isLoop && (label == "" || f.label == label) {
				b.jump(f.contTo)
				return
			}
		}
		b.current = nil
	case token.GOTO:
		b.jump(b.labelInfoFor(label).block)
	case token.FALLTHROUGH:
		for i := len(b.frames) - 1; i >= 0; i-- {
			if b.frames[i].nextClause != nil {
				b.jump(b.frames[i].nextClause)
				return
			}
		}
		b.current = nil
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	condBlock := b.current
	if condBlock == nil {
		return
	}
	join := b.newBlock()

	then := b.newBlock()
	edge(condBlock, then)
	b.current = then
	b.stmtList(s.Body.List)
	b.jump(join)

	if s.Else != nil {
		els := b.newBlock()
		edge(condBlock, els)
		b.current = els
		b.stmt(s.Else)
		b.jump(join)
	} else {
		edge(condBlock, join)
	}
	b.current = join
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock()
	b.startBlock(head)
	if s.Cond != nil {
		b.add(s.Cond)
	}
	exit := b.newBlock()
	post := head
	if s.Post != nil {
		post = b.newBlock()
	}
	body := b.newBlock()
	edge(head, body)
	if s.Cond != nil {
		edge(head, exit) // condition false
	}
	b.frames = append(b.frames, frame{label: label, breakTo: exit, contTo: post, isLoop: true})
	b.current = body
	b.stmtList(s.Body.List)
	b.jump(post)
	b.frames = b.frames[:len(b.frames)-1]
	if s.Post != nil {
		b.current = post
		b.add(s.Post)
		b.jump(head)
	}
	b.current = exit
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X)
	head := b.newBlock()
	b.startBlock(head)
	// The iteration variables are (re)bound at the head each trip.
	if s.Key != nil || s.Value != nil {
		b.add(s)
	}
	exit := b.newBlock()
	body := b.newBlock()
	edge(head, body)
	edge(head, exit) // range exhausted
	b.frames = append(b.frames, frame{label: label, breakTo: exit, contTo: head, isLoop: true})
	b.current = body
	b.stmtList(s.Body.List)
	b.jump(head)
	b.frames = b.frames[:len(b.frames)-1]
	b.current = exit
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(s.Body.List, label, true)
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(s.Body.List, label, false)
}

// caseClauses wires switch/type-switch clause bodies. Every clause is a
// successor of the dispatch block; a missing default adds a direct edge to
// the join. allowFallthrough enables fallthrough edges (value switches
// only).
func (b *builder) caseClauses(clauses []ast.Stmt, label string, allowFallthrough bool) {
	dispatch := b.current
	if dispatch == nil {
		return
	}
	join := b.newBlock()
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	for i, cs := range clauses {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		edge(dispatch, bodies[i])
		b.current = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		var next *Block
		if allowFallthrough && i+1 < len(clauses) {
			next = bodies[i+1]
		}
		b.frames = append(b.frames, frame{label: label, breakTo: join, nextClause: next})
		b.stmtList(cc.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.jump(join)
	}
	if !hasDefault {
		edge(dispatch, join)
	}
	b.current = join
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	dispatch := b.current
	if dispatch == nil {
		return
	}
	join := b.newBlock()
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		body := b.newBlock()
		edge(dispatch, body)
		b.current = body
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.frames = append(b.frames, frame{label: label, breakTo: join})
		b.stmtList(cc.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.jump(join)
	}
	// A select always takes one of its clauses; with no clauses it blocks
	// forever, so the join is unreachable and pruning removes it.
	b.current = join
}

// prune drops blocks unreachable from the entry (dead code, unreferenced
// labels, the join of an empty select), keeping analyses off paths that can
// never execute. Edges into pruned blocks are removed from Preds lists.
func (g *CFG) prune() {
	var mark func(*Block)
	mark = func(b *Block) {
		if b.live {
			return
		}
		b.live = true
		for _, s := range b.Succs {
			mark(s)
		}
	}
	mark(g.Entry)
	kept := g.Blocks[:0]
	for _, b := range g.Blocks {
		if !b.live {
			continue
		}
		preds := b.Preds[:0]
		for _, p := range b.Preds {
			if p.live {
				preds = append(preds, p)
			}
		}
		b.Preds = preds
		b.Index = len(kept)
		kept = append(kept, b)
	}
	g.Blocks = kept
}
