package analysis

// Data-flow solving over a CFG: a forward worklist solver for set facts with
// an intersection join (the must-analysis atomicfield's freshness pass needs),
// and LeakWitnesses, the "must-happen-on-all-paths-to-return" query spanend
// is built on.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Fact is a set of type-checker objects (atomicfield: the locals still bound
// to an unpublished allocation). The zero value is the empty set.
type Fact map[types.Object]struct{}

// Has reports membership.
func (f Fact) Has(o types.Object) bool {
	_, ok := f[o]
	return ok
}

// Clone copies the set.
func (f Fact) Clone() Fact {
	out := make(Fact, len(f))
	for o := range f {
		out[o] = struct{}{}
	}
	return out
}

// intersect removes members of f absent from src, reporting whether f shrank.
func (f Fact) intersect(src Fact) bool {
	shrank := false
	for o := range f {
		if !src.Has(o) {
			delete(f, o)
			shrank = true
		}
	}
	return shrank
}

// Transfer maps one node's effect on a fact set. It must not mutate in;
// return in unchanged when the node has no effect.
type Transfer func(n ast.Node, in Fact) Fact

// ForwardMust runs a forward must-analysis (intersection join) to fixpoint
// and returns each block's IN set: a fact holds at a block only when it
// holds on every path reaching it. Unreached blocks start at top (all
// facts), represented by absence from the map until a predecessor first
// propagates into them; callers should treat a missing IN set as "block
// unreachable from entry" (the builder prunes those anyway).
//
// This is the join freshness-style properties need: "no other goroutine can
// see this value" must survive every path into a join.
func (g *CFG) ForwardMust(entry Fact, tr Transfer) map[*Block]Fact {
	in := make(map[*Block]Fact, len(g.Blocks))
	in[g.Entry] = entry.Clone()
	work := []*Block{g.Entry}
	queued := make([]bool, len(g.Blocks))
	queued[g.Entry.Index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		out := in[b]
		for _, n := range b.Nodes {
			out = tr(n, out)
		}
		for _, s := range b.Succs {
			cur, seen := in[s]
			changed := false
			if !seen {
				in[s] = out.Clone()
				changed = true
			} else {
				changed = cur.intersect(out)
			}
			if changed && !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// LeakWitnesses explores every path from just after `start` to a function
// exit and collects the exits reachable without passing a node for which
// ok returns true: the positions where the obligation incurred at start is
// provably unmet on some execution. Witnesses are the offending return
// statements, or the body's closing brace when execution can fall off the
// end. Paths through panic (blocks with no successors and no return) incur
// no witness — deferred cleanup is the panic path's concern and is checked
// separately by the analyzers.
//
// The exploration is a DFS with per-block memoization, so it is linear in
// the CFG size; a cycle revisiting a block that was already explored
// unsatisfied adds nothing new.
func (g *CFG) LeakWitnesses(start ast.Node, ok func(ast.Node) bool) []token.Pos {
	b, i := g.findNode(start)
	if b == nil {
		return nil
	}
	var witnesses []token.Pos
	seen := make(map[*Block]bool)
	reported := make(map[token.Pos]bool)

	report := func(p token.Pos) {
		if !reported[p] {
			reported[p] = true
			witnesses = append(witnesses, p)
		}
	}

	// scan walks blk.Nodes from index j; returns true when the path is
	// satisfied inside the block.
	var walk func(blk *Block, j int)
	scan := func(blk *Block, j int) bool {
		for ; j < len(blk.Nodes); j++ {
			if ok(blk.Nodes[j]) {
				return true
			}
		}
		return false
	}
	walk = func(blk *Block, j int) {
		if scan(blk, j) {
			return
		}
		if blk.Return != nil {
			report(blk.Return.Pos())
			return
		}
		if blk == g.Exit {
			report(blk.EndPos)
			return
		}
		for _, s := range blk.Succs {
			if seen[s] {
				continue
			}
			seen[s] = true
			walk(s, 0)
		}
	}
	walk(b, i+1)
	return witnesses
}

// findNode locates the block and node index holding n — directly or nested
// inside a statement node (start anchors are often expressions).
func (g *CFG) findNode(n ast.Node) (*Block, int) {
	for _, b := range g.Blocks {
		for i, node := range b.Nodes {
			if node == n || containsNode(node, n) {
				return b, i
			}
		}
	}
	return nil, -1
}

// containsNode reports whether outer's subtree contains target (start nodes
// are often expressions nested inside a statement node).
func containsNode(outer, target ast.Node) bool {
	found := false
	ast.Inspect(outer, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == target {
			found = true
			return false
		}
		return true
	})
	return found
}
