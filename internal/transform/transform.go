// Package transform implements the paper's Transformer component (§4.3):
// "the driver responsible for triggering different transformation rules
// under given pre-conditions". Rules are pluggable, can cascade, and the
// driver "takes care of running all relevant transformations repeatedly
// until reaching a fixed point".
//
// Two rule sets exist, matching the paper's staging guidelines (§5):
//
//   - Binding-stage rules run right after algebrization and are
//     target-independent, e.g. expanding Teradata's DATE/INT comparison into
//     the internal integer encoding (§5.2, Figure 5).
//   - Serialization-stage rules are target-specific and run right before
//     SQL generation, e.g. rewriting a quantified vector comparison into a
//     correlated EXISTS for targets without vector support (§5.3, Figure 6).
package transform

import (
	"fmt"
	"slices"

	"hyperq/internal/dialect"
	"hyperq/internal/feature"
	"hyperq/internal/types"
	"hyperq/internal/xtra"
)

// Rule rewrites one scalar or operator node. A rule returns the replacement
// node and whether it fired; returning the input unchanged with fired=false
// lets the driver detect the fixed point.
type Rule interface {
	Name() string
}

// ScalarRule rewrites scalar expressions.
type ScalarRule interface {
	Rule
	ApplyScalar(s xtra.Scalar, c *Context) (xtra.Scalar, bool, error)
}

// OpRule rewrites relational operators.
type OpRule interface {
	Rule
	ApplyOp(op xtra.Op, c *Context) (xtra.Op, bool, error)
}

// Context carries transformation state: the target profile (nil for the
// target-independent binding stage), a feature recorder, and a column
// factory for rules that must mint new columns.
type Context struct {
	Target  *dialect.Profile
	Rec     *feature.Recorder
	fired   feature.Set
	nextCol xtra.ColumnID
	// base, until the first NewCol, is the statement nextCol is derived
	// from (NewStatementContext).
	base xtra.Statement
}

// NewContext creates a transformation context. nextCol must be larger than
// any ColumnID already allocated in the plan.
func NewContext(target *dialect.Profile, rec *feature.Recorder, nextCol xtra.ColumnID) *Context {
	return &Context{Target: target, Rec: rec, nextCol: nextCol}
}

// NewStatementContext creates a transformation context for rewriting stmt:
// minted columns are numbered above every ColumnID stmt holds. The walk that
// finds that bound runs at the first NewCol, so a statement no rule mints a
// column for never pays it.
func NewStatementContext(target *dialect.Profile, rec *feature.Recorder, stmt xtra.Statement) *Context {
	return &Context{Target: target, Rec: rec, base: stmt}
}

// Record notes that a rule rewrote for the given feature: it feeds the
// request-wide recorder and the context's own fired set, so callers can
// surface exactly which features THIS transform run exercised (the trace
// span annotation and the workload-statistics bit-set) without tangling
// them with features recorded by earlier pipeline stages.
func (c *Context) Record(id feature.ID) {
	c.Rec.Record(id)
	c.fired.Add(id)
}

// Fired returns the features recorded through this context.
func (c *Context) Fired() feature.Set { return c.fired }

// NewCol mints a fresh column.
func (c *Context) NewCol(name string, t types.T) xtra.Col {
	if c.base != nil {
		c.nextCol, c.base = maxColID(c.base), nil
	}
	c.nextCol++
	return xtra.Col{ID: c.nextCol, Name: name, Type: t}
}

// maxColID returns a ColumnID above every one stmt holds, with room to
// spare.
func maxColID(stmt xtra.Statement) xtra.ColumnID {
	var maxID xtra.ColumnID
	consider := func(cols []xtra.Col) {
		for _, c := range cols {
			if c.ID > maxID {
				maxID = c.ID
			}
		}
	}
	scanScalar := func(sc xtra.Scalar) {
		xtra.WalkScalar(sc, func(x xtra.Scalar) bool {
			if cr, ok := x.(*xtra.ColRef); ok && cr.Col.ID > maxID {
				maxID = cr.Col.ID
			}
			return true
		})
	}
	var scanOp func(op xtra.Op)
	scanOp = func(op xtra.Op) {
		xtra.WalkOps(op, func(o xtra.Op) bool {
			consider(o.Columns())
			for _, sc := range o.Scalars() {
				scanScalar(sc)
			}
			return true
		})
	}
	scanPred := func(p xtra.Scalar) {
		if p == nil {
			return
		}
		scanScalar(p)
		for _, sub := range xtra.SubOps(p) {
			scanOp(sub)
		}
	}
	switch t := stmt.(type) {
	case *xtra.Query:
		scanOp(t.Root)
	case *xtra.Insert:
		scanOp(t.Input)
	case *xtra.Update:
		consider(t.Cols)
		for _, a := range t.Assigns {
			scanPred(a.Expr)
		}
		scanPred(t.Pred)
	case *xtra.Delete:
		consider(t.Cols)
		scanPred(t.Pred)
	case *xtra.CreateTable:
		if t.Input != nil {
			scanOp(t.Input)
		}
	}
	return maxID + 1000
}

// Transformer drives a rule set to a fixed point. It holds no per-run state,
// so one Transformer serves concurrent runs.
type Transformer struct {
	opRules     []OpRule
	scalarRules []ScalarRule
	// maxPasses bounds the fixed-point iteration as a cycle guard.
	maxPasses int
}

// New creates a transformer over the given rules.
func New(rules ...Rule) *Transformer {
	t := &Transformer{maxPasses: 32}
	for _, r := range rules {
		if or, ok := r.(OpRule); ok {
			t.opRules = append(t.opRules, or)
		}
		if sr, ok := r.(ScalarRule); ok {
			t.scalarRules = append(t.scalarRules, sr)
		}
	}
	return t
}

var bindingStage = New(&DateIntCompareRule{})

// BindingStage returns the target-independent rule set applied right after
// algebrization.
func BindingStage() *Transformer { return bindingStage }

// stageRules pairs each capability whose absence adds a serialization-stage
// rule with that rule, in rule order. Rules hold no state, so the values are
// shared.
var stageRules = [...]struct {
	missing dialect.Capability
	rule    Rule
}{
	{dialect.CapVectorSubquery, &VectorSubqueryRule{}},
	{dialect.CapGroupingSets, &GroupingSetsRule{}},
	{dialect.CapDateArith, &DateArithRule{}},
}

// serializationStages holds the transformer of every set of missing
// stageRules capabilities (bit i for entry i), nil for the empty set.
var serializationStages [1 << len(stageRules)]*Transformer

func init() {
	for set := 1; set < len(serializationStages); set++ {
		serializationStages[set] = New(rulesOf(set)...)
	}
}

// missingSet returns the set of stageRules capabilities the target lacks.
func missingSet(target *dialect.Profile) int {
	set := 0
	for i, sr := range stageRules {
		if !target.Supports(sr.missing) {
			set |= 1 << i
		}
	}
	return set
}

// rulesOf returns the rules of a set of missing capabilities.
func rulesOf(set int) []Rule {
	var rules []Rule
	for i, sr := range stageRules {
		if set&(1<<i) != 0 {
			rules = append(rules, sr.rule)
		}
	}
	return rules
}

// SerializationStage returns the target-specific rule set applied right
// before serialization for the given profile.
func SerializationStage(target *dialect.Profile) []Rule {
	return rulesOf(missingSet(target))
}

// SerializationTransformer returns the transformer over the target's
// SerializationStage rules, built once per rule set; nil when the target
// needs none.
func SerializationTransformer(target *dialect.Profile) *Transformer {
	return serializationStages[missingSet(target)]
}

// Statement transforms a bound statement. Operators are rebuilt immutably:
// the result shares every unchanged subtree, and is stmt itself when no
// rule fired.
func (t *Transformer) Statement(stmt xtra.Statement, c *Context) (xtra.Statement, error) {
	switch s := stmt.(type) {
	case *xtra.Query:
		root, err := t.Op(s.Root, c)
		if err != nil {
			return nil, err
		}
		if root == s.Root {
			return s, nil
		}
		return &xtra.Query{Root: root}, nil
	case *xtra.Insert:
		in, err := t.Op(s.Input, c)
		if err != nil {
			return nil, err
		}
		if in == s.Input {
			return s, nil
		}
		return &xtra.Insert{Table: s.Table, Ordinals: s.Ordinals, Input: in}, nil
	case *xtra.Update:
		var assigns []xtra.ColAssign // copied on the first change
		for i, a := range s.Assigns {
			e, err := t.Scalar(a.Expr, c)
			if err != nil {
				return nil, err
			}
			if e != a.Expr {
				if assigns == nil {
					assigns = slices.Clone(s.Assigns)
				}
				assigns[i].Expr = e
			}
		}
		pred, err := t.optScalar(s.Pred, c)
		if err != nil {
			return nil, err
		}
		if assigns == nil && pred == s.Pred {
			return s, nil
		}
		if assigns == nil {
			assigns = s.Assigns
		}
		return &xtra.Update{Table: s.Table, Cols: s.Cols, Assigns: assigns, Pred: pred}, nil
	case *xtra.Delete:
		pred, err := t.optScalar(s.Pred, c)
		if err != nil {
			return nil, err
		}
		if pred == s.Pred {
			return s, nil
		}
		return &xtra.Delete{Table: s.Table, Cols: s.Cols, Pred: pred}, nil
	case *xtra.CreateTable:
		if s.Input == nil {
			return s, nil
		}
		in, err := t.Op(s.Input, c)
		if err != nil {
			return nil, err
		}
		if in == s.Input {
			return s, nil
		}
		return &xtra.CreateTable{Def: s.Def, Input: in, IfNotExists: s.IfNotExists}, nil
	default:
		return stmt, nil
	}
}

// optScalar transforms an optional scalar; nil stays nil.
func (t *Transformer) optScalar(s xtra.Scalar, c *Context) (xtra.Scalar, error) {
	if s == nil {
		return nil, nil
	}
	return t.Scalar(s, c)
}

// Op transforms an operator tree to a fixed point.
func (t *Transformer) Op(op xtra.Op, c *Context) (xtra.Op, error) {
	for pass := 0; ; pass++ {
		if pass > t.maxPasses {
			return nil, fmt.Errorf("transform: no fixed point after %d passes", t.maxPasses)
		}
		next, fired, err := t.opOnce(op, c)
		if err != nil {
			return nil, err
		}
		op = next
		if !fired {
			return op, nil
		}
	}
}

// Scalar transforms a scalar expression to a fixed point.
func (t *Transformer) Scalar(s xtra.Scalar, c *Context) (xtra.Scalar, error) {
	for pass := 0; ; pass++ {
		if pass > t.maxPasses {
			return nil, fmt.Errorf("transform: no fixed point after %d passes", t.maxPasses)
		}
		next, fired, err := t.scalarOnce(s, c)
		if err != nil {
			return nil, err
		}
		s = next
		if !fired {
			return s, nil
		}
	}
}

// opOnce performs one bottom-up rewrite pass over the operator tree.
func (t *Transformer) opOnce(op xtra.Op, c *Context) (xtra.Op, bool, error) {
	fired := false
	// Rewrite children and owned scalars first.
	next, childFired, err := t.rewriteChildren(op, c)
	if err != nil {
		return nil, false, err
	}
	op = next
	fired = fired || childFired
	// Apply operator rules at this node.
	for _, or := range t.opRules {
		no, f, err := or.ApplyOp(op, c)
		if err != nil {
			return nil, false, err
		}
		if f {
			op = no
			fired = true
		}
	}
	return op, fired, nil
}

func (t *Transformer) scalarOnce(s xtra.Scalar, c *Context) (xtra.Scalar, bool, error) {
	fired := false
	next, childFired, err := t.rewriteScalarChildren(s, c)
	if err != nil {
		return nil, false, err
	}
	s = next
	fired = fired || childFired
	for _, sr := range t.scalarRules {
		ns, f, err := sr.ApplyScalar(s, c)
		if err != nil {
			return nil, false, err
		}
		if f {
			s = ns
			fired = true
		}
	}
	return s, fired, nil
}
