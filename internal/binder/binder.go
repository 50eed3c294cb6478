// Package binder implements the second phase of the paper's Algebrizer
// (§4.2): binding the parser's AST into an XTRA expression. Binding performs
// metadata lookup, name resolution and type derivation, and applies the
// binder-stage Transformation-class rewrites from Table 2: implicit-join
// expansion, chained-projection (named expression) inlining, ordinal GROUP
// BY replacement, DML-on-view redirection, and macro parameter typing.
package binder

import (
	"fmt"
	"strings"
	"sync"

	"hyperq/internal/catalog"
	"hyperq/internal/feature"
	"hyperq/internal/parser"
	"hyperq/internal/sqlast"
	"hyperq/internal/types"
	"hyperq/internal/xtra"
)

// Resolver supplies table and view metadata during binding. *catalog.Catalog
// implements it; the engine layers session temporary tables over the shared
// catalog through a chained implementation.
type Resolver interface {
	Table(name string) (*catalog.Table, bool)
	View(name string) (*catalog.View, bool)
}

// Binder binds statements against a catalog. A Binder is single-use per
// statement batch but cheap to construct.
type Binder struct {
	cat     Resolver
	dialect parser.Dialect
	rec     *feature.Recorder
	nextCol xtra.ColumnID
	nextWrk int
	// viewDepth limits view/CTE expansion recursion.
	viewDepth int
	// params supplies values for :name parameters (macro execution).
	params map[string]types.Datum
	// ciCols marks columns declared NOT CASESPECIFIC: the "unsupported
	// column properties" emulation of Table 2 — the property lives in the
	// gateway catalog and is applied when the column is referenced in a
	// comparison, since the target cannot represent it. Made on the first
	// such column.
	ciCols map[xtra.ColumnID]bool
	// x is the scratch of the statement being bound; nil outside Bind.
	x *scratch
}

// New returns a binder over the catalog. The dialect selects source-system
// semantics: the Teradata dialect enables the vendor behaviours (implicit
// joins, named expression references, DATE/INT comparison); the ANSI dialect
// rejects them, as the cloud targets would.
func New(cat Resolver, d parser.Dialect, rec *feature.Recorder) *Binder {
	return &Binder{cat: cat, dialect: d, rec: rec}
}

// SetParams supplies values for named parameters (:name), used when binding
// macro bodies during EXEC emulation.
func (b *Binder) SetParams(p map[string]types.Datum) { b.params = p }

// MaxColumnID reports the highest ColumnID allocated so far, so downstream
// transformations can mint fresh columns.
func (b *Binder) MaxColumnID() xtra.ColumnID { return b.nextCol }

func (b *Binder) newCol(name string, t types.T) xtra.Col {
	b.nextCol++
	return xtra.Col{ID: b.nextCol, Name: name, Type: t}
}

// Bind binds one parsed statement.
func (b *Binder) Bind(stmt sqlast.Statement) (xtra.Statement, error) {
	b.x = scratchPool.Get().(*scratch)
	defer func() {
		b.x.release()
		b.x = nil
	}()
	switch s := stmt.(type) {
	case *sqlast.SelectStmt:
		op, err := b.bindQueryExpr(s.Query, b.globalScope())
		if err != nil {
			return nil, err
		}
		return &xtra.Query{Root: op}, nil
	case *sqlast.InsertStmt:
		return b.bindInsert(s)
	case *sqlast.UpdateStmt:
		return b.bindUpdate(s)
	case *sqlast.DeleteStmt:
		return b.bindDelete(s)
	case *sqlast.CreateTableStmt:
		return b.bindCreateTable(s)
	case *sqlast.DropTableStmt:
		return &xtra.DropTable{Name: s.Name, IfExists: s.IfExists}, nil
	case *sqlast.CreateViewStmt:
		return b.bindCreateView(s)
	case *sqlast.DropViewStmt:
		if _, ok := b.cat.View(s.Name); !ok {
			return nil, fmt.Errorf("binder: view %s does not exist", s.Name)
		}
		return &xtra.DropView{Name: s.Name}, nil
	case *sqlast.CollectStatsStmt:
		// Translation class: eliminated on self-tuning targets (§3.1).
		return &xtra.NoOp{Comment: "COLLECT STATISTICS eliminated"}, nil
	case *sqlast.TxnStmt:
		return &xtra.Txn{Kind: s.Kind}, nil
	case *sqlast.MergeStmt:
		return nil, fmt.Errorf("binder: MERGE requires gateway emulation")
	case *sqlast.CreateMacroStmt, *sqlast.DropMacroStmt, *sqlast.ExecStmt:
		return nil, fmt.Errorf("binder: macros are handled by the gateway")
	case *sqlast.HelpStmt:
		return nil, fmt.Errorf("binder: HELP is handled by the gateway")
	case *sqlast.SetSessionStmt:
		return nil, fmt.Errorf("binder: SET SESSION is handled by the gateway")
	}
	return nil, fmt.Errorf("binder: unsupported statement %T", stmt)
}

// --- scopes ----------------------------------------------------------------

// scopeCol is one name-addressable column.
type scopeCol struct {
	tbl  string // correlation name's catalog key
	name string // column name's catalog key
	col  xtra.Col
}

// cteDef is a bound-on-demand common table expression.
type cteDef struct {
	name      string
	columns   []string
	query     *sqlast.QueryExpr
	recursive bool
	defScope  *scope
	// work is non-nil while binding the recursive branch that may reference
	// this CTE as a work table.
	work *workTable
}

type workTable struct {
	id   int
	cols []xtra.Col
	used bool
}

// scope resolves identifiers during binding. Scopes come from the binder's
// scratch and are recycled when Bind returns: nothing in a bound plan may
// point into one. Their maps are made on first write and kept, emptied,
// when the scope is recycled.
type scope struct {
	parent *scope
	cols   []scopeCol
	ctes   map[string]*cteDef
	// aliasExprs maps select-list aliases to their AST definitions, enabling
	// Teradata named-expression references (Example 1's SALES_BASE).
	aliasExprs map[string]sqlast.Expr
	// aliasBinding guards against circular alias references.
	aliasBinding map[string]bool
	// binder backlink for implicit-join expansion.
	b *Binder
	// fromActive marks scopes owning a FROM clause; implicit joins attach
	// to the innermost such scope.
	fromActive bool
	// implicitGets accumulates tables pulled in by implicit joins; the
	// select-core binder cross-joins them onto the FROM tree.
	implicitGets []*xtra.Get
	// correlated, when non-nil, is set if resolution crossed this scope into
	// an outer one.
	correlated *bool
}

// Retention limits of the recycled scratch: a statement with more scopes,
// or a scope with more columns, than this still binds, but the excess is
// left to the garbage collector rather than kept for the next statement.
const (
	maxRetainedScopes   = 64
	maxRetainedScopeCol = 256
)

// scratch is the binder's working memory for one statement: its scopes,
// with their column lists and maps, handed back and reused by the next
// statement (DESIGN.md §11). Binders share scratches through a pool, so a
// Binder built per statement still reuses them.
type scratch struct {
	scopes []*scope
	used   int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// newScope hands out a cleared scope.
func (x *scratch) newScope(parent *scope, b *Binder) *scope {
	if x.used == len(x.scopes) {
		x.scopes = append(x.scopes, &scope{})
	}
	s := x.scopes[x.used]
	x.used++
	s.parent, s.b = parent, b
	return s
}

// release clears every scope the statement used, keeping their backing
// arrays and maps, and returns the scratch to the pool.
func (x *scratch) release() {
	for _, s := range x.scopes[:x.used] {
		clear(s.cols)
		cols := s.cols[:0]
		if cap(cols) > maxRetainedScopeCol {
			cols = nil
		}
		clear(s.ctes)
		clear(s.aliasExprs)
		clear(s.aliasBinding)
		clear(s.implicitGets)
		*s = scope{cols: cols, ctes: s.ctes, aliasExprs: s.aliasExprs, aliasBinding: s.aliasBinding, implicitGets: s.implicitGets[:0]}
	}
	if len(x.scopes) > maxRetainedScopes {
		clear(x.scopes[maxRetainedScopes:])
		x.scopes = x.scopes[:maxRetainedScopes]
	}
	x.used = 0
	scratchPool.Put(x)
}

func (b *Binder) globalScope() *scope {
	return b.x.newScope(nil, b)
}

func (s *scope) child() *scope {
	return s.b.x.newScope(s, s.b)
}

// addCol registers a column under a correlation name; tbl and name must be
// catalog keys (catalog.Key).
func (s *scope) addCol(tbl, name string, col xtra.Col) {
	s.cols = append(s.cols, scopeCol{tbl: tbl, name: name, col: col})
}

// addCTE registers a WITH definition.
func (s *scope) addCTE(def *cteDef) {
	if s.ctes == nil {
		s.ctes = map[string]*cteDef{}
	}
	s.ctes[catalog.Key(def.name)] = def
}

func (s *scope) findCTE(name string) *cteDef {
	for sc := s; sc != nil; sc = sc.parent {
		for k, d := range sc.ctes {
			if catalog.FoldEqual(k, name) {
				return d
			}
		}
	}
	return nil
}

// resolve looks up a column by optional qualifier, walking outer scopes for
// correlation. It reports ambiguity errors within one scope level.
func (s *scope) resolve(qual, name string) (xtra.Col, bool, error) {
	outer := false
	for sc := s; sc != nil; sc = sc.parent {
		var found xtra.Col
		n := 0
		for _, c := range sc.cols {
			if catalog.FoldEqual(c.name, name) && (qual == "" || catalog.FoldEqual(c.tbl, qual)) {
				found = c.col
				n++
			}
		}
		if n == 1 {
			if outer && sc.correlated != nil {
				*sc.correlated = true
			}
			if outer && s.correlatedFlagUpTo(sc) != nil {
				*s.correlatedFlagUpTo(sc) = true
			}
			return found, true, nil
		}
		if n > 1 {
			return xtra.Col{}, false, fmt.Errorf("binder: ambiguous column %s", catalog.Key(name))
		}
		outer = true
	}
	return xtra.Col{}, false, nil
}

// correlatedFlagUpTo marks correlation flags on every scope between s
// (exclusive rule: each child scope that crossed an outer boundary).
func (s *scope) correlatedFlagUpTo(target *scope) *bool {
	for sc := s; sc != nil && sc != target; sc = sc.parent {
		if sc.correlated != nil {
			return sc.correlated
		}
	}
	return nil
}

// allCols returns the visible columns of this scope level (not parents),
// optionally filtered by qualifier — used for star expansion.
func (s *scope) allCols(qual string) []scopeCol {
	var out []scopeCol
	for _, c := range s.cols {
		if qual == "" || catalog.FoldEqual(c.tbl, qual) {
			out = append(out, c)
		}
	}
	return out
}

// --- DML -------------------------------------------------------------------

func (b *Binder) bindInsert(s *sqlast.InsertStmt) (xtra.Statement, error) {
	tbl, viaView, err := b.resolveDMLTarget(s.Table)
	if err != nil {
		return nil, err
	}
	_ = viaView
	// Determine target ordinals.
	var ordinals []int
	if len(s.Columns) == 0 {
		ordinals = make([]int, len(tbl.Columns))
		for i := range tbl.Columns {
			ordinals[i] = i
		}
	} else {
		for _, c := range s.Columns {
			idx := tbl.ColumnIndex(c)
			if idx < 0 {
				return nil, fmt.Errorf("binder: column %s not in table %s", c, tbl.Name)
			}
			ordinals = append(ordinals, idx)
		}
	}
	var input xtra.Op
	if s.Query != nil {
		op, err := b.bindQueryExpr(s.Query, b.globalScope())
		if err != nil {
			return nil, err
		}
		input = op
	} else {
		// VALUES rows.
		var rows [][]xtra.Scalar
		sc := b.globalScope()
		for _, row := range s.Rows {
			if len(row) != len(ordinals) {
				return nil, fmt.Errorf("binder: INSERT row has %d values, want %d", len(row), len(ordinals))
			}
			var exprs []xtra.Scalar
			for _, e := range row {
				se, err := b.bindScalar(e, sc)
				if err != nil {
					return nil, err
				}
				exprs = append(exprs, se)
			}
			rows = append(rows, exprs)
		}
		cols := make([]xtra.Col, len(ordinals))
		for i, o := range ordinals {
			cols[i] = b.newCol(tbl.Columns[o].Name, tbl.Columns[o].Type)
		}
		input = &xtra.Values{Rows: rows, Cols: cols}
	}
	inCols := input.Columns()
	if len(inCols) != len(ordinals) {
		return nil, fmt.Errorf("binder: INSERT source has %d columns, want %d", len(inCols), len(ordinals))
	}
	// Insert implicit casts where the source type differs from the target.
	input, err = b.castColumns(input, ordinals, tbl)
	if err != nil {
		return nil, err
	}
	return &xtra.Insert{Table: tbl.Name, Ordinals: ordinals, Input: input}, nil
}

// castColumns wraps input in a Project adding casts to the target column
// types where needed.
func (b *Binder) castColumns(input xtra.Op, ordinals []int, tbl *catalog.Table) (xtra.Op, error) {
	inCols := input.Columns()
	need := false
	for i, o := range ordinals {
		if !inCols[i].Type.Equal(tbl.Columns[o].Type) && inCols[i].Type.Kind != types.KindNull {
			need = true
		}
		if !strings.EqualFold(inCols[i].Name, tbl.Columns[o].Name) {
			// The serializer emits the INSERT column list from the input
			// column names; align them with the target columns.
			need = true
		}
	}
	if !need {
		return input, nil
	}
	proj := &xtra.Project{Input: input}
	for i, o := range ordinals {
		want := tbl.Columns[o].Type
		var e xtra.Scalar = &xtra.ColRef{Col: inCols[i]}
		if !inCols[i].Type.Equal(want) && inCols[i].Type.Kind != types.KindNull {
			if !coercible(inCols[i].Type, want) {
				return nil, fmt.Errorf("binder: cannot assign %s to column %s %s", inCols[i].Type, tbl.Columns[o].Name, want)
			}
			e = &xtra.CastExpr{X: e, To: want, Implicit: true}
		}
		proj.Exprs = append(proj.Exprs, xtra.NamedScalar{Col: b.newCol(tbl.Columns[o].Name, want), Expr: e})
	}
	return proj, nil
}

func coercible(from, to types.T) bool {
	if from.Kind == types.KindNull {
		return true
	}
	if from.IsNumeric() && to.IsNumeric() {
		return true
	}
	if from.IsString() && (to.IsString() || to.IsTemporal()) {
		return true
	}
	if from.IsTemporal() && to.IsTemporal() {
		return true
	}
	if from.IsString() && to.Kind == types.KindBytes {
		return true
	}
	return from.Kind == to.Kind
}

// resolveDMLTarget resolves a DML target table, applying the DML-on-view
// emulation rewrite (Table 2) when the name is an updatable view.
func (b *Binder) resolveDMLTarget(name string) (*catalog.Table, bool, error) {
	if t, ok := b.cat.Table(name); ok {
		return t, false, nil
	}
	if v, ok := b.cat.View(name); ok {
		if !v.Updatable || v.BaseTable == "" {
			return nil, false, fmt.Errorf("binder: view %s is not updatable", name)
		}
		b.rec.Record(feature.DmlOnView)
		base, ok := b.cat.Table(v.BaseTable)
		if !ok {
			return nil, false, fmt.Errorf("binder: view %s references missing table %s", name, v.BaseTable)
		}
		return base, true, nil
	}
	return nil, false, fmt.Errorf("binder: table %s does not exist", name)
}

func (b *Binder) bindUpdate(s *sqlast.UpdateStmt) (xtra.Statement, error) {
	tbl, _, err := b.resolveDMLTarget(s.Table)
	if err != nil {
		return nil, err
	}
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	sc := b.globalScope()
	cols := make([]xtra.Col, len(tbl.Columns))
	tblKey := correlationKey(tbl, alias)
	for i, c := range tbl.Columns {
		cols[i] = b.newCol(c.Name, c.Type)
		sc.addCol(tblKey, tbl.ColumnKey(i), cols[i])
	}
	// Teradata UPDATE ... FROM: bind the FROM relations in a child scope and
	// rewrite predicate/assignments into correlated subqueries over them, so
	// the execution model stays per-target-row.
	if len(s.From) > 0 {
		return b.bindUpdateFrom(s, tbl, cols, sc)
	}
	upd := &xtra.Update{Table: tbl.Name, Cols: cols}
	for _, a := range s.Set {
		idx := tbl.ColumnIndex(a.Column)
		if idx < 0 {
			return nil, fmt.Errorf("binder: column %s not in table %s", a.Column, tbl.Name)
		}
		e, err := b.bindScalar(a.Value, sc)
		if err != nil {
			return nil, err
		}
		e, err = b.implicitCast(e, tbl.Columns[idx].Type)
		if err != nil {
			return nil, fmt.Errorf("binder: SET %s: %v", a.Column, err)
		}
		upd.Assigns = append(upd.Assigns, xtra.ColAssign{Ordinal: idx, Expr: e})
	}
	if s.Where != nil {
		p, err := b.bindPredicate(s.Where, sc)
		if err != nil {
			return nil, err
		}
		upd.Pred = p
	}
	return upd, nil
}

// bindUpdateFrom handles the vendor UPDATE t FROM s ... form by building,
// for each assignment, a scalar subquery over the FROM relations, and an
// EXISTS predicate for the row filter.
func (b *Binder) bindUpdateFrom(s *sqlast.UpdateStmt, tbl *catalog.Table, cols []xtra.Col, outer *scope) (xtra.Statement, error) {
	buildFrom := func() (xtra.Op, *scope, error) {
		sc := outer.child()
		op, err := b.bindFromList(s.From, sc)
		if err != nil {
			return nil, nil, err
		}
		return op, sc, nil
	}
	upd := &xtra.Update{Table: tbl.Name, Cols: cols}
	for _, a := range s.Set {
		idx := tbl.ColumnIndex(a.Column)
		if idx < 0 {
			return nil, fmt.Errorf("binder: column %s not in table %s", a.Column, tbl.Name)
		}
		from, sc, err := buildFrom()
		if err != nil {
			return nil, err
		}
		val, err := b.bindScalar(a.Value, sc)
		if err != nil {
			return nil, err
		}
		val, err = b.implicitCast(val, tbl.Columns[idx].Type)
		if err != nil {
			return nil, fmt.Errorf("binder: SET %s: %v", a.Column, err)
		}
		var inner xtra.Op = from
		if s.Where != nil {
			pred, err := b.bindPredicate(s.Where, sc)
			if err != nil {
				return nil, err
			}
			inner = &xtra.Select{Input: inner, Pred: pred}
		}
		proj := &xtra.Project{Input: inner, Exprs: []xtra.NamedScalar{
			{Col: b.newCol(a.Column, tbl.Columns[idx].Type), Expr: val},
		}}
		upd.Assigns = append(upd.Assigns, xtra.ColAssign{
			Ordinal: idx,
			Expr:    &xtra.ScalarSubquery{Input: proj, T: tbl.Columns[idx].Type},
		})
	}
	from, sc, err := buildFrom()
	if err != nil {
		return nil, err
	}
	var inner xtra.Op = from
	if s.Where != nil {
		pred, err := b.bindPredicate(s.Where, sc)
		if err != nil {
			return nil, err
		}
		inner = &xtra.Select{Input: inner, Pred: pred}
	}
	upd.Pred = &xtra.ExistsExpr{Input: inner}
	return upd, nil
}

func (b *Binder) bindDelete(s *sqlast.DeleteStmt) (xtra.Statement, error) {
	tbl, _, err := b.resolveDMLTarget(s.Table)
	if err != nil {
		return nil, err
	}
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	sc := b.globalScope()
	cols := make([]xtra.Col, len(tbl.Columns))
	tblKey := correlationKey(tbl, alias)
	for i, c := range tbl.Columns {
		cols[i] = b.newCol(c.Name, c.Type)
		sc.addCol(tblKey, tbl.ColumnKey(i), cols[i])
	}
	del := &xtra.Delete{Table: tbl.Name, Cols: cols}
	if s.Where != nil {
		p, err := b.bindPredicate(s.Where, sc)
		if err != nil {
			return nil, err
		}
		del.Pred = p
	}
	return del, nil
}

// --- DDL -------------------------------------------------------------------

func (b *Binder) bindCreateTable(s *sqlast.CreateTableStmt) (xtra.Statement, error) {
	def := &catalog.Table{Name: s.Name, Set: s.Set, PrimaryIndex: s.PrimaryIndex}
	switch {
	case s.Volatile:
		def.Kind = catalog.KindVolatile
	case s.GlobalTemporary:
		def.Kind = catalog.KindGlobalTemporary
	}
	var input xtra.Op
	if s.AsQuery != nil {
		op, err := b.bindQueryExpr(s.AsQuery, b.globalScope())
		if err != nil {
			return nil, err
		}
		for _, c := range op.Columns() {
			if c.Name == "" {
				return nil, fmt.Errorf("binder: CREATE TABLE AS requires named output columns")
			}
			def.Columns = append(def.Columns, catalog.Column{Name: c.Name, Type: c.Type})
		}
		if s.WithData {
			input = op
		}
	} else {
		for _, cd := range s.Columns {
			t, err := cd.Type.Resolve()
			if err != nil {
				return nil, fmt.Errorf("binder: column %s: %v", cd.Name, err)
			}
			col := catalog.Column{Name: cd.Name, Type: t, NotNull: cd.NotNull, CaseInsensitive: cd.CaseInsensitive}
			if cd.Default != nil {
				col.Default = defaultText(cd.Default)
			}
			def.Columns = append(def.Columns, col)
		}
	}
	return &xtra.CreateTable{Def: def, Input: input, IfNotExists: s.IfNotExists}, nil
}

// defaultText renders a simple default expression back to text for catalog
// storage.
func defaultText(e sqlast.Expr) string {
	switch x := e.(type) {
	case *sqlast.Const:
		return x.Val.SQLLiteral()
	case *sqlast.FuncCall:
		return x.Name
	case *sqlast.UnaryExpr:
		if x.Op == sqlast.UnaryNeg {
			return "-" + defaultText(x.X)
		}
	}
	return "DEFAULT"
}

func (b *Binder) bindCreateView(s *sqlast.CreateViewStmt) (xtra.Statement, error) {
	// Bind the definition to validate it and derive updatability.
	op, err := b.bindQueryExpr(s.Query, b.globalScope())
	if err != nil {
		return nil, fmt.Errorf("binder: view %s: %v", s.Name, err)
	}
	if len(s.Columns) > 0 && len(s.Columns) != len(op.Columns()) {
		return nil, fmt.Errorf("binder: view %s column list has %d names, query yields %d", s.Name, len(s.Columns), len(op.Columns()))
	}
	v := &catalog.View{Name: s.Name, Columns: s.Columns, SQL: s.SQL}
	v.Updatable, v.BaseTable = analyzeUpdatable(s.Query)
	return &xtra.CreateView{Def: v, Replace: s.Replace}, nil
}

// analyzeUpdatable reports whether the view is a simple projection of one
// base table (eligible for the DML-on-view emulation).
func analyzeUpdatable(q *sqlast.QueryExpr) (bool, string) {
	if q.With != nil || len(q.OrderBy) > 0 {
		return false, ""
	}
	core, ok := q.Body.(*sqlast.SelectCore)
	if !ok || core.Distinct || core.GroupBy != nil || core.Having != nil ||
		core.Qualify != nil || core.Top != nil || len(core.From) != 1 {
		return false, ""
	}
	tr, ok := core.From[0].(*sqlast.TableRef)
	if !ok {
		return false, ""
	}
	for _, item := range core.Items {
		switch item.Expr.(type) {
		case *sqlast.Ident, *sqlast.Star:
		default:
			return false, ""
		}
	}
	return true, tr.Name
}
