// Package serializer implements the paper's Serializer component (§4.4):
// each target database has its own serializer behind a common interface —
// input an XTRA expression, output the SQL text of that XTRA in the target's
// dialect. Serialization "takes place by walking through the XTRA
// expression, generating a SQL block for each operator and then formatting
// the generated blocks according to the specific keywords and query
// constructs of the target database."
//
// Before emission, the target-specific serialization-stage transformations
// run (§5.3): e.g. vector subqueries become correlated EXISTS on targets
// without vector comparison support.
package serializer

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"hyperq/internal/dialect"
	"hyperq/internal/feature"
	"hyperq/internal/transform"
	"hyperq/internal/xtra"
)

// Serializer emits SQL for one target profile.
type Serializer struct {
	profile *dialect.Profile
	rec     *feature.Recorder
	lift    bool
	noPool  bool
}

// New returns a serializer for the target.
func New(profile *dialect.Profile, rec *feature.Recorder) *Serializer {
	return &Serializer{profile: profile, rec: rec}
}

// LiftLiterals switches the serializer into translation-cache template mode:
// constants carrying a fingerprint ordinal are emitted as placeholder markers
// (fingerprint.Marker) instead of SQL literals. Returns the receiver for
// chaining.
func (s *Serializer) LiftLiterals() *Serializer {
	s.lift = true
	return s
}

// NoPool switches the serializer to fresh-allocation mode: every call builds
// its writer and scratch buffer from scratch instead of drawing from the
// shared pool. Differential tests use it as the correctness reference the
// pooled path must match byte for byte. Returns the receiver for chaining.
func (s *Serializer) NoPool() *Serializer {
	s.noPool = true
	return s
}

// Serialize applies the target's serialization-stage transformations and
// renders the statement as SQL text.
func (s *Serializer) Serialize(stmt xtra.Statement) (string, error) {
	if tr := transform.SerializationTransformer(s.profile); tr != nil {
		out, err := tr.Statement(stmt, transform.NewStatementContext(s.profile, s.rec, stmt))
		if err != nil {
			return "", err
		}
		stmt = out
	}
	if s.noPool {
		w := &writer{profile: s.profile, names: map[xtra.ColumnID]colName{}, workCTE: map[int]workInfo{}, lift: s.lift}
		return w.statement(stmt)
	}
	w := writerPool.Get().(*writer)
	w.profile, w.lift = s.profile, s.lift
	sql, err := w.statement(stmt)
	w.release()
	return sql, err
}

// writerPool recycles emission state across Serialize calls. Statements are
// serialized one at a time per session, but sessions run concurrently, so the
// pool is the sharing boundary rather than a per-session field. The SQL text
// Serialize returns is always a fresh string: nothing a caller keeps points
// into a pooled writer.
var writerPool = sync.Pool{New: func() any {
	return &writer{names: map[xtra.ColumnID]colName{}, workCTE: map[int]workInfo{}}
}}

// maxRetainedBuf and maxRetainedCols cap the scratch a pooled writer keeps
// between statements. Larger one-off statements still serialize fine; their
// oversized buffers are just not pinned in the pool afterwards.
const (
	maxRetainedBuf  = 64 << 10
	maxRetainedCols = 4 << 10
)

// release clears per-statement state and returns the writer to the pool.
func (w *writer) release() {
	clear(w.names)
	clear(w.workCTE)
	w.nextA, w.nextCTE = 0, 0
	w.profile, w.lift = nil, false
	if cap(w.buf) > maxRetainedBuf {
		w.buf = nil
	} else {
		w.buf = w.buf[:0]
	}
	clear(w.cols)
	if cap(w.cols) > maxRetainedCols {
		w.cols = nil
	} else {
		w.cols = w.cols[:0]
	}
	writerPool.Put(w)
}

// workInfo records the CTE name and declared column names of an active
// RecursiveUnion work table.
type workInfo struct {
	name string
	cols []string
}

// writer holds per-statement emission state. buf is a scratch buffer shared
// by every emission site in the writer under stack discipline: an emitter
// records len(buf) on entry, appends freely (including through recursive
// scalar/render calls, which leave what they append in place or cut it back
// out before returning), and cuts its own suffix out as the result string.
// After an error the buffer's contents are undefined: the error ends the
// statement, and release rewinds it.
type writer struct {
	profile *dialect.Profile
	names   map[xtra.ColumnID]colName
	nextA   int
	nextCTE int
	workCTE map[int]workInfo
	lift    bool
	buf     []byte
	// cols is an append-only arena for the output columns of the blocks
	// under construction; a block's cols slice is a capped window of it.
	cols []xtra.Col
}

// colName is how the SQL under construction refers to a column: an optional
// qualifier and a column name. It is rendered only when the column is
// emitted, so the columns of a scanned table that nothing references cost
// no string.
type colName struct {
	// qual is the table alias number N of "tN", qualTarget for the DML
	// target alias, or 0 for none.
	qual int
	// name is a table (or work table) column name, quoted as needed; when
	// it is empty the column goes by its exported cN alias.
	name string
	id   xtra.ColumnID
}

// qualTarget qualifies the columns of an UPDATE or DELETE target, which gets
// a reserved alias so correlated subqueries can reference its columns
// unambiguously.
const (
	qualTarget  = -1
	targetAlias = "hq_target"
)

// appendName appends a column reference.
func (w *writer) appendName(n colName) {
	switch {
	case n.qual > 0:
		w.buf = appendAlias(w.buf, n.qual)
		w.buf = append(w.buf, '.')
	case n.qual == qualTarget:
		w.buf = append(w.buf, targetAlias+"."...)
	}
	if n.name != "" {
		w.buf = appendIdent(w.buf, n.name)
	} else {
		w.buf = appendColAlias(w.buf, n.id)
	}
}

// appendColumn appends the reference to column id; an unnamed column appends
// nothing.
func (w *writer) appendColumn(id xtra.ColumnID) {
	if n, ok := w.names[id]; ok {
		w.appendName(n)
	}
}

// appendExported appends "ref AS cN" for column c.
func (w *writer) appendExported(c xtra.Col) {
	w.appendColumn(c.ID)
	w.buf = append(w.buf, " AS "...)
	w.buf = appendColAlias(w.buf, c.ID)
}

// columns returns op's output columns as a window of the column arena.
// Earlier windows stay valid when the arena grows: they keep the old array.
func (w *writer) columns(op xtra.Op) []xtra.Col {
	start := len(w.cols)
	w.cols = xtra.AppendColumns(w.cols, op)
	return w.cols[start:len(w.cols):len(w.cols)]
}

// cut copies buf[mark:] out as a string and rewinds the scratch buffer to
// mark, completing one stack-discipline emission.
func (w *writer) cut(mark int) string {
	s := string(w.buf[mark:])
	w.buf = w.buf[:mark]
	return s
}

// sep appends sep before every element but the first: i is the element's
// index.
func (w *writer) sep(i int, sep string) {
	if i > 0 {
		w.buf = append(w.buf, sep...)
	}
}

// alias allocates the next table alias number.
func (w *writer) alias() int {
	w.nextA++
	return w.nextA
}

// appendAlias appends table alias "tN".
func appendAlias(b []byte, n int) []byte {
	b = append(b, 't')
	return strconv.AppendInt(b, int64(n), 10)
}

// appendColAlias appends the exported SQL name "cN" of a column.
func appendColAlias(b []byte, id xtra.ColumnID) []byte {
	b = append(b, 'c')
	return strconv.AppendInt(b, int64(id), 10)
}

// appendIdent appends an identifier, quoting only when necessary.
func appendIdent(b []byte, name string) []byte {
	simple := name != ""
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			simple = false
			break
		}
	}
	if simple && !reserved(name) {
		return append(b, name...)
	}
	b = append(b, '"')
	for i := 0; i < len(name); i++ {
		if name[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, name[i])
	}
	return append(b, '"')
}

// quoteIdent renders an identifier, quoting only when necessary.
func quoteIdent(name string) string { return string(appendIdent(nil, name)) }

// reserved reports whether an ASCII name is an SQL reserved word, in any
// case. The name is folded into a stack buffer: no reserved word is longer.
func reserved(name string) bool {
	var buf [len("TIMESTAMP")]byte
	if len(name) > len(buf) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return sqlReserved[string(buf[:len(name)])]
}

var sqlReserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "ORDER": true,
	"BY": true, "HAVING": true, "AND": true, "OR": true, "NOT": true, "NULL": true,
	"JOIN": true, "ON": true, "AS": true, "IN": true, "EXISTS": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "UNION": true, "ALL": true,
	"TABLE": true, "VALUES": true, "SET": true, "USER": true, "DEFAULT": true,
	"DATE": true, "TIME": true, "TIMESTAMP": true, "LIKE": true, "IS": true,
	"BETWEEN": true, "DISTINCT": true, "INTO": true, "UPDATE": true, "DELETE": true,
	"INSERT": true, "CREATE": true, "DROP": true, "VIEW": true, "WITH": true,
}

// block is one SQL SELECT under construction. Its clauses are finished text,
// each list already joined.
type block struct {
	cols     []xtra.Col
	sel      string // "expr AS cN, ..."; empty = pass-through of cols
	fromSQL  string // empty means no FROM clause
	where    string // conjuncts joined by " AND "
	groupBy  string
	orderBy  string
	limitSQL string
	distinct bool
	windowed bool
	agg      bool
}

// appendRender appends the block as a SELECT statement.
func (w *writer) appendRender(b *block) {
	w.buf = append(w.buf, "SELECT "...)
	if b.distinct {
		w.buf = append(w.buf, "DISTINCT "...)
	}
	if b.sel != "" {
		w.buf = append(w.buf, b.sel...)
	} else {
		for i, c := range b.cols {
			w.sep(i, ", ")
			w.appendExported(c)
		}
	}
	for _, cl := range [...]struct{ kw, text string }{
		{" FROM ", b.fromSQL}, {" WHERE ", b.where}, {" GROUP BY ", b.groupBy},
		{" ORDER BY ", b.orderBy}, {" ", b.limitSQL},
	} {
		if cl.text != "" {
			w.buf = append(w.buf, cl.kw...)
			w.buf = append(w.buf, cl.text...)
		}
	}
}

// render emits the block as a SELECT statement.
func (w *writer) render(b *block) string {
	mark := len(w.buf)
	w.appendRender(b)
	return w.cut(mark)
}

// wrap turns the block into a derived table and returns a fresh pass-through
// block over it. Output column references switch to the exported cN names.
func (w *writer) wrap(b *block) *block {
	a := w.alias()
	mark := len(w.buf)
	w.buf = append(w.buf, '(')
	w.appendRender(b)
	w.buf = append(w.buf, ") AS "...)
	w.buf = appendAlias(w.buf, a)
	for _, c := range b.cols {
		w.names[c.ID] = colName{qual: a, id: c.ID}
	}
	return &block{cols: b.cols, fromSQL: w.cut(mark)}
}

// registerSelectAliases makes a computed block's outputs addressable by
// their exported cN select alias (valid in ORDER BY position).
func (w *writer) registerSelectAliases(b *block) {
	if b.sel == "" {
		return
	}
	for _, c := range b.cols {
		if _, ok := w.names[c.ID]; !ok {
			w.names[c.ID] = colName{id: c.ID}
		}
	}
}

// computed reports whether the block carries anything beyond FROM+WHERE and
// therefore cannot absorb new select lists or predicates directly.
func (b *block) computed() bool {
	return b.sel != "" || b.agg || b.windowed || b.distinct ||
		b.groupBy != "" || b.orderBy != "" || b.limitSQL != ""
}

// fold converts an operator into a block.
func (w *writer) fold(op xtra.Op) (*block, error) {
	switch o := op.(type) {
	case *xtra.Get:
		a := w.alias()
		for _, c := range o.Cols {
			w.names[c.ID] = colName{qual: a, name: c.Name}
		}
		mark := len(w.buf)
		w.buf = appendIdent(w.buf, o.Table)
		w.buf = append(w.buf, " AS "...)
		w.buf = appendAlias(w.buf, a)
		return &block{cols: o.Cols, fromSQL: w.cut(mark)}, nil
	case *xtra.WorkScan:
		info, ok := w.workCTE[o.WorkID]
		if !ok {
			return nil, fmt.Errorf("serializer: work scan outside recursive context")
		}
		a := w.alias()
		for i, c := range o.Cols {
			w.names[c.ID] = colName{qual: a, name: info.cols[i]}
		}
		mark := len(w.buf)
		w.buf = append(w.buf, info.name...)
		w.buf = append(w.buf, " AS "...)
		w.buf = appendAlias(w.buf, a)
		return &block{cols: o.Cols, fromSQL: w.cut(mark)}, nil
	case *xtra.Select:
		b, err := w.fold(o.Input)
		if err != nil {
			return nil, err
		}
		// A computed block (aggregation, windows, projection) is wrapped so
		// the predicate can reference its outputs by exported name; this
		// renders HAVING and QUALIFY semantics as a filter over a derived
		// table, which every modeled target accepts.
		if b.computed() {
			b = w.wrap(b)
		}
		mark := len(w.buf)
		if b.where != "" {
			w.buf = append(w.buf, b.where...)
			w.buf = append(w.buf, " AND "...)
		}
		if err := w.appendScalar(o.Pred); err != nil {
			return nil, err
		}
		b.where = w.cut(mark)
		return b, nil
	case *xtra.Project:
		b, err := w.fold(o.Input)
		if err != nil {
			return nil, err
		}
		if b.computed() {
			b = w.wrap(b)
		}
		mark := len(w.buf)
		for i, ns := range o.Exprs {
			w.sep(i, ", ")
			if err := w.appendScalar(ns.Expr); err != nil {
				return nil, err
			}
			w.buf = append(w.buf, " AS "...)
			w.buf = appendColAlias(w.buf, ns.Col.ID)
		}
		b.sel = w.cut(mark)
		b.cols = w.columns(o)
		return b, nil
	case *xtra.Window:
		return w.foldWindow(o)
	case *xtra.Join:
		return w.foldJoin(o)
	case *xtra.Agg:
		return w.foldAgg(o)
	case *xtra.Sort:
		b, err := w.fold(o.Input)
		if err != nil {
			return nil, err
		}
		if b.orderBy != "" || b.limitSQL != "" {
			b = w.wrap(b)
		}
		// ORDER BY may reference the block's computed outputs by their
		// exported select alias (ANSI permits output-name sort keys).
		w.registerSelectAliases(b)
		mark := len(w.buf)
		if err := w.appendSortKeys(o.Keys); err != nil {
			return nil, err
		}
		b.orderBy = w.cut(mark)
		return b, nil
	case *xtra.Limit:
		b, err := w.fold(o.Input)
		if err != nil {
			return nil, err
		}
		if b.limitSQL != "" {
			b = w.wrap(b)
		}
		mark := len(w.buf)
		w.buf = append(w.buf, "FETCH FIRST "...)
		w.buf = strconv.AppendInt(w.buf, o.N, 10)
		if o.WithTies {
			w.buf = append(w.buf, " ROWS WITH TIES"...)
		} else {
			w.buf = append(w.buf, " ROWS ONLY"...)
		}
		b.limitSQL = w.cut(mark)
		return b, nil
	case *xtra.SetOp:
		return w.foldSetOp(o)
	case *xtra.Values:
		if len(o.Cols) == 0 && len(o.Rows) == 1 && len(o.Rows[0]) == 0 {
			// SELECT without FROM.
			return &block{}, nil
		}
		return nil, fmt.Errorf("serializer: VALUES relation is only supported in INSERT")
	case *xtra.RecursiveUnion:
		return w.foldRecursive(o)
	}
	return nil, fmt.Errorf("serializer: unsupported operator %T", op)
}

func (w *writer) foldWindow(o *xtra.Window) (*block, error) {
	b, err := w.fold(o.Input)
	if err != nil {
		return nil, err
	}
	if b.computed() {
		b = w.wrap(b)
	}
	over, err := w.overClause(o)
	if err != nil {
		return nil, err
	}
	// Pass-through select list plus window expressions.
	mark := len(w.buf)
	n := 0
	for _, c := range w.columns(o.Input) {
		w.sep(n, ", ")
		w.appendExported(c)
		n++
	}
	for _, f := range o.Funcs {
		w.sep(n, ", ")
		n++
		switch {
		case f.Star:
			w.buf = append(w.buf, "COUNT(*)"...)
		case len(f.Args) == 1:
			w.buf = append(w.buf, f.Name...)
			w.buf = append(w.buf, '(')
			if err := w.appendScalar(f.Args[0]); err != nil {
				return nil, err
			}
			w.buf = append(w.buf, ')')
		default:
			w.buf = append(w.buf, f.Name...)
			w.buf = append(w.buf, "()"...)
		}
		w.buf = append(w.buf, " OVER "...)
		w.buf = append(w.buf, over...)
		w.buf = append(w.buf, " AS "...)
		w.buf = appendColAlias(w.buf, f.Out.ID)
	}
	b.sel = w.cut(mark)
	b.cols = w.columns(o)
	b.windowed = true
	return b, nil
}

func (w *writer) overClause(o *xtra.Window) (string, error) {
	mark := len(w.buf)
	w.buf = append(w.buf, '(')
	if len(o.PartitionBy) > 0 {
		w.buf = append(w.buf, "PARTITION BY "...)
		if err := w.appendScalars(o.PartitionBy); err != nil {
			return "", err
		}
	}
	if len(o.OrderBy) > 0 {
		if len(o.PartitionBy) > 0 {
			w.buf = append(w.buf, ' ')
		}
		w.buf = append(w.buf, "ORDER BY "...)
		if err := w.appendSortKeys(o.OrderBy); err != nil {
			return "", err
		}
	}
	w.buf = append(w.buf, ')')
	return w.cut(mark), nil
}

// appendSortKeys appends ordering keys joined by ", ".
func (w *writer) appendSortKeys(keys []xtra.SortKey) error {
	for i, k := range keys {
		w.sep(i, ", ")
		if err := w.appendScalar(k.Expr); err != nil {
			return err
		}
		if k.Desc {
			w.buf = append(w.buf, " DESC"...)
		} else {
			w.buf = append(w.buf, " ASC"...)
		}
		if k.NullsFirst {
			w.buf = append(w.buf, " NULLS FIRST"...)
		} else {
			w.buf = append(w.buf, " NULLS LAST"...)
		}
	}
	return nil
}

// fromItem renders a block as a FROM-clause item.
func (w *writer) fromItem(b *block) string {
	if !b.computed() && b.where == "" && b.fromSQL != "" {
		return b.fromSQL
	}
	return w.wrap(b).fromSQL
}

func (w *writer) foldJoin(o *xtra.Join) (*block, error) {
	lb, err := w.fold(o.L)
	if err != nil {
		return nil, err
	}
	lf := w.fromItem(lb)
	rb, err := w.fold(o.R)
	if err != nil {
		return nil, err
	}
	rf := w.fromItem(rb)
	mark := len(w.buf)
	w.buf = append(w.buf, lf...)
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, o.Kind.String()...)
	w.buf = append(w.buf, " JOIN "...)
	w.buf = append(w.buf, rf...)
	if o.Kind != xtra.JoinCross {
		w.buf = append(w.buf, " ON "...)
		if o.Pred == nil {
			w.buf = append(w.buf, "1 = 1"...)
		} else if err := w.appendScalar(o.Pred); err != nil {
			return nil, err
		}
	}
	return &block{cols: w.columns(o), fromSQL: w.cut(mark)}, nil
}

func (w *writer) foldAgg(o *xtra.Agg) (*block, error) {
	b, err := w.fold(o.Input)
	if err != nil {
		return nil, err
	}
	if b.computed() {
		b = w.wrap(b)
	}
	// Grouping expressions are written twice (select list and GROUP BY), so
	// each is rendered once on its own.
	groups := make([]string, len(o.Groups))
	for i, g := range o.Groups {
		if groups[i], err = w.scalar(g.Expr); err != nil {
			return nil, err
		}
	}
	mark := len(w.buf)
	for i, g := range o.Groups {
		w.sep(i, ", ")
		w.buf = append(w.buf, groups[i]...)
		w.buf = append(w.buf, " AS "...)
		w.buf = appendColAlias(w.buf, g.Out.ID)
	}
	for i, a := range o.Aggs {
		w.sep(len(o.Groups)+i, ", ")
		if a.Star {
			w.buf = append(w.buf, "COUNT(*)"...)
		} else {
			w.buf = append(w.buf, a.Func...)
			w.buf = append(w.buf, '(')
			if a.Distinct {
				w.buf = append(w.buf, "DISTINCT "...)
			}
			if err := w.appendScalar(a.Arg); err != nil {
				return nil, err
			}
			w.buf = append(w.buf, ')')
		}
		w.buf = append(w.buf, " AS "...)
		w.buf = appendColAlias(w.buf, a.Out.ID)
	}
	b.sel = w.cut(mark)
	if o.GroupingSets != nil {
		// Native grouping-set emission uses GROUPING SETS syntax.
		w.buf = append(w.buf, "GROUPING SETS ("...)
		for i, set := range o.GroupingSets {
			w.sep(i, ", ")
			w.buf = append(w.buf, '(')
			for j, g := range set {
				w.sep(j, ", ")
				w.buf = append(w.buf, groups[g]...)
			}
			w.buf = append(w.buf, ')')
		}
		w.buf = append(w.buf, ')')
	} else {
		for i, g := range groups {
			w.sep(i, ", ")
			w.buf = append(w.buf, g...)
		}
	}
	b.groupBy = w.cut(mark)
	b.cols = w.columns(o)
	b.agg = true
	return b, nil
}

func (w *writer) foldSetOp(o *xtra.SetOp) (*block, error) {
	lb, err := w.fold(o.L)
	if err != nil {
		return nil, err
	}
	rb, err := w.fold(o.R)
	if err != nil {
		return nil, err
	}
	a := w.alias()
	mark := len(w.buf)
	w.buf = append(w.buf, "(("...)
	w.appendRender(lb)
	w.buf = append(w.buf, ") "...)
	w.buf = append(w.buf, o.Kind.String()...)
	if o.All {
		w.buf = append(w.buf, " ALL"...)
	}
	w.buf = append(w.buf, " ("...)
	w.appendRender(rb)
	w.buf = append(w.buf, ")) AS "...)
	w.buf = appendAlias(w.buf, a)
	from := w.cut(mark)
	// Column names of the union come from the left branch's exports;
	// re-export them under the set operation's own column identities.
	lcols := w.columns(o.L)
	for i, c := range o.Cols {
		w.sep(i, ", ")
		w.names[c.ID] = colName{qual: a, id: lcols[i].ID}
		w.appendExported(c)
	}
	return &block{cols: o.Cols, sel: w.cut(mark), fromSQL: from}, nil
}

func (w *writer) foldRecursive(o *xtra.RecursiveUnion) (*block, error) {
	w.nextCTE++
	name := fmt.Sprintf("rcte%d", w.nextCTE)
	colNames := make([]string, len(o.Cols))
	for i := range o.Cols {
		colNames[i] = fmt.Sprintf("x%d", i+1)
	}
	seedB, err := w.fold(o.Seed)
	if err != nil {
		return nil, err
	}
	seedSQL := w.render(seedB)
	w.workCTE[o.WorkID] = workInfo{name: name, cols: colNames}
	recB, err := w.fold(o.Recursive)
	delete(w.workCTE, o.WorkID)
	if err != nil {
		return nil, err
	}
	recSQL := w.render(recB)
	a := w.alias()
	mark := len(w.buf)
	w.buf = fmt.Appendf(w.buf, "(WITH RECURSIVE %s (%s) AS ((%s) UNION ALL (%s)) SELECT ",
		name, strings.Join(colNames, ", "), seedSQL, recSQL)
	for i, c := range o.Cols {
		w.sep(i, ", ")
		w.buf = append(w.buf, colNames[i]...)
		w.buf = append(w.buf, " AS "...)
		w.buf = appendColAlias(w.buf, c.ID)
	}
	w.buf = append(w.buf, " FROM "...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ") AS "...)
	w.buf = appendAlias(w.buf, a)
	for _, c := range o.Cols {
		w.names[c.ID] = colName{qual: a, id: c.ID}
	}
	return &block{cols: o.Cols, fromSQL: w.cut(mark)}, nil
}
