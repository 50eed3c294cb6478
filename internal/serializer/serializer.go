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
	rules := transform.SerializationStage(s.profile)
	if len(rules) > 0 {
		tr := transform.New(rules...)
		c := transform.NewContext(s.profile, s.rec, maxColID(stmt))
		out, err := tr.Statement(stmt, c)
		if err != nil {
			return "", err
		}
		stmt = out
	}
	if s.noPool {
		w := &writer{profile: s.profile, names: map[xtra.ColumnID]string{}, workCTE: map[int]workInfo{}, lift: s.lift}
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
// pool is the sharing boundary rather than a per-session field.
var writerPool = sync.Pool{New: func() any {
	return &writer{names: map[xtra.ColumnID]string{}, workCTE: map[int]workInfo{}}
}}

// maxRetainedBuf caps the scratch buffer a pooled writer keeps between
// statements. Larger one-off statements still serialize fine; their oversized
// buffers are just not pinned in the pool afterwards.
const maxRetainedBuf = 64 << 10

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
	writerPool.Put(w)
}

// maxColID finds the highest allocated ColumnID so transformations can mint
// fresh ones.
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
	switch t := stmt.(type) {
	case *xtra.Query:
		scanOp(t.Root)
	case *xtra.Insert:
		scanOp(t.Input)
	case *xtra.Update:
		consider(t.Cols)
		for _, a := range t.Assigns {
			scanScalar(a.Expr)
			for _, sub := range xtra.SubOps(a.Expr) {
				scanOp(sub)
			}
		}
		if t.Pred != nil {
			scanScalar(t.Pred)
			for _, sub := range xtra.SubOps(t.Pred) {
				scanOp(sub)
			}
		}
	case *xtra.Delete:
		consider(t.Cols)
		if t.Pred != nil {
			scanScalar(t.Pred)
			for _, sub := range xtra.SubOps(t.Pred) {
				scanOp(sub)
			}
		}
	case *xtra.CreateTable:
		if t.Input != nil {
			scanOp(t.Input)
		}
	}
	return maxID + 1000
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
// scalar/render calls, which restore the length before returning), and cuts
// its own suffix out as the result string.
type writer struct {
	profile *dialect.Profile
	names   map[xtra.ColumnID]string
	nextA   int
	nextCTE int
	workCTE map[int]workInfo
	lift    bool
	buf     []byte
}

// cut copies buf[mark:] out as a string and rewinds the scratch buffer to
// mark, completing one stack-discipline emission.
func (w *writer) cut(mark int) string {
	s := string(w.buf[mark:])
	w.buf = w.buf[:mark]
	return s
}

// appendJoin appends parts separated by sep, the append-style strings.Join.
func appendJoin(b []byte, parts []string, sep string) []byte {
	for i, p := range parts {
		if i > 0 {
			b = append(b, sep...)
		}
		b = append(b, p...)
	}
	return b
}

func (w *writer) alias() string {
	w.nextA++
	return "t" + strconv.Itoa(w.nextA)
}

// colAlias is the exported SQL name of a column.
func colAlias(id xtra.ColumnID) string { return "c" + strconv.Itoa(int(id)) }

// appendColAlias is the append-style colAlias.
func appendColAlias(b []byte, id xtra.ColumnID) []byte {
	b = append(b, 'c')
	return strconv.AppendInt(b, int64(id), 10)
}

// quoteIdent renders an identifier, quoting only when necessary.
func quoteIdent(name string) string {
	simple := name != ""
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			simple = false
			break
		}
	}
	if simple && !sqlReserved[strings.ToUpper(name)] {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
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

// block is one SQL SELECT under construction.
type block struct {
	cols     []xtra.Col
	sel      []string // "expr AS cN"; nil = pass-through of cols
	fromSQL  string   // empty means no FROM clause
	where    []string
	groupBy  []string
	having   []string
	orderBy  []string
	limitSQL string
	distinct bool
	windowed bool
	agg      bool
}

// render emits the block as a SELECT statement.
func (w *writer) render(b *block) string {
	mark := len(w.buf)
	w.buf = append(w.buf, "SELECT "...)
	if b.distinct {
		w.buf = append(w.buf, "DISTINCT "...)
	}
	if b.sel != nil {
		w.buf = appendJoin(w.buf, b.sel, ", ")
	} else {
		for i, c := range b.cols {
			if i > 0 {
				w.buf = append(w.buf, ", "...)
			}
			w.buf = append(w.buf, w.names[c.ID]...)
			w.buf = append(w.buf, " AS "...)
			w.buf = appendColAlias(w.buf, c.ID)
		}
	}
	if b.fromSQL != "" {
		w.buf = append(w.buf, " FROM "...)
		w.buf = append(w.buf, b.fromSQL...)
	}
	if len(b.where) > 0 {
		w.buf = append(w.buf, " WHERE "...)
		w.buf = appendJoin(w.buf, b.where, " AND ")
	}
	if len(b.groupBy) > 0 {
		w.buf = append(w.buf, " GROUP BY "...)
		w.buf = appendJoin(w.buf, b.groupBy, ", ")
	}
	if len(b.having) > 0 {
		w.buf = append(w.buf, " HAVING "...)
		w.buf = appendJoin(w.buf, b.having, " AND ")
	}
	if len(b.orderBy) > 0 {
		w.buf = append(w.buf, " ORDER BY "...)
		w.buf = appendJoin(w.buf, b.orderBy, ", ")
	}
	if b.limitSQL != "" {
		w.buf = append(w.buf, ' ')
		w.buf = append(w.buf, b.limitSQL...)
	}
	return w.cut(mark)
}

// wrap turns the block into a derived table and returns a fresh pass-through
// block over it. Output column references switch to the exported cN names.
func (w *writer) wrap(b *block) *block {
	a := w.alias()
	sql := "(" + w.render(b) + ") AS " + a
	for _, c := range b.cols {
		w.names[c.ID] = a + "." + colAlias(c.ID)
	}
	return &block{cols: b.cols, fromSQL: sql}
}

// registerSelectAliases makes a computed block's outputs addressable by
// their exported cN select alias (valid in ORDER BY position).
func (w *writer) registerSelectAliases(b *block) {
	if b.sel == nil {
		return
	}
	for _, c := range b.cols {
		if _, ok := w.names[c.ID]; !ok {
			w.names[c.ID] = colAlias(c.ID)
		}
	}
}

// computed reports whether the block carries anything beyond FROM+WHERE and
// therefore cannot absorb new select lists or predicates directly.
func (b *block) computed() bool {
	return b.sel != nil || b.agg || b.windowed || b.distinct ||
		len(b.groupBy) > 0 || len(b.orderBy) > 0 || b.limitSQL != ""
}

// fold converts an operator into a block.
func (w *writer) fold(op xtra.Op) (*block, error) {
	switch o := op.(type) {
	case *xtra.Get:
		a := w.alias()
		for _, c := range o.Cols {
			w.names[c.ID] = a + "." + quoteIdent(c.Name)
		}
		return &block{cols: o.Cols, fromSQL: quoteIdent(o.Table) + " AS " + a}, nil
	case *xtra.WorkScan:
		info, ok := w.workCTE[o.WorkID]
		if !ok {
			return nil, fmt.Errorf("serializer: work scan outside recursive context")
		}
		a := w.alias()
		for i, c := range o.Cols {
			w.names[c.ID] = a + "." + info.cols[i]
		}
		return &block{cols: o.Cols, fromSQL: info.name + " AS " + a}, nil
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
		pred, err := w.scalar(o.Pred)
		if err != nil {
			return nil, err
		}
		b.where = append(b.where, pred)
		return b, nil
	case *xtra.Project:
		b, err := w.fold(o.Input)
		if err != nil {
			return nil, err
		}
		if b.computed() {
			b = w.wrap(b)
		}
		var sel []string
		for _, ns := range o.Exprs {
			e, err := w.scalar(ns.Expr)
			if err != nil {
				return nil, err
			}
			sel = append(sel, e+" AS "+colAlias(ns.Col.ID))
		}
		b.sel = sel
		b.cols = o.Columns()
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
		if len(b.orderBy) > 0 || b.limitSQL != "" {
			b = w.wrap(b)
		}
		// ORDER BY may reference the block's computed outputs by their
		// exported select alias (ANSI permits output-name sort keys).
		w.registerSelectAliases(b)
		keys, err := w.sortKeys(o.Keys)
		if err != nil {
			return nil, err
		}
		b.orderBy = keys
		return b, nil
	case *xtra.Limit:
		b, err := w.fold(o.Input)
		if err != nil {
			return nil, err
		}
		if b.limitSQL != "" {
			b = w.wrap(b)
		}
		if o.WithTies {
			b.limitSQL = fmt.Sprintf("FETCH FIRST %d ROWS WITH TIES", o.N)
		} else {
			b.limitSQL = fmt.Sprintf("FETCH FIRST %d ROWS ONLY", o.N)
		}
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
	// Pass-through select list plus window expressions.
	var sel []string
	for _, c := range o.Input.Columns() {
		sel = append(sel, w.names[c.ID]+" AS "+colAlias(c.ID))
	}
	over, err := w.overClause(o)
	if err != nil {
		return nil, err
	}
	for _, f := range o.Funcs {
		var fn string
		switch {
		case f.Star:
			fn = "COUNT(*)"
		case len(f.Args) == 1:
			arg, err := w.scalar(f.Args[0])
			if err != nil {
				return nil, err
			}
			fn = f.Name + "(" + arg + ")"
		default:
			fn = f.Name + "()"
		}
		sel = append(sel, fn+" OVER "+over+" AS "+colAlias(f.Out.ID))
	}
	b.sel = sel
	b.cols = o.Columns()
	b.windowed = true
	return b, nil
}

func (w *writer) overClause(o *xtra.Window) (string, error) {
	var parts []string
	if len(o.PartitionBy) > 0 {
		es, err := w.scalars(o.PartitionBy)
		if err != nil {
			return "", err
		}
		parts = append(parts, "PARTITION BY "+strings.Join(es, ", "))
	}
	if len(o.OrderBy) > 0 {
		keys, err := w.sortKeys(o.OrderBy)
		if err != nil {
			return "", err
		}
		parts = append(parts, "ORDER BY "+strings.Join(keys, ", "))
	}
	return "(" + strings.Join(parts, " ") + ")", nil
}

func (w *writer) sortKeys(keys []xtra.SortKey) ([]string, error) {
	var out []string
	for _, k := range keys {
		e, err := w.scalar(k.Expr)
		if err != nil {
			return nil, err
		}
		dir := " ASC"
		if k.Desc {
			dir = " DESC"
		}
		nulls := " NULLS LAST"
		if k.NullsFirst {
			nulls = " NULLS FIRST"
		}
		out = append(out, e+dir+nulls)
	}
	return out, nil
}

// fromItem renders a block as a FROM-clause item.
func (w *writer) fromItem(b *block) string {
	if !b.computed() && len(b.where) == 0 && b.fromSQL != "" {
		return b.fromSQL
	}
	wrapped := w.wrap(b)
	return wrapped.fromSQL
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
	var sql string
	if o.Kind == xtra.JoinCross {
		sql = lf + " CROSS JOIN " + rf
	} else {
		kw := map[xtra.JoinKind]string{
			xtra.JoinInner: "INNER JOIN", xtra.JoinLeft: "LEFT JOIN",
			xtra.JoinRight: "RIGHT JOIN", xtra.JoinFull: "FULL JOIN",
		}[o.Kind]
		pred := "1 = 1"
		if o.Pred != nil {
			p, err := w.scalar(o.Pred)
			if err != nil {
				return nil, err
			}
			pred = p
		}
		sql = lf + " " + kw + " " + rf + " ON " + pred
	}
	return &block{cols: o.Columns(), fromSQL: sql}, nil
}

func (w *writer) foldAgg(o *xtra.Agg) (*block, error) {
	b, err := w.fold(o.Input)
	if err != nil {
		return nil, err
	}
	if b.computed() {
		b = w.wrap(b)
	}
	var sel []string
	for _, g := range o.Groups {
		e, err := w.scalar(g.Expr)
		if err != nil {
			return nil, err
		}
		sel = append(sel, e+" AS "+colAlias(g.Out.ID))
		b.groupBy = append(b.groupBy, e)
	}
	for _, a := range o.Aggs {
		var fn string
		switch {
		case a.Star:
			fn = "COUNT(*)"
		default:
			arg, err := w.scalar(a.Arg)
			if err != nil {
				return nil, err
			}
			if a.Distinct {
				arg = "DISTINCT " + arg
			}
			fn = a.Func + "(" + arg + ")"
		}
		sel = append(sel, fn+" AS "+colAlias(a.Out.ID))
	}
	if o.GroupingSets != nil {
		// Native grouping-set emission uses GROUPING SETS syntax.
		var sets []string
		for _, set := range o.GroupingSets {
			var items []string
			for _, i := range set {
				items = append(items, b.groupBy[i])
			}
			sets = append(sets, "("+strings.Join(items, ", ")+")")
		}
		b.groupBy = []string{"GROUPING SETS (" + strings.Join(sets, ", ") + ")"}
	}
	b.sel = sel
	b.cols = o.Columns()
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
	kw := map[xtra.SetOpKind]string{
		xtra.SetUnion: "UNION", xtra.SetIntersect: "INTERSECT", xtra.SetExcept: "EXCEPT",
	}[o.Kind]
	if o.All {
		kw += " ALL"
	}
	union := "(" + w.render(lb) + ") " + kw + " (" + w.render(rb) + ")"
	a := w.alias()
	// Column names of the union come from the left branch's exports;
	// re-export them under the set operation's own column identities.
	lcols := o.L.Columns()
	var sel []string
	for i, c := range o.Cols {
		w.names[c.ID] = a + "." + colAlias(lcols[i].ID)
		sel = append(sel, w.names[c.ID]+" AS "+colAlias(c.ID))
	}
	return &block{
		cols:    o.Cols,
		sel:     sel,
		fromSQL: "(" + union + ") AS " + a,
	}, nil
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
	var sel []string
	for i, c := range o.Cols {
		sel = append(sel, colNames[i]+" AS "+colAlias(c.ID))
	}
	full := fmt.Sprintf("WITH RECURSIVE %s (%s) AS ((%s) UNION ALL (%s)) SELECT %s FROM %s",
		name, strings.Join(colNames, ", "), seedSQL, recSQL, strings.Join(sel, ", "), name)
	a := w.alias()
	for _, c := range o.Cols {
		w.names[c.ID] = a + "." + colAlias(c.ID)
	}
	return &block{cols: o.Cols, fromSQL: "(" + full + ") AS " + a}, nil
}
