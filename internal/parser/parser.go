package parser

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"hyperq/internal/feature"
	"hyperq/internal/sqlast"
	"hyperq/internal/types"
)

// Dialect selects the accepted SQL surface.
type Dialect uint8

// Dialects.
const (
	// Teradata accepts the full vendor surface: SEL abbreviations, QUALIFY,
	// flexible clause order, TOP, vector subqueries, macros, MERGE, BT/ET.
	Teradata Dialect = iota
	// ANSI is the strict surface of the modeled cloud targets; vendor
	// constructs are syntax errors, exactly as they would be on the real
	// system (the paper's motivation: queries "would be almost certainly
	// broken if executed without changes on a new database").
	ANSI
)

func (d Dialect) String() string {
	if d == ANSI {
		return "ansi"
	}
	return "teradata"
}

// Parser parses one source string.
type Parser struct {
	src     string
	toks    []token
	i       int
	dialect Dialect
	rec     *feature.Recorder
	sc      *Scratch
	depth   int // nesting levels entered and not yet left (see nest)
}

// maxNestingDepth bounds how deeply a request nests. Each expression, query
// block, table reference, prefix operator (-, +, NOT), INTERVAL operand and
// EXPLAIN inside another is one level. The parser recurses once per level,
// and a stack overflow is a fatal error that no recover catches, so a
// request past the bound fails as a syntax error instead. The deepest
// request in TPC-H nests 7 levels, and in both customer workloads 4.
const maxNestingDepth = 1000

// nest enters one nesting level. Each nest that succeeds is paired with an
// unnest when that level's parse returns.
func (p *Parser) nest() error {
	if p.depth == maxNestingDepth {
		return p.errorf("request nests deeper than %d levels", maxNestingDepth)
	}
	p.depth++
	return nil
}

func (p *Parser) unnest() { p.depth-- }

// New prepares a parser over src. rec may be nil.
func New(src string, d Dialect, rec *feature.Recorder) (*Parser, error) {
	return NewWith(src, d, rec, nil)
}

// NewWith prepares a parser over src using a per-session scratch arena. sc
// may be nil, in which case every path allocates fresh (the reference build
// the differential tests compare against).
func NewWith(src string, d Dialect, rec *feature.Recorder, sc *Scratch) (*Parser, error) {
	toks, err := lex(src, sc)
	if err != nil {
		return nil, err
	}
	return &Parser{src: src, toks: toks, dialect: d, rec: rec, sc: sc}, nil
}

// Parse parses a script: one or more semicolon-separated statements.
func Parse(src string, d Dialect, rec *feature.Recorder) ([]sqlast.Statement, error) {
	return ParseWith(src, d, rec, nil)
}

// ParseWith parses a script using a per-session scratch arena. The returned
// AST aliases the arena: it is valid only until the next sc.Reset. Nested
// parses (macro bodies, view definitions) must not share the scratch of a
// parse still in progress — pass nil for those.
func ParseWith(src string, d Dialect, rec *feature.Recorder, sc *Scratch) ([]sqlast.Statement, error) {
	p, err := NewWith(src, d, rec, sc)
	if err != nil {
		return nil, err
	}
	return p.Script()
}

// ParseOne parses exactly one statement.
func ParseOne(src string, d Dialect, rec *feature.Recorder) (sqlast.Statement, error) {
	stmts, err := Parse(src, d, rec)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("parser: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseExprString parses a standalone scalar expression (used by tests and
// the macro expander).
func ParseExprString(src string, d Dialect) (sqlast.Expr, error) {
	p, err := New(src, d, nil)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected input after expression")
	}
	return e, nil
}

// Script parses all statements until EOF.
func (p *Parser) Script() ([]sqlast.Statement, error) {
	var out []sqlast.Statement
	for {
		for p.acceptOp(";") {
		}
		if p.atEOF() {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.atEOF() && !p.acceptOp(";") {
			return nil, p.errorf("expected ';' between statements")
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("parser: empty request")
	}
	return out, nil
}

// --- token helpers -------------------------------------------------------

func (p *Parser) cur() token  { return p.toks[p.i] }
func (p *Parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *Parser) peekKW() string {
	t := p.cur()
	if t.kind != tokIdent {
		return ""
	}
	return t.up
}

func (p *Parser) peekKWAt(n int) string {
	j := p.i + n
	if j >= len(p.toks) || p.toks[j].kind != tokIdent {
		return ""
	}
	return p.toks[j].up
}

func (p *Parser) peekOpAt(n int) string {
	j := p.i + n
	if j >= len(p.toks) || p.toks[j].kind != tokOp {
		return ""
	}
	return p.toks[j].text
}

// acceptKW consumes the next token when it is the given keyword.
func (p *Parser) acceptKW(kw string) bool {
	if p.peekKW() == kw {
		p.i++
		return true
	}
	return false
}

// expectKW consumes the keyword or fails.
func (p *Parser) expectKW(kw string) error {
	if !p.acceptKW(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *Parser) acceptOp(op string) bool {
	t := p.cur()
	if t.kind == tokOp && t.text == op {
		p.i++
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q", op)
	}
	return nil
}

// parseError defers all formatting — fmt.Sprintf, line counting, the near
// snippet — to Error(), so constructing one on an error return costs a single
// allocation and successful parses never pay for message rendering.
type parseError struct {
	src     string
	dialect Dialect
	near    string
	eof     bool
	pos     int
	format  string
	args    []any
}

func (e *parseError) Error() string {
	near := e.near
	if e.eof {
		near = "<end of input>"
	}
	line := 1 + strings.Count(e.src[:minInt(e.pos, len(e.src))], "\n")
	return fmt.Sprintf("parser(%s): %s near %q (line %d)", e.dialect, fmt.Sprintf(e.format, e.args...), near, line)
}

func (p *Parser) errorf(format string, args ...any) error {
	t := p.cur()
	return &parseError{
		src:     p.src,
		dialect: p.dialect,
		near:    t.text,
		eof:     t.kind == tokEOF,
		pos:     t.pos,
		format:  format,
		args:    args,
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// parseIdentName reads one identifier (bare or quoted).
func (p *Parser) parseIdentName() (string, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		if reservedWords[t.up] {
			return "", p.errorf("reserved word %s used as identifier", t.up)
		}
		p.i++
		return t.text, nil
	case tokQuotedIdent:
		p.i++
		return t.text, nil
	}
	return "", p.errorf("expected identifier")
}

// reservedWords cannot appear as bare identifiers.
var reservedWords = map[string]bool{
	"SELECT": true, "SEL": true, "FROM": true, "WHERE": true, "GROUP": true,
	"HAVING": true, "ORDER": true, "QUALIFY": true, "UNION": true, "INTERSECT": true,
	"EXCEPT": true, "MINUS": true, "JOIN": true, "INNER": true, "LEFT": true,
	"RIGHT": true, "FULL": true, "CROSS": true, "ON": true, "AND": true, "OR": true,
	"NOT": true, "NULL": true, "CASE": true, "WHEN": true, "THEN": true, "ELSE": true,
	"END": true, "AS": true, "IN": true, "EXISTS": true, "BETWEEN": true, "LIKE": true,
	"IS": true, "DISTINCT": true, "ALL": true, "ANY": true, "SOME": true, "INSERT": true,
	"UPDATE": true, "DELETE": true, "MERGE": true, "CREATE": true, "DROP": true,
	"TABLE": true, "VIEW": true, "INTO": true, "VALUES": true, "SET": true,
	"WITH": true, "RECURSIVE": true, "BY": true, "ASC": true, "DESC": true,
	"USING": true, "CAST": true, "EXTRACT": true, "INTERVAL": true, "TOP": true,
	"LIMIT": true, "MOD": true, "DEFAULT": true, "PRIMARY": true, "UNIQUE": true,
}

// --- statements ----------------------------------------------------------

func (p *Parser) parseStatement() (sqlast.Statement, error) {
	switch kw := p.peekKW(); kw {
	case "SELECT", "WITH":
		return p.parseSelectStatement()
	case "SEL":
		if p.dialect != Teradata {
			return nil, p.errorf("SEL abbreviation is not ANSI SQL")
		}
		return p.parseSelectStatement()
	case "INSERT", "INS":
		return p.parseInsert()
	case "UPDATE", "UPD":
		return p.parseUpdate()
	case "DELETE", "DEL":
		return p.parseDelete()
	case "MERGE":
		return p.parseMerge()
	case "CREATE", "REPLACE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "EXEC", "EXECUTE":
		if p.dialect != Teradata {
			return nil, p.errorf("EXEC is not ANSI SQL")
		}
		return p.parseExec()
	case "HELP":
		if p.dialect != Teradata {
			return nil, p.errorf("HELP is not ANSI SQL")
		}
		return p.parseHelp()
	case "COLLECT":
		if p.dialect != Teradata {
			return nil, p.errorf("COLLECT STATISTICS is not ANSI SQL")
		}
		return p.parseCollectStats()
	case "EXPLAIN":
		if p.dialect != Teradata {
			return nil, p.errorf("EXPLAIN is not supported by the target dialect")
		}
		p.i++
		// EXPLAIN runs nothing: the statement it explains records no features.
		if err := p.nest(); err != nil {
			return nil, err
		}
		rec := p.rec
		p.rec = nil
		inner, err := p.parseStatement()
		p.rec = rec
		p.unnest()
		if err != nil {
			return nil, err
		}
		return &sqlast.ExplainStmt{Stmt: inner}, nil
	case "BT":
		if p.dialect != Teradata {
			return nil, p.errorf("BT is not ANSI SQL")
		}
		p.i++
		p.rec.Record(feature.BtEt)
		return &sqlast.TxnStmt{Kind: "BEGIN"}, nil
	case "ET":
		if p.dialect != Teradata {
			return nil, p.errorf("ET is not ANSI SQL")
		}
		p.i++
		p.rec.Record(feature.BtEt)
		return &sqlast.TxnStmt{Kind: "COMMIT"}, nil
	case "BEGIN":
		p.i++
		p.acceptKW("TRANSACTION")
		return &sqlast.TxnStmt{Kind: "BEGIN"}, nil
	case "COMMIT":
		p.i++
		p.acceptKW("WORK")
		return &sqlast.TxnStmt{Kind: "COMMIT"}, nil
	case "ROLLBACK":
		p.i++
		p.acceptKW("WORK")
		return &sqlast.TxnStmt{Kind: "ROLLBACK"}, nil
	case "SET":
		if p.peekKWAt(1) == "SESSION" {
			return p.parseSetSession()
		}
		return nil, p.errorf("unsupported SET statement")
	case "":
		if p.cur().kind == tokOp && p.cur().text == "(" {
			return p.parseSelectStatement()
		}
	}
	return nil, p.errorf("unsupported statement")
}

func (p *Parser) parseSelectStatement() (sqlast.Statement, error) {
	q, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	return &sqlast.SelectStmt{Query: q}, nil
}

// parseQueryExpr parses [WITH ...] body [UNION ...] [ORDER BY ...].
func (p *Parser) parseQueryExpr() (*sqlast.QueryExpr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	q := &sqlast.QueryExpr{}
	if p.acceptKW("WITH") {
		w := &sqlast.WithClause{}
		if p.acceptKW("RECURSIVE") {
			w.Recursive = true
			p.rec.Record(feature.RecursiveQuery)
		}
		for {
			name, err := p.parseIdentName()
			if err != nil {
				return nil, err
			}
			cte := sqlast.CTE{Name: name}
			if p.acceptOp("(") {
				cols, err := p.parseNameList()
				if err != nil {
					return nil, err
				}
				cte.Columns = cols
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			if err := p.expectKW("AS"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseQueryExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			cte.Query = sub
			w.CTEs = append(w.CTEs, cte)
			if !p.acceptOp(",") {
				break
			}
		}
		q.With = w
	}
	body, orderBy, err := p.parseSetOpTree()
	if err != nil {
		return nil, err
	}
	q.Body = body
	q.OrderBy = orderBy
	// An outer ORDER BY following the whole set-operation tree.
	if p.peekKW() == "ORDER" {
		ob, err := p.parseOrderBy()
		if err != nil {
			return nil, err
		}
		if q.OrderBy != nil {
			return nil, p.errorf("duplicate ORDER BY")
		}
		q.OrderBy = ob
	}
	// ANSI row limiting: LIMIT n, or FETCH FIRST n ROWS ONLY/WITH TIES.
	switch p.peekKW() {
	case "LIMIT":
		if p.dialect != ANSI {
			return nil, p.errorf("LIMIT is not Teradata SQL; use TOP")
		}
		p.i++
		n, err := p.parseIntToken("LIMIT")
		if err != nil {
			return nil, err
		}
		q.Limit = &sqlast.TopClause{N: n}
	case "FETCH":
		if p.dialect != ANSI {
			return nil, p.errorf("FETCH FIRST is not Teradata SQL; use TOP")
		}
		p.i++
		if !p.acceptKW("FIRST") && !p.acceptKW("NEXT") {
			return nil, p.errorf("expected FIRST or NEXT")
		}
		n, err := p.parseIntToken("FETCH FIRST")
		if err != nil {
			return nil, err
		}
		if !p.acceptKW("ROWS") && !p.acceptKW("ROW") {
			return nil, p.errorf("expected ROWS")
		}
		top := &sqlast.TopClause{N: n}
		switch {
		case p.acceptKW("ONLY"):
		case p.acceptKW("WITH"):
			if err := p.expectKW("TIES"); err != nil {
				return nil, err
			}
			top.WithTies = true
		default:
			return nil, p.errorf("expected ONLY or WITH TIES")
		}
		q.Limit = top
	}
	return q, nil
}

// parseIntToken reads a positive integer literal.
func (p *Parser) parseIntToken(clause string) (int64, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errorf("expected row count after %s", clause)
	}
	d, err := numberDatum(t.text)
	if err != nil || d.K == types.KindFloat || d.K == types.KindDecimal {
		return 0, p.errorf("%s requires an integer", clause)
	}
	p.i++
	return d.I, nil
}

// parseSetOpTree parses body (UNION|INTERSECT|EXCEPT body)*, left-assoc with
// INTERSECT binding tighter, as in the standard.
func (p *Parser) parseSetOpTree() (sqlast.QueryBody, []sqlast.OrderItem, error) {
	l, ob, err := p.parseSetOpTerm()
	if err != nil {
		return nil, nil, err
	}
	for {
		var op sqlast.SetOp
		switch p.peekKW() {
		case "UNION":
			op = sqlast.SetUnion
		case "EXCEPT", "MINUS":
			op = sqlast.SetExcept
		default:
			return l, ob, nil
		}
		if ob != nil {
			return nil, nil, p.errorf("ORDER BY must follow the last set operand")
		}
		p.i++
		all := p.acceptKW("ALL")
		if !all {
			p.acceptKW("DISTINCT")
		}
		r, rob, err := p.parseSetOpTerm()
		if err != nil {
			return nil, nil, err
		}
		l = &sqlast.SetOpBody{Op: op, All: all, L: l, R: r}
		ob = rob
	}
}

func (p *Parser) parseSetOpTerm() (sqlast.QueryBody, []sqlast.OrderItem, error) {
	l, ob, err := p.parseSetOpPrimary()
	if err != nil {
		return nil, nil, err
	}
	for p.peekKW() == "INTERSECT" {
		if ob != nil {
			return nil, nil, p.errorf("ORDER BY must follow the last set operand")
		}
		p.i++
		all := p.acceptKW("ALL")
		if !all {
			p.acceptKW("DISTINCT")
		}
		r, rob, err := p.parseSetOpPrimary()
		if err != nil {
			return nil, nil, err
		}
		l = &sqlast.SetOpBody{Op: sqlast.SetIntersect, All: all, L: l, R: r}
		ob = rob
	}
	return l, ob, nil
}

func (p *Parser) parseSetOpPrimary() (sqlast.QueryBody, []sqlast.OrderItem, error) {
	if p.cur().kind == tokOp && p.cur().text == "(" {
		p.i++
		sub, err := p.parseQueryExpr()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, nil, err
		}
		return sub, nil, nil
	}
	return p.parseSelectCore()
}

// parseSelectCore parses one SELECT block. In the Teradata dialect the
// clauses after FROM may appear in any order (Example 1 places ORDER BY
// before WHERE); the parser normalizes them into canonical positions. Any
// trailing ORDER BY is returned separately so it attaches to the enclosing
// QueryExpr.
func (p *Parser) parseSelectCore() (*sqlast.SelectCore, []sqlast.OrderItem, error) {
	kw := p.peekKW()
	if kw == "SEL" {
		if p.dialect != Teradata {
			return nil, nil, p.errorf("SEL abbreviation is not ANSI SQL")
		}
		p.rec.Record(feature.SelAbbrev)
		p.i++
	} else if kw == "SELECT" {
		p.i++
	} else {
		return nil, nil, p.errorf("expected SELECT")
	}
	core := &sqlast.SelectCore{}
	if p.acceptKW("DISTINCT") {
		core.Distinct = true
	} else {
		p.acceptKW("ALL")
	}
	if p.peekKW() == "TOP" {
		if p.dialect != Teradata {
			return nil, nil, p.errorf("TOP is not ANSI SQL")
		}
		p.i++
		t := p.cur()
		if t.kind != tokNumber {
			return nil, nil, p.errorf("expected number after TOP")
		}
		d, err := numberDatum(t.text)
		if err != nil || d.K == types.KindFloat || d.K == types.KindDecimal {
			return nil, nil, p.errorf("TOP requires an integer")
		}
		p.i++
		top := &sqlast.TopClause{N: d.I}
		if p.acceptKW("PERCENT") {
			top.Percent = true
		}
		if p.acceptKW("WITH") {
			if err := p.expectKW("TIES"); err != nil {
				return nil, nil, err
			}
			top.WithTies = true
		}
		core.Top = top
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, nil, err
		}
		core.Items = append(core.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKW("FROM") {
		for {
			te, err := p.parseTableExpr()
			if err != nil {
				return nil, nil, err
			}
			core.From = append(core.From, te)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	// Post-FROM clauses: canonical order in ANSI; any order in Teradata.
	var orderBy []sqlast.OrderItem
	seen := map[string]bool{}
	stage := 0 // ANSI progress: WHERE=1, GROUP=2, HAVING=3, QUALIFY=4, ORDER=5
	for {
		kw := p.peekKW()
		var rank int
		switch kw {
		case "WHERE":
			rank = 1
		case "GROUP":
			rank = 2
		case "HAVING":
			rank = 3
		case "QUALIFY":
			rank = 4
		case "ORDER":
			rank = 5
		default:
			return core, orderBy, nil
		}
		if seen[kw] {
			return nil, nil, p.errorf("duplicate %s clause", kw)
		}
		seen[kw] = true
		if p.dialect == ANSI && rank < stage {
			return nil, nil, p.errorf("%s clause out of order", kw)
		}
		if rank > stage {
			stage = rank
		}
		switch kw {
		case "WHERE":
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			core.Where = e
		case "GROUP":
			if err := p.parseGroupBy(core); err != nil {
				return nil, nil, err
			}
		case "HAVING":
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			core.Having = e
		case "QUALIFY":
			if p.dialect != Teradata {
				return nil, nil, p.errorf("QUALIFY is not ANSI SQL")
			}
			p.i++
			p.rec.Record(feature.Qualify)
			e, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			core.Qualify = e
		case "ORDER":
			ob, err := p.parseOrderBy()
			if err != nil {
				return nil, nil, err
			}
			orderBy = ob
		}
	}
}

func (p *Parser) parseGroupBy(core *sqlast.SelectCore) error {
	p.i++ // GROUP
	if err := p.expectKW("BY"); err != nil {
		return err
	}
	switch p.peekKW() {
	case "ROLLUP", "CUBE":
		kind := p.peekKW()
		p.i++
		p.rec.Record(feature.GroupingSets)
		if err := p.expectOp("("); err != nil {
			return err
		}
		exprs, err := p.parseExprList()
		if err != nil {
			return err
		}
		if err := p.expectOp(")"); err != nil {
			return err
		}
		core.GroupBy = exprs
		core.GroupingSets = expandRollupCube(kind, len(exprs))
		return nil
	case "GROUPING":
		p.i++
		if err := p.expectKW("SETS"); err != nil {
			return err
		}
		p.rec.Record(feature.GroupingSets)
		if err := p.expectOp("("); err != nil {
			return err
		}
		// Each set is a parenthesized list of expressions; collect the
		// union of expressions as GroupBy and indexes per set. An
		// expression named by several sets is one GroupBy entry, so a set
		// that names it leaves it non-NULL in the output.
		var sets [][]int
		for {
			if err := p.expectOp("("); err != nil {
				return err
			}
			var idxs []int
			if !(p.cur().kind == tokOp && p.cur().text == ")") {
				exprs, err := p.parseExprList()
				if err != nil {
					return err
				}
				for _, e := range exprs {
					i := slices.IndexFunc(core.GroupBy, func(g sqlast.Expr) bool { return reflect.DeepEqual(g, e) })
					if i < 0 {
						i = len(core.GroupBy)
						core.GroupBy = append(core.GroupBy, e)
					}
					idxs = append(idxs, i)
				}
			}
			if err := p.expectOp(")"); err != nil {
				return err
			}
			sets = append(sets, idxs)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return err
		}
		core.GroupingSets = sets
		return nil
	}
	exprs, err := p.parseExprList()
	if err != nil {
		return err
	}
	core.GroupBy = exprs
	return nil
}

// expandRollupCube lists the grouping sets of ROLLUP/CUBE over n columns.
func expandRollupCube(kind string, n int) [][]int {
	var sets [][]int
	if kind == "ROLLUP" {
		for k := n; k >= 0; k-- {
			set := make([]int, k)
			for i := 0; i < k; i++ {
				set[i] = i
			}
			sets = append(sets, set)
		}
		return sets
	}
	// CUBE: all subsets, from full set down to empty.
	for mask := (1 << n) - 1; mask >= 0; mask-- {
		var set []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
			}
		}
		sets = append(sets, set)
	}
	return sets
}

func (p *Parser) parseOrderBy() ([]sqlast.OrderItem, error) {
	p.i++ // ORDER
	if err := p.expectKW("BY"); err != nil {
		return nil, err
	}
	var out []sqlast.OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := sqlast.OrderItem{Expr: e}
		if p.acceptKW("DESC") {
			item.Desc = true
		} else {
			p.acceptKW("ASC")
		}
		if p.acceptKW("NULLS") {
			switch {
			case p.acceptKW("FIRST"):
				v := true
				item.NullsFirst = &v
			case p.acceptKW("LAST"):
				v := false
				item.NullsFirst = &v
			default:
				return nil, p.errorf("expected FIRST or LAST")
			}
		}
		out = append(out, item)
		if !p.acceptOp(",") {
			break
		}
	}
	return out, nil
}

func (p *Parser) parseSelectItem() (sqlast.SelectItem, error) {
	// "*" and "t.*".
	if p.acceptOp("*") {
		return sqlast.SelectItem{Expr: &sqlast.Star{}}, nil
	}
	if (p.cur().kind == tokIdent && !reservedWords[p.cur().up] || p.cur().kind == tokQuotedIdent) &&
		p.peekOpAt(1) == "." && p.peekOpAt(2) == "*" {
		tbl := p.cur().text
		p.i += 3
		return sqlast.SelectItem{Expr: &sqlast.Star{Table: tbl}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	item := sqlast.SelectItem{Expr: e}
	if p.acceptKW("AS") {
		name, err := p.parseIdentName()
		if err != nil {
			return sqlast.SelectItem{}, err
		}
		item.Alias = name
	} else if p.cur().kind == tokIdent && !reservedWords[p.cur().up] {
		item.Alias = p.cur().text
		p.i++
	} else if p.cur().kind == tokQuotedIdent {
		item.Alias = p.cur().text
		p.i++
	}
	return item, nil
}

func (p *Parser) parseNameList() ([]string, error) {
	var out []string
	for {
		n, err := p.parseIdentName()
		if err != nil {
			return nil, err
		}
		out = append(out, n)
		if !p.acceptOp(",") {
			break
		}
	}
	return out, nil
}

func (p *Parser) parseExprList() ([]sqlast.Expr, error) {
	var out []sqlast.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.acceptOp(",") {
			break
		}
	}
	return out, nil
}

// --- FROM clause ---------------------------------------------------------

func (p *Parser) parseTableExpr() (sqlast.TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var kind sqlast.JoinKind
		switch p.peekKW() {
		case "JOIN":
			kind = sqlast.JoinInner
			p.i++
		case "INNER":
			p.i++
			if err := p.expectKW("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinInner
		case "LEFT":
			p.i++
			p.acceptKW("OUTER")
			if err := p.expectKW("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinLeft
		case "RIGHT":
			p.i++
			p.acceptKW("OUTER")
			if err := p.expectKW("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinRight
		case "FULL":
			p.i++
			p.acceptKW("OUTER")
			if err := p.expectKW("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinFull
		case "CROSS":
			p.i++
			if err := p.expectKW("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinCross
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &sqlast.JoinExpr{Kind: kind, L: left, R: right}
		if kind != sqlast.JoinCross {
			if err := p.expectKW("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = cond
		}
		left = j
	}
}

func (p *Parser) parseTablePrimary() (sqlast.TableExpr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	if p.cur().kind == tokOp && p.cur().text == "(" {
		// Derived table or parenthesized join: skip nested parens to find
		// the first meaningful token (set operations may parenthesize each
		// branch: "((SELECT ...) UNION (SELECT ...)) AS a").
		j := 0
		for p.peekOpAt(j) == "(" {
			j++
		}
		if kw := p.peekKWAt(j); kw == "SELECT" || kw == "SEL" || kw == "WITH" {
			p.i++
			q, err := p.parseQueryExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			dt := &sqlast.DerivedTable{Query: q}
			alias, cols, err := p.parseTableAlias()
			if err != nil {
				return nil, err
			}
			if alias == "" {
				return nil, p.errorf("derived table requires an alias")
			}
			dt.Alias = alias
			dt.ColAliases = cols
			return dt, nil
		}
		p.i++
		te, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return te, nil
	}
	name, err := p.parseIdentName()
	if err != nil {
		return nil, err
	}
	// Optional database qualifier db.table — collapse to the table name.
	if p.acceptOp(".") {
		name2, err := p.parseIdentName()
		if err != nil {
			return nil, err
		}
		name = name2
	}
	tr := &sqlast.TableRef{Name: name}
	alias, cols, err := p.parseTableAlias()
	if err != nil {
		return nil, err
	}
	tr.Alias = alias
	tr.ColAliases = cols
	return tr, nil
}

// parseTableAlias parses [AS] alias [(col, ...)].
func (p *Parser) parseTableAlias() (string, []string, error) {
	alias := ""
	if p.acceptKW("AS") {
		n, err := p.parseIdentName()
		if err != nil {
			return "", nil, err
		}
		alias = n
	} else if p.cur().kind == tokIdent && !reservedWords[p.cur().up] {
		alias = p.cur().text
		p.i++
	} else if p.cur().kind == tokQuotedIdent {
		alias = p.cur().text
		p.i++
	}
	var cols []string
	if alias != "" && p.cur().kind == tokOp && p.cur().text == "(" {
		p.i++
		cs, err := p.parseNameList()
		if err != nil {
			return "", nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return "", nil, err
		}
		cols = cs
	}
	return alias, cols, nil
}
