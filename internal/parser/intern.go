package parser

import (
	"strings"

	"hyperq/internal/sqlast"
)

// keywordList is every keyword the parser compares tokens against. The
// interned uppercase forms live in kwIntern so wrong-case keywords fold to a
// shared string instead of allocating one per lookup. Missing entries are not
// a correctness problem — unknown uppercase spellings fall through to the
// per-session identifier interner.
var keywordList = []string{
	"ADD_MONTHS", "ALL", "AND", "ANY", "AS", "ASC", "BEGIN", "BETWEEN", "BOTH",
	"BT", "BY", "CASE", "CASESPECIFIC", "CAST", "CHARACTERS", "CHARS",
	"COALESCE", "COLLECT", "COLUMN", "COMMIT", "COUNT", "CREATE", "CROSS",
	"CUBE", "CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP", "DATA",
	"DATE", "DATEADD", "DAY", "DEFAULT", "DEL", "DELETE", "DENSE_RANK",
	"DESC", "DISTINCT", "DOUBLE", "DROP", "ELSE", "END", "ET", "EXCEPT",
	"EXEC", "EXECUTE", "EXISTS", "EXPLAIN", "EXTRACT", "FALSE", "FETCH",
	"FIRST", "FOR", "FROM", "FULL", "GLOBAL", "GROUP", "GROUPING", "HAVING",
	"HELP", "HOUR", "IF", "IN", "INDEX", "INNER", "INS", "INSERT",
	"INTERSECT", "INTERVAL", "INTO", "IS", "JOIN", "LAST", "LEADING", "LEFT",
	"LIKE", "LIMIT", "MACRO", "MATCHED", "MAX", "MERGE", "MIN", "MINUS",
	"MINUTE", "MOD", "MONTH", "MULTISET", "NEXT", "NO", "NOT", "NULL",
	"NULLIF", "NULLIFZERO", "NULLS", "ON", "ONLY", "OR", "ORDER", "OUTER",
	"OVER", "PARTITION", "PERCENT", "PERIOD", "POSITION", "PRECEDING",
	"PRECISION", "PRESERVE", "PRIMARY", "QUALIFY", "RANK", "RECURSIVE",
	"REPLACE", "RIGHT", "ROLLBACK", "ROLLUP", "ROW", "ROWS", "ROW_NUMBER",
	"SECOND", "SEL", "SELECT", "SESSION", "SESSION_USER", "SET", "SETS",
	"SOME", "STAT", "STATISTICS", "STATS", "SUBSTR", "SUBSTRING", "SUM",
	"TABLE", "TEMP", "TEMPORARY", "THEN", "TIES", "TIME", "TIMESTAMP", "TOP",
	"TRAILING", "TRANSACTION", "TRIM", "TRUE", "UNBOUNDED", "UNION",
	"UNIQUE", "UPD", "UPDATE", "USER", "USING", "VALUES", "VIEW", "VOLATILE",
	"WHEN", "WHERE", "WITH", "WORK", "YEAR", "ZEROIFNULL",
}

// kwIntern maps every uppercase keyword spelling to one shared string. It is
// built once at init and read-only afterwards, so concurrent sessions share
// it safely.
var kwIntern = make(map[string]string, len(keywordList))

func init() {
	for _, kw := range keywordList {
		kwIntern[kw] = kw
	}
}

// hasLowerASCII reports whether s contains a lowercase ASCII letter.
// Identifier tokens are ASCII by construction (isIdentStart/isIdentPart), so
// an ASCII-only fold is exactly equivalent to strings.ToUpper for them.
func hasLowerASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'a' && c <= 'z' {
			return true
		}
	}
	return false
}

// upperIdent returns the uppercase form of an identifier token, avoiding
// allocation whenever possible: already-uppercase spellings are returned
// as-is (sub-slices of the request text), wrong-case keywords fold into a
// stack buffer and resolve to the shared interned keyword, and other
// identifiers resolve through the per-session interner when one is present.
func upperIdent(s string, sc *Scratch) string {
	if !hasLowerASCII(s) {
		return s
	}
	if len(s) <= 64 {
		var buf [64]byte
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
		}
		u := buf[:len(s)]
		// Map lookups keyed by string(u) do not allocate.
		if kw, ok := kwIntern[string(u)]; ok {
			return kw
		}
		if sc != nil {
			if id, ok := sc.idents[string(u)]; ok {
				return id
			}
			id := string(u)
			if sc.idents == nil {
				sc.idents = make(map[string]string)
			}
			sc.idents[id] = id
			return id
		}
		return string(u)
	}
	return strings.ToUpper(s)
}

// slab hands out values of T from a chunk reused across requests. Resetting
// rewinds to the start of the current chunk, so nodes from the previous
// request are overwritten — callers must only reset once the prior request's
// AST is dead.
type slab[T any] struct {
	cur []T
}

func (s *slab[T]) get() *T {
	if len(s.cur) == cap(s.cur) {
		s.cur = make([]T, 0, 64)
	}
	s.cur = s.cur[:len(s.cur)+1]
	return &s.cur[len(s.cur)-1]
}

func (s *slab[T]) reset() { s.cur = s.cur[:0] }

// Scratch is a per-session parser arena: the token slice, the identifier
// interner, and slabs for the hottest AST node types are reused across
// requests. A Scratch must not be shared between concurrently running
// parsers; sessions process one request at a time, which makes per-session
// reuse safe. The zero value is ready to use; a nil *Scratch degrades every
// path to fresh allocation (the differential-test reference build).
type Scratch struct {
	toks   []token
	idents map[string]string

	bins   slab[sqlast.BinExpr]
	consts slab[sqlast.Const]
	ids    slab[sqlast.Ident]
}

// Reset rewinds the arena at a request boundary. The AST produced by the
// previous request must no longer be referenced: its nodes will be
// overwritten by the next parse. The identifier interner is retained — it
// converges on the session's working set of identifiers.
func (sc *Scratch) Reset() {
	if sc == nil {
		return
	}
	sc.bins.reset()
	sc.consts.reset()
	sc.ids.reset()
}

// Node constructors: slab-allocated with a scratch, fresh otherwise. Each
// fully overwrites the slot so no state leaks from the node a prior request
// left there.

func (p *Parser) newBinExpr(op sqlast.BinOp, l, r sqlast.Expr) *sqlast.BinExpr {
	if p.sc == nil {
		return &sqlast.BinExpr{Op: op, L: l, R: r}
	}
	b := p.sc.bins.get()
	*b = sqlast.BinExpr{Op: op, L: l, R: r}
	return b
}

func (p *Parser) newConst(v sqlast.Const) *sqlast.Const {
	if p.sc == nil {
		c := v
		return &c
	}
	c := p.sc.consts.get()
	*c = v
	return c
}

func (p *Parser) newIdent(parts []string) *sqlast.Ident {
	if p.sc == nil {
		return &sqlast.Ident{Parts: parts}
	}
	id := p.sc.ids.get()
	*id = sqlast.Ident{Parts: parts}
	return id
}
