package parser

import (
	"strings"

	"hyperq/internal/feature"
	"hyperq/internal/sqlast"
	"hyperq/internal/types"
)

// Expression grammar, lowest to highest precedence:
//
//	OR > AND > NOT > comparison/IN/LIKE/BETWEEN/IS > additive(+,-,||)
//	> multiplicative(*,/,MOD) > unary(-,+) > primary

func (p *Parser) parseExpr() (sqlast.Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	return p.parseOr()
}

func (p *Parser) parseOr() (sqlast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKW("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = p.newBinExpr(sqlast.BinOr, l, r)
	}
	return l, nil
}

func (p *Parser) parseAnd() (sqlast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKW("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = p.newBinExpr(sqlast.BinAnd, l, r)
	}
	return l, nil
}

func (p *Parser) parseNot() (sqlast.Expr, error) {
	if p.acceptKW("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		p.unnest()
		if err != nil {
			return nil, err
		}
		return &sqlast.UnaryExpr{Op: sqlast.UnaryNot, X: x}, nil
	}
	return p.parseComparison()
}

var compOps = map[string]sqlast.BinOp{
	"=": sqlast.BinEQ, "<>": sqlast.BinNE, "!=": sqlast.BinNE,
	"<": sqlast.BinLT, "<=": sqlast.BinLE, ">": sqlast.BinGT, ">=": sqlast.BinGE,
}

func (p *Parser) parseComparison() (sqlast.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Postfix predicates.
	for {
		if p.cur().kind == tokOp {
			if op, ok := compOps[p.cur().text]; ok {
				p.i++
				// Quantified subquery?
				if kw := p.peekKW(); kw == "ANY" || kw == "ALL" || kw == "SOME" {
					quant := sqlast.QuantAny
					if kw == "ALL" {
						quant = sqlast.QuantAll
					}
					p.i++
					if err := p.expectOp("("); err != nil {
						return nil, err
					}
					q, err := p.parseQueryExpr()
					if err != nil {
						return nil, err
					}
					if err := p.expectOp(")"); err != nil {
						return nil, err
					}
					left := tupleItems(l)
					if len(left) > 1 {
						p.rec.Record(feature.VectorSubquery)
					}
					l = &sqlast.QuantifiedCmp{Op: op, Quant: quant, Left: left, Query: q}
					continue
				}
				r, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = p.newBinExpr(op, l, r)
				continue
			}
		}
		kw := p.peekKW()
		not := false
		if kw == "NOT" {
			switch p.peekKWAt(1) {
			case "IN", "LIKE", "BETWEEN":
				p.i++
				not = true
				kw = p.peekKW()
			default:
				return l, nil
			}
		}
		switch kw {
		case "IS":
			p.i++
			isNot := p.acceptKW("NOT")
			if err := p.expectKW("NULL"); err != nil {
				return nil, err
			}
			op := sqlast.UnaryIsNull
			if isNot {
				op = sqlast.UnaryIsNotNull
			}
			l = &sqlast.UnaryExpr{Op: op, X: l}
		case "IN":
			p.i++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			in := &sqlast.InExpr{Not: not, Left: tupleItems(l)}
			if len(in.Left) > 1 {
				p.rec.Record(feature.VectorSubquery)
			}
			if kw := p.peekKW(); kw == "SELECT" || kw == "SEL" || kw == "WITH" {
				q, err := p.parseQueryExpr()
				if err != nil {
					return nil, err
				}
				in.Query = q
			} else {
				list, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				in.List = list
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			l = in
		case "LIKE":
			p.i++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			op := sqlast.BinLike
			if not {
				op = sqlast.BinNotLike
			}
			l = p.newBinExpr(op, l, r)
		case "BETWEEN":
			p.i++
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKW("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			// Desugar to (l >= lo AND l <= hi), negated if NOT BETWEEN.
			rng := &sqlast.BinExpr{
				Op: sqlast.BinAnd,
				L:  p.newBinExpr(sqlast.BinGE, l, lo),
				R:  p.newBinExpr(sqlast.BinLE, l, hi),
			}
			if not {
				l = &sqlast.UnaryExpr{Op: sqlast.UnaryNot, X: rng}
			} else {
				l = rng
			}
		default:
			return l, nil
		}
	}
}

// tupleItems flattens a parenthesized row constructor into its items.
func tupleItems(e sqlast.Expr) []sqlast.Expr {
	if t, ok := e.(*sqlast.Tuple); ok {
		return t.Items
	}
	return []sqlast.Expr{e}
}

func (p *Parser) parseAdditive() (sqlast.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op sqlast.BinOp
		switch {
		case p.acceptOp("+"):
			op = sqlast.BinAdd
		case p.acceptOp("-"):
			op = sqlast.BinSub
		case p.acceptOp("||"):
			op = sqlast.BinConcat
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = p.newBinExpr(op, l, r)
	}
}

func (p *Parser) parseMultiplicative() (sqlast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op sqlast.BinOp
		switch {
		case p.acceptOp("*"):
			op = sqlast.BinMul
		case p.acceptOp("/"):
			op = sqlast.BinDiv
		case p.acceptOp("%"):
			op = sqlast.BinMod
		case p.peekKW() == "MOD":
			if p.dialect == Teradata {
				p.rec.Record(feature.ModOperator)
			}
			p.i++
			op = sqlast.BinMod
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = p.newBinExpr(op, l, r)
	}
}

func (p *Parser) parseUnary() (sqlast.Expr, error) {
	neg := p.acceptOp("-")
	if !neg && !p.acceptOp("+") {
		return p.parsePrimary()
	}
	if err := p.nest(); err != nil {
		return nil, err
	}
	x, err := p.parseUnary()
	p.unnest()
	if err != nil {
		return nil, err
	}
	if neg {
		return &sqlast.UnaryExpr{Op: sqlast.UnaryNeg, X: x}, nil
	}
	return x, nil
}

func (p *Parser) parsePrimary() (sqlast.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.i++
		d, err := numberDatum(t.text)
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		return p.newConst(sqlast.Const{Val: d}), nil
	case tokString:
		p.i++
		return p.newConst(sqlast.Const{Val: types.NewString(t.text)}), nil
	case tokParam:
		p.i++
		if t.text == "" {
			return &sqlast.Param{Pos: p.countPositionalParams()}, nil
		}
		return &sqlast.Param{Name: t.text}, nil
	case tokQuotedIdent:
		return p.parseIdentChain()
	case tokOp:
		if t.text == "(" {
			return p.parseParenPrimary()
		}
	case tokIdent:
		return p.parseKeywordPrimary()
	}
	return nil, p.errorf("expected expression")
}

// countPositionalParams assigns 1-based positions in appearance order.
func (p *Parser) countPositionalParams() int {
	n := 0
	for j := 0; j <= p.i-1; j++ {
		if p.toks[j].kind == tokParam && p.toks[j].text == "" {
			n++
		}
	}
	return n
}

func (p *Parser) parseParenPrimary() (sqlast.Expr, error) {
	// "(" already current.
	if kw := p.peekKWAt(1); kw == "SELECT" || kw == "SEL" || kw == "WITH" {
		p.i++
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.Subquery{Query: q}, nil
	}
	p.i++
	items, err := p.parseExprList()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return &sqlast.Tuple{Items: items}, nil
}

// parseKeywordPrimary handles identifiers that are keywords introducing a
// special form, then falls back to plain identifier / function call parsing.
func (p *Parser) parseKeywordPrimary() (sqlast.Expr, error) {
	switch p.peekKW() {
	case "NULL":
		p.i++
		return p.newConst(sqlast.Const{Val: types.NewNull(types.KindNull)}), nil
	case "TRUE":
		p.i++
		return p.newConst(sqlast.Const{Val: types.NewBool(true)}), nil
	case "FALSE":
		p.i++
		return p.newConst(sqlast.Const{Val: types.NewBool(false)}), nil
	case "DATE":
		p.i++
		if p.cur().kind == tokString {
			d, err := types.ParseDateLiteral(p.cur().text)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			p.i++
			return p.newConst(sqlast.Const{Val: d}), nil
		}
		// Teradata bare DATE means the current date.
		if p.dialect != Teradata {
			return nil, p.errorf("expected date literal after DATE")
		}
		return &sqlast.FuncCall{Name: "CURRENT_DATE"}, nil
	case "TIME":
		if p.toks[p.i+1].kind == tokString {
			p.i++
			d, err := types.ParseTimeLiteral(p.cur().text)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			p.i++
			return p.newConst(sqlast.Const{Val: d}), nil
		}
	case "TIMESTAMP":
		if p.toks[p.i+1].kind == tokString {
			p.i++
			d, err := types.ParseTimestampLiteral(p.cur().text)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			p.i++
			return p.newConst(sqlast.Const{Val: d}), nil
		}
	case "INTERVAL":
		p.i++
		if err := p.nest(); err != nil {
			return nil, err
		}
		val, err := p.parsePrimary()
		p.unnest()
		if err != nil {
			return nil, err
		}
		unit := p.peekKW()
		switch unit {
		case "DAY", "HOUR", "MINUTE", "SECOND", "MONTH", "YEAR":
			p.i++
		default:
			return nil, p.errorf("expected interval unit")
		}
		return &sqlast.IntervalExpr{Value: val, Unit: unit}, nil
	case "CASE":
		return p.parseCase()
	case "CAST":
		return p.parseCast()
	case "EXTRACT":
		return p.parseExtract()
	case "EXISTS":
		p.i++
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.ExistsExpr{Query: q}, nil
	case "DATEADD":
		return p.parseDateAdd()
	case "SUBSTRING":
		return p.parseSubstring()
	case "POSITION":
		return p.parsePosition()
	case "TRIM":
		return p.parseTrim()
	case "CURRENT_DATE", "CURRENT_TIMESTAMP", "CURRENT_TIME", "USER", "SESSION_USER":
		name := p.peekKW()
		p.i++
		return &sqlast.FuncCall{Name: name}, nil
	}
	return p.parseIdentChain()
}

func (p *Parser) parseCase() (sqlast.Expr, error) {
	p.i++ // CASE
	c := &sqlast.CaseExpr{}
	if p.peekKW() != "WHEN" {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKW("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKW("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, sqlast.CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.acceptKW("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKW("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseCast() (sqlast.Expr, error) {
	p.i++ // CAST
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKW("AS"); err != nil {
		return nil, err
	}
	tn, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.CastExpr{X: x, To: tn}, nil
}

// parseTypeName reads NAME [ ( n [, m] ) ], plus PERIOD(DATE|TIMESTAMP) and
// DOUBLE PRECISION.
func (p *Parser) parseTypeName() (sqlast.TypeName, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return sqlast.TypeName{}, p.errorf("expected type name")
	}
	name := t.up
	p.i++
	if name == "DOUBLE" && p.acceptKW("PRECISION") {
		return sqlast.TypeName{Name: "DOUBLE"}, nil
	}
	if name == "PERIOD" {
		if err := p.expectOp("("); err != nil {
			return sqlast.TypeName{}, err
		}
		elem := p.peekKW()
		if elem != "DATE" && elem != "TIMESTAMP" {
			return sqlast.TypeName{}, p.errorf("expected DATE or TIMESTAMP in PERIOD")
		}
		p.i++
		if err := p.expectOp(")"); err != nil {
			return sqlast.TypeName{}, err
		}
		return sqlast.TypeName{Name: "PERIOD(" + elem + ")"}, nil
	}
	tn := sqlast.TypeName{Name: name}
	if p.cur().kind == tokOp && p.cur().text == "(" {
		p.i++
		for {
			n := p.cur()
			if n.kind != tokNumber {
				return sqlast.TypeName{}, p.errorf("expected number in type arguments")
			}
			d, err := numberDatum(n.text)
			if err != nil {
				return sqlast.TypeName{}, p.errorf("%v", err)
			}
			tn.Args = append(tn.Args, int(d.I))
			p.i++
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return sqlast.TypeName{}, err
		}
	}
	return tn, nil
}

func (p *Parser) parseExtract() (sqlast.Expr, error) {
	p.i++ // EXTRACT
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	field := p.peekKW()
	if _, ok := types.ParseExtractField(field); !ok {
		return nil, p.errorf("invalid EXTRACT field")
	}
	p.i++
	if err := p.expectKW("FROM"); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.ExtractExpr{Field: field, X: x}, nil
}

// parseSubstring accepts both SUBSTRING(x FROM a [FOR b]) and
// SUBSTRING(x, a [, b]), normalizing to the canonical SUBSTR call.
func (p *Parser) parseSubstring() (sqlast.Expr, error) {
	p.i++ // SUBSTRING
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	args := []sqlast.Expr{x}
	if p.acceptKW("FROM") {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.acceptKW("FOR") {
			b, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, b)
		}
	} else {
		for p.acceptOp(",") {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.FuncCall{Name: "SUBSTR", Args: args}, nil
}

// parseDateAdd parses DATEADD(unit, n, d) with a bare unit keyword,
// normalizing the unit to a string constant argument.
func (p *Parser) parseDateAdd() (sqlast.Expr, error) {
	p.i++ // DATEADD
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	unit := p.peekKW()
	switch unit {
	case "DAY", "MONTH", "YEAR":
		p.i++
	default:
		return nil, p.errorf("expected DAY, MONTH or YEAR unit in DATEADD")
	}
	if err := p.expectOp(","); err != nil {
		return nil, err
	}
	n, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(","); err != nil {
		return nil, err
	}
	d, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.FuncCall{Name: "DATEADD", Args: []sqlast.Expr{
		p.newConst(sqlast.Const{Val: types.NewString(unit)}), n, d,
	}}, nil
}

// parsePosition accepts both POSITION(a IN b) and POSITION(a, b),
// normalizing to the canonical two-argument form.
func (p *Parser) parsePosition() (sqlast.Expr, error) {
	p.i++
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	a, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if !p.acceptOp(",") {
		if err := p.expectKW("IN"); err != nil {
			return nil, err
		}
	}
	b, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.FuncCall{Name: "POSITION", Args: []sqlast.Expr{a, b}}, nil
}

func (p *Parser) parseTrim() (sqlast.Expr, error) {
	p.i++
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	// TRIM([LEADING|TRAILING|BOTH] [c] FROM x) and TRIM(x): the trim
	// character, when given, is the call's second argument.
	name, spec := "TRIM", true
	switch p.peekKW() {
	case "LEADING":
		name = "LTRIM"
	case "TRAILING":
		name = "RTRIM"
	case "BOTH":
	default:
		spec = false
	}
	if spec {
		p.i++
	}
	var first sqlast.Expr // x in TRIM(x), else the trim character
	if !spec || p.peekKW() != "FROM" {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		first = e
	}
	args := []sqlast.Expr{first}
	if spec || p.peekKW() == "FROM" {
		if err := p.expectKW("FROM"); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = []sqlast.Expr{x}
		if first != nil {
			args = append(args, first)
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.FuncCall{Name: name, Args: args}, nil
}

// aggregateNames are functions eligible for DISTINCT and window use.
var aggregateNames = map[string]bool{
	"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true,
}

// rankLike functions admit the Teradata RANK(expr DESC) order-as-argument
// form.
var rankLike = map[string]bool{"RANK": true, "ROW_NUMBER": true, "DENSE_RANK": true}

// parseIdentChain parses ident[.ident...], a function call, or a window
// function.
func (p *Parser) parseIdentChain() (sqlast.Expr, error) {
	var parts []string
	firstUp := "" // interned uppercase of the first part when it is a bare ident
	for {
		t := p.cur()
		switch t.kind {
		case tokIdent:
			if len(parts) == 0 {
				if reservedWords[t.up] {
					return nil, p.errorf("unexpected keyword")
				}
				firstUp = t.up
			}
			parts = append(parts, t.text)
		case tokQuotedIdent:
			parts = append(parts, t.text)
		default:
			return nil, p.errorf("expected identifier")
		}
		p.i++
		if !(p.cur().kind == tokOp && p.cur().text == "." &&
			(p.toks[p.i+1].kind == tokIdent || p.toks[p.i+1].kind == tokQuotedIdent)) {
			break
		}
		p.i++
	}
	if len(parts) == 1 && p.cur().kind == tokOp && p.cur().text == "(" {
		name := firstUp
		if name == "" {
			name = strings.ToUpper(parts[0])
		}
		return p.parseFuncCall(name)
	}
	return p.newIdent(parts), nil
}

func (p *Parser) parseFuncCall(name string) (sqlast.Expr, error) {
	p.i++ // "("
	fc := &sqlast.FuncCall{Name: name}

	// Teradata order-as-argument window form: RANK(expr [ASC|DESC], ...).
	if p.dialect == Teradata && rankLike[name] {
		if td, ok, err := p.tryTdRank(name); err != nil {
			return nil, err
		} else if ok {
			return td, nil
		}
	}
	if p.acceptOp(")") {
		return p.normalizeFunc(fc)
	}
	if p.acceptOp("*") {
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		fc.Star = true
		return p.normalizeFunc(fc)
	}
	if p.acceptKW("DISTINCT") {
		fc.Distinct = true
	}
	args, err := p.parseExprList()
	if err != nil {
		return nil, err
	}
	fc.Args = args
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return p.normalizeFunc(fc)
}

// tryTdRank attempts the Teradata RANK(expr [ASC|DESC]) form. It backtracks
// when the argument list is not followed by an order direction (i.e. it is
// the ANSI zero/one-argument form).
func (p *Parser) tryTdRank(name string) (sqlast.Expr, bool, error) {
	save := p.i
	if p.cur().kind == tokOp && p.cur().text == ")" {
		return nil, false, nil
	}
	var order []sqlast.OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			p.i = save
			return nil, false, nil
		}
		item := sqlast.OrderItem{Expr: e}
		switch {
		case p.acceptKW("DESC"):
			item.Desc = true
		case p.acceptKW("ASC"):
		default:
			// Without an explicit direction this is not the vendor form.
			p.i = save
			return nil, false, nil
		}
		order = append(order, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		p.i = save
		return nil, false, nil
	}
	p.rec.Record(feature.TdRank)
	return &sqlast.WindowFunc{
		Func:   sqlast.FuncCall{Name: name},
		Over:   sqlast.WindowSpec{OrderBy: order},
		TdForm: true,
	}, true, nil
}

// normalizeFunc applies parse-time Translation rewrites for vendor builtins
// and attaches a window specification when OVER follows.
func (p *Parser) normalizeFunc(fc *sqlast.FuncCall) (sqlast.Expr, error) {
	switch fc.Name {
	case "ZEROIFNULL":
		if len(fc.Args) != 1 {
			return nil, p.errorf("ZEROIFNULL takes one argument")
		}
		p.rec.Record(feature.ZeroIfNull)
		fc = &sqlast.FuncCall{Name: "COALESCE", Args: []sqlast.Expr{
			fc.Args[0], p.newConst(sqlast.Const{Val: types.NewInt(0)}),
		}}
	case "NULLIFZERO":
		if len(fc.Args) != 1 {
			return nil, p.errorf("NULLIFZERO takes one argument")
		}
		p.rec.Record(feature.NullIfZero)
		fc = &sqlast.FuncCall{Name: "NULLIF", Args: []sqlast.Expr{
			fc.Args[0], p.newConst(sqlast.Const{Val: types.NewInt(0)}),
		}}
	case "CHARS", "CHARACTERS":
		if p.dialect != Teradata {
			return nil, p.errorf("%s is not ANSI SQL", fc.Name)
		}
		p.rec.Record(feature.CharsFunc)
		fc = &sqlast.FuncCall{Name: "CHAR_LENGTH", Args: fc.Args}
	case "INDEX":
		if p.dialect == Teradata {
			p.rec.Record(feature.IndexFunc)
			if len(fc.Args) != 2 {
				return nil, p.errorf("INDEX takes two arguments")
			}
			// INDEX(s, sub) -> POSITION(sub, s)
			fc = &sqlast.FuncCall{Name: "POSITION", Args: []sqlast.Expr{fc.Args[1], fc.Args[0]}}
		}
	case "ADD_MONTHS":
		p.rec.Record(feature.AddMonths)
	}
	// Window specification.
	if p.peekKW() == "OVER" {
		p.i++
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		spec := sqlast.WindowSpec{}
		if p.acceptKW("PARTITION") {
			if err := p.expectKW("BY"); err != nil {
				return nil, err
			}
			exprs, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			spec.PartitionBy = exprs
		}
		if p.peekKW() == "ORDER" {
			ob, err := p.parseOrderBy()
			if err != nil {
				return nil, err
			}
			spec.OrderBy = ob
		}
		if p.acceptKW("ROWS") {
			if err := p.expectKW("UNBOUNDED"); err != nil {
				return nil, err
			}
			if err := p.expectKW("PRECEDING"); err != nil {
				return nil, err
			}
			spec.RowsUnboundedPreceding = true
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.WindowFunc{Func: *fc, Over: spec}, nil
	}
	return fc, nil
}
