// Package parser implements the dialect-aware SQL frontend: a lexer and a
// recursive-descent parser that accept either the Teradata dialect (the
// paper's SQL-A) or a strict ANSI dialect (used by the cloud-engine
// substrate to reject vendor constructs exactly like a real cloud target
// would). Simple "Translation"-class rewrites — SEL→SELECT, BT/ET,
// ZEROIFNULL — happen here, as the paper prescribes for features that exist
// only in the source language (§5.1, Table 2).
package parser

import (
	"fmt"
	"strings"

	"hyperq/internal/types"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokQuotedIdent
	tokNumber
	tokString
	tokOp
	tokParam // :name or ?
)

type token struct {
	kind tokenKind
	text string // for idents: original spelling; for ops: the operator
	up   string // for idents: uppercase form, computed once at lex time
	pos  int    // byte offset for error reporting
}

type lexer struct {
	src    string
	pos    int
	tokens []token
	sc     *Scratch
}

// lex tokenizes src fully; it returns an error with position context on any
// invalid input. With a scratch the token slice is reused across requests
// and identifier uppercase forms intern through the session tables.
func lex(src string, sc *Scratch) ([]token, error) {
	l := &lexer{src: src, sc: sc}
	if sc != nil {
		l.tokens = sc.toks[:0]
		defer func() { sc.toks = l.tokens }()
	}
	parens := 0
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.lexIdent()
		case c >= '0' && c <= '9':
			l.lexNumber()
		case c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '"':
			if err := l.lexQuotedIdent(); err != nil {
				return nil, err
			}
		case c == '?':
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokParam, text: "", pos: start})
		case c == ':':
			l.pos++
			if l.pos < len(l.src) && isIdentStart(l.src[l.pos]) {
				s := l.pos
				for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
					l.pos++
				}
				l.tokens = append(l.tokens, token{kind: tokParam, text: l.src[s:l.pos], pos: start})
			} else {
				return nil, fmt.Errorf("parser: stray ':' at offset %d", start)
			}
		default:
			op, err := l.lexOp()
			if err != nil {
				return nil, err
			}
			// Parentheses past the parser's nesting bound fail here, before
			// the rest of the request is lexed.
			switch op {
			case "(":
				if parens++; parens > maxNestingDepth {
					return nil, fmt.Errorf("parser: parentheses nest deeper than %d levels at offset %d", maxNestingDepth, start)
				}
			case ")":
				parens--
			}
			l.tokens = append(l.tokens, token{kind: tokOp, text: op, pos: start})
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || c == '#' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	l.tokens = append(l.tokens, token{kind: tokIdent, text: text, up: upperIdent(text, l.sc), pos: start})
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			// Do not swallow ".." or a trailing "."
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos+1 < len(l.src) &&
			(isDigit(l.src[l.pos+1]) || ((l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-') && l.pos+2 < len(l.src) && isDigit(l.src[l.pos+2]))):
			seenExp = true
			l.pos++
			if l.src[l.pos] == '+' || l.src[l.pos] == '-' {
				l.pos++
			}
		default:
			l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
			return
		}
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("parser: unterminated string literal at offset %d", start)
}

func (l *lexer) lexQuotedIdent() error {
	start := l.pos
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '"' {
				b.WriteByte('"')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokQuotedIdent, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("parser: unterminated quoted identifier at offset %d", start)
}

var twoCharOps = map[string]bool{
	"<=": true, ">=": true, "<>": true, "!=": true, "||": true, "**": true,
}

func (l *lexer) lexOp() (string, error) {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		if twoCharOps[two] {
			l.pos += 2
			return two, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '+', '-', '*', '/', '<', '>', '=', '(', ')', ',', '.', ';', '%':
		l.pos++
		return string(c), nil
	}
	return "", fmt.Errorf("parser: unexpected character %q at offset %d", c, l.pos)
}

// numberDatum converts a numeric literal to a datum: integers stay integral
// (INT or BIGINT by range), a decimal point yields a DECIMAL with the written
// scale, an exponent yields FLOAT.
func numberDatum(text string) (types.Datum, error) {
	if strings.ContainsAny(text, "eE") {
		var f float64
		if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
			return types.Datum{}, fmt.Errorf("parser: bad number %q", text)
		}
		return types.NewFloat(f), nil
	}
	if i := strings.IndexByte(text, '.'); i >= 0 {
		whole, frac := text[:i], text[i+1:]
		scale := len(frac)
		if scale > 12 {
			frac = frac[:12]
			scale = 12
		}
		var v int64
		for _, part := range []string{whole, frac} {
			for _, c := range []byte(part) {
				if !isDigit(c) {
					return types.Datum{}, fmt.Errorf("parser: bad number %q", text)
				}
				v = v*10 + int64(c-'0')
			}
		}
		return types.NewDecimal(v, scale), nil
	}
	var v int64
	for _, c := range []byte(text) {
		if !isDigit(c) {
			return types.Datum{}, fmt.Errorf("parser: bad number %q", text)
		}
		nv := v*10 + int64(c-'0')
		if nv < v {
			return types.Datum{}, fmt.Errorf("parser: integer literal %q overflows", text)
		}
		v = nv
	}
	if v > 1<<31-1 {
		return types.NewBigInt(v), nil
	}
	return types.NewInt(v), nil
}
