package table

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// This file implements the string predicate language of Ringo's front-end:
// the paper writes ringo.Select(P, 'Tag=Java'). Predicates are boolean
// combinations of column-constant comparisons:
//
//	Tag = Java
//	Score >= 4 and Type != question
//	(UserId < 100 or UserId > 900) and not Tag = Go
//
// Operators: = == != < <= > >=, connectives: and or not (case-insensitive),
// parentheses for grouping. Values are parsed as int, then float, then
// string; quote with single or double quotes to force a string or include
// spaces.
//
// Parsing produces a predNode tree (pred.go). SelectExpr executes it with
// the vectorized bitmap backend (vector.go); the tests hold that backend to
// a per-row closure chain over the same tree (closure_test.go).

// SelectExpr returns the rows satisfying the predicate expression,
// evaluated column-at-a-time over bitmap selection vectors.
func (t *Table) SelectExpr(expr string) (*Table, error) {
	node, err := t.parseExpr(expr)
	if err != nil {
		return nil, err
	}
	return t.selectBitmap(t.evalNode(node)), nil
}

// parseExpr lexes and parses one predicate expression into a resolved tree.
func (t *Table) parseExpr(expr string) (*predNode, error) {
	toks, err := lexExpr(expr)
	if err != nil {
		return nil, err
	}
	p := &exprParser{t: t, toks: toks}
	node, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		// The parser only ever advances pos past tokens it consumed, so
		// pos <= len(toks) always holds; reaching here means pos < len and
		// the index below is in bounds. A dangling connective ("a = 1 and")
		// never lands here — parseTerm reports the missing condition first.
		return nil, fmt.Errorf("table: unexpected %q at end of expression", p.toks[p.pos].text)
	}
	return node, nil
}

type tokKind int

const (
	tokWord tokKind = iota // identifier, bare value, or keyword
	tokNumber
	tokString // quoted
	tokOp     // comparison operator
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
}

func lexExpr(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "("})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")"})
			i++
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(s) && s[j] != quote {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("table: unterminated string in expression")
			}
			toks = append(toks, token{tokString, s[i+1 : j]})
			i = j + 1
		case c == '=' || c == '!' || c == '<' || c == '>':
			j := i + 1
			if j < len(s) && s[j] == '=' {
				j++
			}
			op := s[i:j]
			if op == "!" {
				return nil, fmt.Errorf("table: bare '!' in expression; use !=")
			}
			toks = append(toks, token{tokOp, op})
			i = j
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n()=!<>'\"", rune(s[j])) {
				j++
			}
			word := s[i:j]
			kind := tokWord
			if isNumeric(word) {
				kind = tokNumber
			}
			toks = append(toks, token{kind, word})
			i = j
		}
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("table: empty expression")
	}
	return toks, nil
}

func isNumeric(w string) bool {
	if w == "" {
		return false
	}
	start := 0
	if w[0] == '-' || w[0] == '+' {
		start = 1
	}
	if start >= len(w) {
		return false
	}
	for _, r := range w[start:] {
		if !unicode.IsDigit(r) && r != '.' && r != 'e' && r != 'E' && r != '-' && r != '+' {
			return false
		}
	}
	_, errI := strconv.ParseInt(w, 10, 64)
	_, errF := strconv.ParseFloat(w, 64)
	return errI == nil || errF == nil
}

type exprParser struct {
	t    *Table
	toks []token
	pos  int
}

func (p *exprParser) peek() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *exprParser) keyword(word string) bool {
	tok, ok := p.peek()
	if ok && tok.kind == tokWord && strings.EqualFold(tok.text, word) {
		p.pos++
		return true
	}
	return false
}

func (p *exprParser) parseOr() (*predNode, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &predNode{kind: predOr, left: left, right: right}
	}
	return left, nil
}

func (p *exprParser) parseAnd() (*predNode, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &predNode{kind: predAnd, left: left, right: right}
	}
	return left, nil
}

func (p *exprParser) parseTerm() (*predNode, error) {
	if p.keyword("not") {
		inner, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return &predNode{kind: predNot, left: inner}, nil
	}
	tok, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("table: expression ended where a condition was expected")
	}
	if tok.kind == tokLParen {
		p.pos++
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if tok, ok := p.peek(); !ok || tok.kind != tokRParen {
			return nil, fmt.Errorf("table: missing ')'")
		}
		p.pos++
		return inner, nil
	}
	return p.parseComparison()
}

func (p *exprParser) parseComparison() (*predNode, error) {
	col, ok := p.peek()
	if !ok || (col.kind != tokWord && col.kind != tokString) {
		return nil, fmt.Errorf("table: expected a column name, got %q", col.text)
	}
	p.pos++
	opTok, ok := p.peek()
	if !ok || opTok.kind != tokOp {
		return nil, fmt.Errorf("table: expected a comparison operator after %q", col.text)
	}
	p.pos++
	var op CmpOp
	switch opTok.text {
	case "=", "==":
		op = EQ
	case "!=":
		op = NE
	case "<":
		op = LT
	case "<=":
		op = LE
	case ">":
		op = GT
	case ">=":
		op = GE
	default:
		return nil, fmt.Errorf("table: unknown operator %q", opTok.text)
	}
	valTok, ok := p.peek()
	if !ok || valTok.kind == tokOp || valTok.kind == tokLParen || valTok.kind == tokRParen {
		return nil, fmt.Errorf("table: expected a value after %q %s", col.text, opTok.text)
	}
	p.pos++

	// The constant's Go type must match the column; coerce by column type.
	i := p.t.ColIndex(col.text)
	if i < 0 {
		return nil, fmt.Errorf("table: no column %q", col.text)
	}
	var val any
	switch p.t.cols[i].Type {
	case Int:
		n, err := strconv.ParseInt(valTok.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("table: column %q is int, value %q is not", col.text, valTok.text)
		}
		val = n
	case Float:
		f, err := strconv.ParseFloat(valTok.text, 64)
		if err != nil {
			return nil, fmt.Errorf("table: column %q is float, value %q is not", col.text, valTok.text)
		}
		val = f
	default:
		val = valTok.text
	}
	leaf, err := p.t.resolveLeaf(col.text, op, val)
	if err != nil {
		return nil, err
	}
	return &predNode{kind: predLeaf, leaf: leaf}, nil
}
