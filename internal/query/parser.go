package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/schema"
)

// ErrBadQuery marks a query text that does not parse or validate against the
// target schema.  Every error Parse returns wraps it, so callers (the facade,
// the query service) can classify failures with errors.Is instead of matching
// message strings.
var ErrBadQuery = errors.New("bad query")

// Parse parses a small SQL subset into a target Query.  The supported grammar
// covers the paper's workload (Table III):
//
//	SELECT <list> FROM <rel> [<alias>] {, <rel> [<alias>]} [WHERE <cond> {AND <cond>}]
//
//	<list> ::= '*' | item {',' item}
//	item   ::= COUNT(*) | SUM(ref) | AVG(ref) | MIN(ref) | MAX(ref) | ref
//	<cond> ::= ref op constant | ref op ref
//	op     ::= = | != | <> | < | <= | > | >=
//
// Constants are single-quoted strings or numeric literals.  References may be
// qualified with a relation alias ("PO1.orderNum").
func Parse(name string, target *schema.Schema, text string) (*Query, error) {
	p := &parser{lexer: newLexer(text)}
	q, err := p.parseQuery(name, target)
	if err != nil {
		return nil, fmt.Errorf("%w: parse %q: %v", ErrBadQuery, text, err)
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return q, nil
}

// MustParse is Parse that panics on error; for statically known queries.
func MustParse(name string, target *schema.Schema, text string) *Query {
	q, err := Parse(name, target, text)
	if err != nil {
		panic(err)
	}
	return q
}

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokOp
	// tokInvalid is a character no token starts with; every parser rule
	// refuses it, naming it in the error.
	tokInvalid
)

type token struct {
	kind tokenKind
	text string
}

type lexer struct {
	input string
	pos   int
	toks  []token
}

func newLexer(input string) *lexer {
	l := &lexer{input: input}
	l.tokenize()
	return l
}

func (l *lexer) tokenize() {
	s := l.input
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',':
			l.toks = append(l.toks, token{tokComma, ","})
			i++
		case c == '.':
			l.toks = append(l.toks, token{tokDot, "."})
			i++
		case c == '(':
			l.toks = append(l.toks, token{tokLParen, "("})
			i++
		case c == ')':
			l.toks = append(l.toks, token{tokRParen, ")"})
			i++
		case c == '*':
			l.toks = append(l.toks, token{tokStar, "*"})
			i++
		case c == '\'':
			j := i + 1
			for j < len(s) && s[j] != '\'' {
				j++
			}
			l.toks = append(l.toks, token{tokString, s[i+1 : min(j, len(s))]})
			i = j + 1
		case c == '=' || c == '<' || c == '>' || c == '!':
			j := i + 1
			if j < len(s) && (s[j] == '=' || (c == '<' && s[j] == '>')) {
				j++
			}
			l.toks = append(l.toks, token{tokOp, s[i:j]})
			i = j
		case unicode.IsDigit(rune(c)) || (c == '-' && i+1 < len(s) && unicode.IsDigit(rune(s[i+1]))):
			j := i + 1
			for j < len(s) && (unicode.IsDigit(rune(s[j])) || s[j] == '.') {
				j++
			}
			l.toks = append(l.toks, token{tokNumber, s[i:j]})
			i = j
		default:
			// An identifier is ASCII letters, digits and underscores — what
			// Query.SQL can spell back — so an alias the parser accepts always
			// has a canonical form.
			j := i
			for j < len(s) && isIdentByte(s[j]) {
				j++
			}
			if j == i {
				l.toks = append(l.toks, token{tokInvalid, s[i : i+1]})
				i++
				continue
			}
			l.toks = append(l.toks, token{tokIdent, s[i:j]})
			i = j
		}
	}
	l.toks = append(l.toks, token{tokEOF, ""})
}

// isIdentByte reports whether c may appear in an identifier.
func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

type parser struct {
	lexer *lexer
	pos   int
}

func (p *parser) peek() token { return p.lexer.toks[p.pos] }

func (p *parser) next() token {
	t := p.lexer.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("expected %s, got %q", kw, t.text)
	}
	return nil
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// selectItem is one entry of the SELECT list.
type selectItem struct {
	agg   engine.AggFunc
	isAgg bool
	ref   AttrRef
}

func (p *parser) parseQuery(name string, target *schema.Schema) (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	items, star, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	scans, err := p.parseFromList()
	if err != nil {
		return nil, err
	}
	var conds []Node // placeholder-free condition wrappers applied later
	type cond struct {
		left    AttrRef
		op      engine.CompareOp
		isJoin  bool
		right   AttrRef
		literal engine.Value
	}
	var condList []cond
	if p.peekKeyword("WHERE") {
		p.next()
		for {
			left, err := p.parseRef()
			if err != nil {
				return nil, err
			}
			opTok := p.next()
			if opTok.kind != tokOp {
				return nil, fmt.Errorf("expected comparison operator, got %q", opTok.text)
			}
			op, err := parseCompareOp(opTok.text)
			if err != nil {
				return nil, err
			}
			rhs := p.peek()
			var c cond
			c.left, c.op = left, op
			switch rhs.kind {
			case tokString:
				p.next()
				c.literal = engine.S(rhs.text)
			case tokNumber:
				p.next()
				c.literal, err = parseNumber(rhs.text)
				if err != nil {
					return nil, err
				}
			case tokIdent:
				ref, err := p.parseRef()
				if err != nil {
					return nil, err
				}
				c.isJoin = true
				c.right = ref
			default:
				return nil, fmt.Errorf("expected constant or attribute after operator, got %q", rhs.text)
			}
			condList = append(condList, c)
			if !p.peekKeyword("AND") {
				break
			}
			p.next()
		}
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("unexpected trailing token %q", t.text)
	}

	// Build the tree: products of scans, then selections, then projection or
	// aggregation.
	if len(scans) == 0 {
		return nil, fmt.Errorf("query has no FROM relations")
	}
	var root Node = scans[0]
	for _, s := range scans[1:] {
		root = &Product{Left: root, Right: s}
	}
	for _, c := range condList {
		if c.isJoin {
			root = &JoinSelect{Left: c.left, Op: c.op, Right: c.right, Child: root}
		} else {
			root = &Select{Ref: c.left, Op: c.op, Value: c.literal, Child: root}
		}
	}
	_ = conds
	switch {
	case star:
		// SELECT * projects every attribute of each FROM relation, in FROM
		// order and schema order, so its answers are target tuples like any
		// projection's.  Over several relations every reference is qualified.
		var refs []AttrRef
		for _, s := range scans {
			var rel *schema.RelationSchema
			if target != nil {
				rel = target.Relation(s.Relation)
			}
			if rel == nil {
				return nil, fmt.Errorf("unknown target relation %q", s.Relation)
			}
			for _, c := range rel.Columns {
				ref := AttrRef{Name: c.Name}
				if len(scans) > 1 {
					ref.Alias = s.AliasName()
				}
				refs = append(refs, ref)
			}
		}
		root = &Project{Refs: refs, Child: root}
	case len(items) == 1 && items[0].isAgg:
		root = &Aggregate{Func: items[0].agg, Ref: items[0].ref, Child: root}
	default:
		refs := make([]AttrRef, 0, len(items))
		for _, it := range items {
			if it.isAgg {
				return nil, fmt.Errorf("mixing aggregates and plain attributes in SELECT is not supported")
			}
			refs = append(refs, it.ref)
		}
		root = &Project{Refs: refs, Child: root}
	}
	return &Query{Name: name, Target: target, Root: root}, nil
}

func (p *parser) parseSelectList() (items []selectItem, star bool, err error) {
	if p.peek().kind == tokStar {
		p.next()
		return nil, true, nil
	}
	for {
		t := p.peek()
		if t.kind != tokIdent {
			return nil, false, fmt.Errorf("expected select item, got %q", t.text)
		}
		if fn, ok := aggKeyword(t.text); ok && p.lexer.toks[p.pos+1].kind == tokLParen {
			p.next() // function name
			p.next() // '('
			var ref AttrRef
			if p.peek().kind == tokStar {
				p.next()
			} else {
				ref, err = p.parseRef()
				if err != nil {
					return nil, false, err
				}
			}
			if t := p.next(); t.kind != tokRParen {
				return nil, false, fmt.Errorf("expected ) after aggregate, got %q", t.text)
			}
			items = append(items, selectItem{agg: fn, isAgg: true, ref: ref})
		} else {
			ref, err := p.parseRef()
			if err != nil {
				return nil, false, err
			}
			items = append(items, selectItem{ref: ref})
		}
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	return items, false, nil
}

func (p *parser) parseFromList() ([]*Scan, error) {
	var scans []*Scan
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("expected relation name, got %q", t.text)
		}
		s := &Scan{Relation: t.text}
		// Optional alias: a bare identifier that is not a clause keyword.
		if nt := p.peek(); nt.kind == tokIdent && !isKeyword(nt.text) {
			s.Alias = p.next().text
		}
		scans = append(scans, s)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	return scans, nil
}

func (p *parser) parseRef() (AttrRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return AttrRef{}, fmt.Errorf("expected attribute reference, got %q", t.text)
	}
	if p.peek().kind == tokDot {
		p.next()
		n := p.next()
		if n.kind != tokIdent {
			return AttrRef{}, fmt.Errorf("expected attribute name after %q., got %q", t.text, n.text)
		}
		return AttrRef{Alias: t.text, Name: n.text}, nil
	}
	return AttrRef{Name: t.text}, nil
}

func aggKeyword(s string) (engine.AggFunc, bool) {
	switch strings.ToUpper(s) {
	case "COUNT":
		return engine.AggCount, true
	case "SUM":
		return engine.AggSum, true
	case "AVG":
		return engine.AggAvg, true
	case "MIN":
		return engine.AggMin, true
	case "MAX":
		return engine.AggMax, true
	default:
		return 0, false
	}
}

func isKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "SELECT", "FROM", "WHERE", "AND":
		return true
	default:
		return false
	}
}

func parseCompareOp(s string) (engine.CompareOp, error) {
	switch s {
	case "=":
		return engine.OpEq, nil
	case "!=", "<>":
		return engine.OpNe, nil
	case "<":
		return engine.OpLt, nil
	case "<=":
		return engine.OpLe, nil
	case ">":
		return engine.OpGt, nil
	case ">=":
		return engine.OpGe, nil
	default:
		return 0, fmt.Errorf("unknown comparison operator %q", s)
	}
}

func parseNumber(s string) (engine.Value, error) {
	if strings.Contains(s, ".") {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return engine.Value{}, fmt.Errorf("bad numeric literal %q", s)
		}
		return engine.F(f), nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return engine.Value{}, fmt.Errorf("bad numeric literal %q", s)
	}
	return engine.I(i), nil
}
