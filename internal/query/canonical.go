package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/probdb/urm/internal/engine"
)

// This file defines the canonical textual form of a query — the contract the
// query service's answer cache is keyed by.  Two queries with equal ASTs must
// render to the same text, two queries with different ASTs must render to
// different texts, and the text must re-parse (query.Parse) to an AST equal to
// the original.  The round-trip property is enforced by
// TestCanonicalSQLRoundTrip over the paper's workload and randomized queries.

// SQL renders the query back into the library's SQL subset such that
// Parse(q.Name, q.Target, text) rebuilds an equal AST.  It succeeds exactly
// for the tree shapes the parser itself produces — an optional projection or
// aggregation over a stack of selections over a left-deep product of scans —
// and returns an error for any other shape or for values the grammar cannot
// spell (NULL constants, NaN/Inf floats, strings containing a single quote,
// identifiers that do not lex as one token).
func (q *Query) SQL() (string, error) {
	if q.Root == nil {
		return "", fmt.Errorf("query %s: nil root", q.Name)
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	node := q.Root
	switch root := node.(type) {
	case *Project:
		parts := make([]string, len(root.Refs))
		for i, r := range root.Refs {
			ref, err := sqlRef(r)
			if err != nil {
				return "", err
			}
			parts[i] = ref
		}
		if len(parts) == 0 {
			return "", fmt.Errorf("query %s: projection with no references", q.Name)
		}
		b.WriteString(strings.Join(parts, ", "))
		node = root.Child
	case *Aggregate:
		if root.Ref.IsZero() {
			fmt.Fprintf(&b, "%s(*)", root.Func)
		} else {
			ref, err := sqlRef(root.Ref)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s(%s)", root.Func, ref)
		}
		node = root.Child
	default:
		b.WriteString("*")
	}

	// Selections were applied innermost-first by the parser, so the outermost
	// node is the last WHERE condition; collect top-down and render reversed.
	var conds []string
	for {
		var cond string
		var err error
		switch s := node.(type) {
		case *Select:
			var lit, ref string
			lit, err = sqlLiteral(s.Value)
			if err == nil {
				ref, err = sqlRef(s.Ref)
			}
			cond = fmt.Sprintf("%s %s %s", ref, s.Op, lit)
			node = s.Child
		case *JoinSelect:
			var left, right string
			left, err = sqlRef(s.Left)
			if err == nil {
				right, err = sqlRef(s.Right)
			}
			cond = fmt.Sprintf("%s %s %s", left, s.Op, right)
			node = s.Child
		default:
			goto from
		}
		if err != nil {
			return "", err
		}
		conds = append(conds, cond)
	}
from:
	scans, err := productScans(node)
	if err != nil {
		return "", fmt.Errorf("query %s: %w", q.Name, err)
	}
	froms := make([]string, len(scans))
	for i, s := range scans {
		froms[i], err = sqlScan(s)
		if err != nil {
			return "", fmt.Errorf("query %s: %w", q.Name, err)
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(froms, ", "))
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		for i := len(conds) - 1; i >= 0; i-- {
			if i < len(conds)-1 {
				b.WriteString(" AND ")
			}
			b.WriteString(conds[i])
		}
	}
	return b.String(), nil
}

// Fingerprint returns the canonical cache-key text of the query: the SQL
// round-trip form when the tree has the parser's shape, otherwise the algebra
// rendering of the root (which is injective per AST as long as literal kinds
// are spelled — Select.String quotes string constants for exactly that
// reason).  The query name is deliberately excluded: two requests for the
// same query under different labels share one cache entry.
func (q *Query) Fingerprint() string {
	if sql, err := q.SQL(); err == nil {
		return sql
	}
	return q.Root.String()
}

// productScans flattens a left-deep product tree into its scans, rejecting any
// other shape (the parser never nests a product under its right operand or
// interleaves other operators).
func productScans(n Node) ([]*Scan, error) {
	switch t := n.(type) {
	case *Scan:
		return []*Scan{t}, nil
	case *Product:
		left, err := productScans(t.Left)
		if err != nil {
			return nil, err
		}
		right, ok := t.Right.(*Scan)
		if !ok {
			return nil, fmt.Errorf("non-canonical product shape: right operand is %T", t.Right)
		}
		return append(left, right), nil
	default:
		return nil, fmt.Errorf("non-canonical tree: %T below the selection stack", n)
	}
}

func sqlScan(s *Scan) (string, error) {
	if err := checkIdent(s.Relation); err != nil {
		return "", err
	}
	if s.Alias == "" {
		return s.Relation, nil
	}
	if err := checkIdent(s.Alias); err != nil {
		return "", err
	}
	if isKeyword(s.Alias) {
		return "", fmt.Errorf("alias %q is a keyword and cannot re-parse", s.Alias)
	}
	return s.Relation + " " + s.Alias, nil
}

func sqlRef(r AttrRef) (string, error) {
	if r.Name == "" {
		return "", fmt.Errorf("empty attribute reference")
	}
	if err := checkIdent(r.Name); err != nil {
		return "", err
	}
	if r.Alias == "" {
		if isKeyword(r.Name) {
			return "", fmt.Errorf("reference %q is a keyword and cannot re-parse", r.Name)
		}
		return r.Name, nil
	}
	if err := checkIdent(r.Alias); err != nil {
		return "", err
	}
	return r.Alias + "." + r.Name, nil
}

// checkIdent verifies that the name lexes back as a single identifier token:
// letters, digits or underscores, not starting with a digit (a leading digit
// would lex as a number).
func checkIdent(name string) error {
	if name == "" {
		return fmt.Errorf("empty identifier")
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case !isIdentByte(c):
			return fmt.Errorf("identifier %q contains %q", name, c)
		case i == 0 && c >= '0' && c <= '9':
			return fmt.Errorf("identifier %q starts with a digit", name)
		}
	}
	return nil
}

// sqlLiteral spells a constant so the parser rebuilds the identical Value:
// strings are single-quoted (a string containing a quote cannot be escaped in
// the grammar), integers are decimal, and floats always carry a decimal point
// so they re-parse as KindFloat rather than KindInt.
func sqlLiteral(v engine.Value) (string, error) {
	switch v.Kind {
	case engine.KindString:
		if strings.ContainsAny(v.Str, "'") {
			return "", fmt.Errorf("string literal %q contains a quote", v.Str)
		}
		return "'" + v.Str + "'", nil
	case engine.KindInt:
		return strconv.FormatInt(v.Int, 10), nil
	case engine.KindFloat:
		f := v.Float
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return "", fmt.Errorf("float literal %v has no textual form", f)
		}
		s := strconv.FormatFloat(f, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		// The lexer accepts only digits and dots, so the 'f' format (never
		// scientific) is required; reject anything it cannot retokenize, such
		// as nothing today — the minus sign is consumed as part of the number.
		if _, err := strconv.ParseFloat(s, 64); err != nil || !equalFloatBits(f, mustParseFloat(s)) {
			return "", fmt.Errorf("float literal %v does not round-trip through %q", f, s)
		}
		return s, nil
	default:
		return "", fmt.Errorf("%s literal has no textual form", v.Kind)
	}
}

func mustParseFloat(s string) float64 {
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

// equalFloatBits compares floats the way Value.EqualKey does: by bit pattern,
// so -0 and +0 stay distinct.
func equalFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
