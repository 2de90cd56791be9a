package engine

import (
	"fmt"
	"strings"
)

// CompareOp enumerates comparison operators usable in selection predicates.
type CompareOp int

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL-ish spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CompareOp(%d)", int(op))
	}
}

// Matches evaluates the operator over a comparison result (-1, 0, +1).
func (op CompareOp) Matches(cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}

// Predicate is a boolean condition evaluated against a row of a relation.  The
// set is closed — a comparison against a constant (ConstPredicate), between
// two columns (ColPredicate), or a conjunction of predicates (AndPredicate),
// the shapes the SQL subset's WHERE clauses reformulate into — so the
// vectorized compiler knows every predicate it is handed.
type Predicate interface {
	// Eval evaluates the predicate on a row of rel: the reference the naive
	// executor runs.
	Eval(rel *Relation, row Tuple) (bool, error)
	// String returns a canonical rendering used for plan signatures.
	String() string
	// sealed keeps implementations inside the engine.
	sealed()
}

func (*ConstPredicate) sealed() {}
func (*ColPredicate) sealed()   {}
func (*AndPredicate) sealed()   {}

// ConstPredicate compares a column against a constant value.
type ConstPredicate struct {
	Column string
	Op     CompareOp
	Value  Value
}

// Eval implements Predicate.
func (p *ConstPredicate) Eval(rel *Relation, row Tuple) (bool, error) {
	idx := rel.ColumnIndex(p.Column)
	if idx < 0 {
		return false, fmt.Errorf("predicate %s: column %q not found in %v", p, p.Column, rel.Columns)
	}
	return p.Op.Matches(row[idx].Compare(p.Value)), nil
}

// String implements Predicate.
func (p *ConstPredicate) String() string { return predicateString(p) }

// ColPredicate compares two columns of the same (possibly joined) relation.
type ColPredicate struct {
	Left  string
	Op    CompareOp
	Right string
}

// Eval implements Predicate.
func (p *ColPredicate) Eval(rel *Relation, row Tuple) (bool, error) {
	li := rel.ColumnIndex(p.Left)
	if li < 0 {
		return false, fmt.Errorf("predicate %s: column %q not found in %v", p, p.Left, rel.Columns)
	}
	ri := rel.ColumnIndex(p.Right)
	if ri < 0 {
		return false, fmt.Errorf("predicate %s: column %q not found in %v", p, p.Right, rel.Columns)
	}
	return p.Op.Matches(row[li].Compare(row[ri])), nil
}

// String implements Predicate.
func (p *ColPredicate) String() string { return predicateString(p) }

// AndPredicate is the conjunction of its children.
type AndPredicate struct {
	Children []Predicate
}

// Eval implements Predicate.
func (p *AndPredicate) Eval(rel *Relation, row Tuple) (bool, error) {
	for _, c := range p.Children {
		ok, err := c.Eval(rel, row)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// String implements Predicate.
func (p *AndPredicate) String() string { return predicateString(p) }

// predicateString renders a predicate: col<op>value, left<op>right, or
// (p1 AND p2 ...).
func predicateString(p Predicate) string {
	var b strings.Builder
	writePredicate(&b, p)
	return b.String()
}

func writePredicate(b *strings.Builder, p Predicate) {
	switch n := p.(type) {
	case *ConstPredicate:
		b.WriteString(n.Column)
		b.WriteString(n.Op.String())
		b.WriteString(n.Value.String())
	case *ColPredicate:
		b.WriteString(n.Left)
		b.WriteString(n.Op.String())
		b.WriteString(n.Right)
	case *AndPredicate:
		b.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteString(" AND ")
			}
			writePredicate(b, c)
		}
		b.WriteByte(')')
	}
}

// Eq is shorthand for a column = constant predicate.
func Eq(column string, v Value) Predicate {
	return &ConstPredicate{Column: column, Op: OpEq, Value: v}
}

// ColEq is shorthand for a column = column predicate.
func ColEq(left, right string) Predicate {
	return &ColPredicate{Left: left, Op: OpEq, Right: right}
}

// And combines predicates into a conjunction, flattening nested Ands.
func And(preds ...Predicate) Predicate {
	var flat []Predicate
	for _, p := range preds {
		if p == nil {
			continue
		}
		if ap, ok := p.(*AndPredicate); ok {
			flat = append(flat, ap.Children...)
			continue
		}
		flat = append(flat, p)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &AndPredicate{Children: flat}
}
