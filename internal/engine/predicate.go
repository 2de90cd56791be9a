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

// Predicate is a boolean condition evaluated against a row of a relation.
type Predicate interface {
	// Eval evaluates the predicate on the row of rel at the given index.
	Eval(rel *Relation, row Tuple) (bool, error)
	// String returns a canonical rendering used for plan signatures.
	String() string
}

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
func (p *ConstPredicate) String() string {
	return fmt.Sprintf("%s%s%s", p.Column, p.Op, p.Value)
}

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
func (p *ColPredicate) String() string {
	return fmt.Sprintf("%s%s%s", p.Left, p.Op, p.Right)
}

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
func (p *AndPredicate) String() string {
	parts := make([]string, len(p.Children))
	for i, c := range p.Children {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// OrPredicate is the disjunction of its children.
type OrPredicate struct {
	Children []Predicate
}

// Eval implements Predicate.
func (p *OrPredicate) Eval(rel *Relation, row Tuple) (bool, error) {
	for _, c := range p.Children {
		ok, err := c.Eval(rel, row)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// String implements Predicate.
func (p *OrPredicate) String() string {
	parts := make([]string, len(p.Children))
	for i, c := range p.Children {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// NotPredicate negates its child.
type NotPredicate struct {
	Child Predicate
}

// Eval implements Predicate.
func (p *NotPredicate) Eval(rel *Relation, row Tuple) (bool, error) {
	ok, err := p.Child.Eval(rel, row)
	if err != nil {
		return false, err
	}
	return !ok, nil
}

// String implements Predicate.
func (p *NotPredicate) String() string { return "NOT " + p.Child.String() }

// boundPredicate is a predicate compiled against a fixed column list: column
// references are resolved to positions once at bind time, so per-row
// evaluation indexes straight into the tuple instead of scanning column names.
type boundPredicate interface {
	eval(row Tuple) (bool, error)
}

type boundConst struct {
	idx int
	op  CompareOp
	val Value
}

func (p *boundConst) eval(row Tuple) (bool, error) {
	return p.op.Matches(row[p.idx].Compare(p.val)), nil
}

type boundCol struct {
	li, ri int
	op     CompareOp
}

func (p *boundCol) eval(row Tuple) (bool, error) {
	return p.op.Matches(row[p.li].Compare(row[p.ri])), nil
}

type boundAnd struct{ children []boundPredicate }

func (p *boundAnd) eval(row Tuple) (bool, error) {
	for _, c := range p.children {
		ok, err := c.eval(row)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

type boundOr struct{ children []boundPredicate }

func (p *boundOr) eval(row Tuple) (bool, error) {
	for _, c := range p.children {
		ok, err := c.eval(row)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

type boundNot struct{ child boundPredicate }

func (p *boundNot) eval(row Tuple) (bool, error) {
	ok, err := p.child.eval(row)
	return !ok, err
}

// boundFallback adapts predicate implementations the binder does not know:
// they keep evaluating through the public Eval contract against a synthetic
// relation carrying the pipeline's columns.
type boundFallback struct {
	pred Predicate
	rel  *Relation
}

func (p *boundFallback) eval(row Tuple) (bool, error) { return p.pred.Eval(p.rel, row) }

// bindPredicate compiles the predicate against the column list, resolving
// every column reference once via resolve.  Unresolvable references fail at
// bind time with the same message the per-row evaluation used to produce.
func bindPredicate(p Predicate, resolve func(string) int, cols []string) (boundPredicate, error) {
	switch n := p.(type) {
	case *ConstPredicate:
		idx := resolve(n.Column)
		if idx < 0 {
			return nil, fmt.Errorf("predicate %s: column %q not found in %v", n, n.Column, cols)
		}
		return &boundConst{idx: idx, op: n.Op, val: n.Value}, nil
	case *ColPredicate:
		li := resolve(n.Left)
		if li < 0 {
			return nil, fmt.Errorf("predicate %s: column %q not found in %v", n, n.Left, cols)
		}
		ri := resolve(n.Right)
		if ri < 0 {
			return nil, fmt.Errorf("predicate %s: column %q not found in %v", n, n.Right, cols)
		}
		return &boundCol{li: li, ri: ri, op: n.Op}, nil
	case *AndPredicate:
		children := make([]boundPredicate, len(n.Children))
		for i, c := range n.Children {
			b, err := bindPredicate(c, resolve, cols)
			if err != nil {
				return nil, err
			}
			children[i] = b
		}
		return &boundAnd{children: children}, nil
	case *OrPredicate:
		children := make([]boundPredicate, len(n.Children))
		for i, c := range n.Children {
			b, err := bindPredicate(c, resolve, cols)
			if err != nil {
				return nil, err
			}
			children[i] = b
		}
		return &boundOr{children: children}, nil
	case *NotPredicate:
		child, err := bindPredicate(n.Child, resolve, cols)
		if err != nil {
			return nil, err
		}
		return &boundNot{child: child}, nil
	default:
		return &boundFallback{pred: p, rel: &Relation{Columns: cols}}, nil
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
