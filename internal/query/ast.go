// Package query models target queries — relational algebra expressions over
// the target schema — and their reformulation into source-query plans through
// a possible mapping, following Section III (query model) and Section VI-B
// (operator reformulation) of the paper.
//
// A Query is a tree of operators (selection, projection, Cartesian product,
// aggregation) whose leaves are aliased scans of target relations.  Attribute
// references are (alias, attribute-name) pairs so that self-joins such as
// Q3/Q4 in Table III can reference several occurrences of the same target
// relation.
package query

import (
	"fmt"
	"strings"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/schema"
)

// AttrRef references a target attribute through the alias of a relation
// occurrence in the query ("PO1.orderNum").  An empty Alias means the
// reference is unqualified and resolves against the single relation occurrence
// that has such an attribute.
type AttrRef struct {
	Alias string
	Name  string
}

// String renders the reference.
func (r AttrRef) String() string {
	if r.Alias == "" {
		return r.Name
	}
	return r.Alias + "." + r.Name
}

// IsZero reports whether the reference is empty.
func (r AttrRef) IsZero() bool { return r.Alias == "" && r.Name == "" }

// Ref builds an AttrRef.
func Ref(alias, name string) AttrRef { return AttrRef{Alias: alias, Name: name} }

// Node is an operator of a target query tree.
type Node interface {
	// Children returns the child operators.
	Children() []Node
	// String renders the node (and its subtree) in algebra notation.
	String() string
}

// Scan is a leaf: one occurrence of a target relation under an alias.
type Scan struct {
	Relation string
	Alias    string
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// String implements Node.
func (s *Scan) String() string {
	if s.Alias != "" && s.Alias != s.Relation {
		return fmt.Sprintf("%s AS %s", s.Relation, s.Alias)
	}
	return s.Relation
}

// AliasName returns the effective alias of the scan.
func (s *Scan) AliasName() string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.Relation
}

// Select filters its child by comparing a target attribute with a constant.
type Select struct {
	Ref   AttrRef
	Op    engine.CompareOp
	Value engine.Value
	Child Node
}

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Child} }

// String implements Node.  The literal spelling is kind-distinct — σ[x='5'],
// σ[x=5] and σ[x=5.0] are different ASTs with different answers and must
// render differently; the answer-cache fingerprint relies on the rendering
// being injective per AST.
func (s *Select) String() string {
	return fmt.Sprintf("σ[%s%s%s](%s)", s.Ref, s.Op, literalString(s.Value), s.Child)
}

// literalString spells a constant with its kind visible: strings quoted,
// integer-valued floats with a forced decimal point.
func literalString(v engine.Value) string {
	out := v.String()
	switch v.Kind {
	case engine.KindString:
		return "'" + out + "'"
	case engine.KindFloat:
		if !strings.ContainsAny(out, ".eE") && out != "NaN" && !strings.Contains(out, "Inf") {
			out += ".0"
		}
		return out
	default:
		return out
	}
}

// JoinSelect filters its child by comparing two target attributes (the join
// condition of an equi/theta join expressed over a Cartesian product).
type JoinSelect struct {
	Left  AttrRef
	Op    engine.CompareOp
	Right AttrRef
	Child Node
}

// Children implements Node.
func (s *JoinSelect) Children() []Node { return []Node{s.Child} }

// String implements Node.
func (s *JoinSelect) String() string {
	return fmt.Sprintf("σ[%s%s%s](%s)", s.Left, s.Op, s.Right, s.Child)
}

// Project restricts its child to the referenced target attributes.
type Project struct {
	Refs  []AttrRef
	Child Node
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// String implements Node.
func (p *Project) String() string {
	parts := make([]string, len(p.Refs))
	for i, r := range p.Refs {
		parts[i] = r.String()
	}
	return fmt.Sprintf("π[%s](%s)", strings.Join(parts, ","), p.Child)
}

// Product is the Cartesian product of its children.
type Product struct {
	Left, Right Node
}

// Children implements Node.
func (p *Product) Children() []Node { return []Node{p.Left, p.Right} }

// String implements Node.
func (p *Product) String() string { return fmt.Sprintf("(%s × %s)", p.Left, p.Right) }

// Aggregate computes COUNT, SUM, AVG, MIN or MAX over its child.  Ref is
// ignored for COUNT.
type Aggregate struct {
	Func  engine.AggFunc
	Ref   AttrRef
	Child Node
}

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// String implements Node.
func (a *Aggregate) String() string {
	return fmt.Sprintf("%s[%s](%s)", a.Func, a.Ref, a.Child)
}

// Query is a complete target query: a root operator plus the target schema it
// is written against.
type Query struct {
	// Name is an optional label ("Q4") used in experiment output.
	Name string
	// Target is the target schema the query is expressed over.
	Target *schema.Schema
	// Root is the root operator.
	Root Node
}

// String renders the query.
func (q *Query) String() string {
	if q.Name != "" {
		return q.Name + ": " + q.Root.String()
	}
	return q.Root.String()
}

// Scans returns every relation occurrence (leaf) in the query, left to right.
func (q *Query) Scans() []*Scan {
	var scans []*Scan
	walk(q.Root, func(n Node) {
		if s, ok := n.(*Scan); ok {
			scans = append(scans, s)
		}
	})
	return scans
}

// Aliases returns a map from alias to target relation name.
func (q *Query) Aliases() map[string]string {
	out := make(map[string]string)
	for _, s := range q.Scans() {
		out[s.AliasName()] = s.Relation
	}
	return out
}

// Operators returns every non-leaf operator node in the query in pre-order.
func (q *Query) Operators() []Node {
	var ops []Node
	walk(q.Root, func(n Node) {
		if _, ok := n.(*Scan); !ok {
			ops = append(ops, n)
		}
	})
	return ops
}

// NumOperators returns the number of non-leaf operators (the paper's l).
func (q *Query) NumOperators() int { return len(q.Operators()) }

func walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children() {
		walk(c, fn)
	}
}

// NodeRefs returns the attribute references used directly by a single operator
// node (not including its subtree).
func NodeRefs(n Node) []AttrRef {
	switch op := n.(type) {
	case *Select:
		return []AttrRef{op.Ref}
	case *JoinSelect:
		return []AttrRef{op.Left, op.Right}
	case *Project:
		out := make([]AttrRef, len(op.Refs))
		copy(out, op.Refs)
		return out
	case *Aggregate:
		if op.Func == engine.AggCount || op.Ref.IsZero() {
			return nil
		}
		return []AttrRef{op.Ref}
	default:
		return nil
	}
}

// Clone returns a deep copy of the query tree (the target schema is shared).
func (q *Query) Clone() *Query {
	return &Query{Name: q.Name, Target: q.Target, Root: CloneNode(q.Root)}
}

// CloneNode deep-copies a query subtree.
func CloneNode(n Node) Node {
	switch op := n.(type) {
	case nil:
		return nil
	case *Scan:
		c := *op
		return &c
	case *Select:
		return &Select{Ref: op.Ref, Op: op.Op, Value: op.Value, Child: CloneNode(op.Child)}
	case *JoinSelect:
		return &JoinSelect{Left: op.Left, Op: op.Op, Right: op.Right, Child: CloneNode(op.Child)}
	case *Project:
		refs := make([]AttrRef, len(op.Refs))
		copy(refs, op.Refs)
		return &Project{Refs: refs, Child: CloneNode(op.Child)}
	case *Product:
		return &Product{Left: CloneNode(op.Left), Right: CloneNode(op.Right)}
	case *Aggregate:
		return &Aggregate{Func: op.Func, Ref: op.Ref, Child: CloneNode(op.Child)}
	default:
		panic(fmt.Sprintf("query: unknown node type %T", n))
	}
}
