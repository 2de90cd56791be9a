package query

import (
	"errors"
	"fmt"
	"slices"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/schema"
)

// ErrNotCovered is returned when a mapping lacks a correspondence for a target
// attribute the query needs.  Under such a mapping the query has no answer;
// the evaluation algorithms assign the mapping's probability to the empty
// result.
var ErrNotCovered = errors.New("mapping does not cover a target attribute required by the query")

// Reformulator translates a target query into source-query plans through
// possible mappings (the query-reformulation step of Section III, with the
// per-operator rules of Section VI-B).  It reads the query's Resolution, so
// reformulating through one mapping is one correspondence lookup per
// reference plus building the plan's nodes; one Reformulator serves every
// mapping, from any number of goroutines.
type Reformulator struct {
	res *Resolution
}

// NewReformulator returns a reformulator for the resolved query.
func NewReformulator(res *Resolution) *Reformulator { return &Reformulator{res: res} }

// notCovered is the error of a mapping without a correspondence for target.
func notCovered(target schema.Attribute, m *schema.Mapping) error {
	return fmt.Errorf("%w: %s under mapping %s", ErrNotCovered, target, m.ID)
}

// SourceColumn returns the engine column name that the reference denotes in
// the reformulated plan: "<alias>.<source relation>.<source attribute>".
// The alias prefix keeps several occurrences of the same source relation
// (self-joins) distinguishable.
func (r *Reformulator) SourceColumn(m *schema.Mapping, ref AttrRef) (string, error) {
	resolved, err := r.res.Ref(ref)
	if err != nil {
		return "", err
	}
	src, ok := m.SourceFor(resolved.Target)
	if !ok {
		return "", notCovered(resolved.Target, m)
	}
	return resolved.Alias + "." + src.Relation + "." + src.Name, nil
}

// SourceRelationsForAlias returns the minimal set of source relations that
// cover, under the mapping, every target attribute the query references
// through the given relation occurrence.  The result is sorted for
// determinism.
func (r *Reformulator) SourceRelationsForAlias(m *schema.Mapping, alias string) ([]string, error) {
	relName := r.res.Relation(alias)
	if relName == "" {
		return nil, fmt.Errorf("query %s: unknown alias %q", r.res.Query.Name, alias)
	}
	var rels []string
	for _, target := range r.res.AliasAttributes(alias) {
		src, ok := m.SourceFor(target)
		if !ok {
			return nil, notCovered(target, m)
		}
		if !slices.Contains(rels, src.Relation) {
			rels = append(rels, src.Relation)
		}
	}
	if len(rels) > 0 {
		slices.Sort(rels)
		return rels, nil
	}
	// The occurrence is never referenced by an attribute (e.g. COUNT(*) over a
	// bare relation): fall back to the first, by name, of the source relations
	// of every correspondence the mapping has for the target relation.
	first := ""
	for _, c := range m.Correspondences {
		if c.Target.Relation == relName && (first == "" || c.Source.Relation < first) {
			first = c.Source.Relation
		}
	}
	if first == "" {
		return nil, fmt.Errorf("%w: relation %s under mapping %s", ErrNotCovered, relName, m.ID)
	}
	return []string{first}, nil
}

// LeafPlan builds the source plan that replaces one target relation
// occurrence: the Cartesian product of the covering source relations, each
// scanned under an alias-qualified name.
func (r *Reformulator) LeafPlan(m *schema.Mapping, alias string) (engine.Plan, error) {
	rels, err := r.SourceRelationsForAlias(m, alias)
	if err != nil {
		return nil, err
	}
	var plan engine.Plan
	for _, rel := range rels {
		scan := &engine.ScanPlan{Relation: rel, Alias: alias + "." + rel}
		if plan == nil {
			plan = scan
		} else {
			plan = &engine.ProductPlan{Left: plan, Right: scan}
		}
	}
	return plan, nil
}

// Reformulate translates the whole target query into a source plan under the
// mapping.  It returns ErrNotCovered (wrapped) when the mapping cannot answer
// the query.
func (r *Reformulator) Reformulate(m *schema.Mapping) (engine.Plan, error) {
	return r.reformulateNode(r.res.Query.Root, m)
}

func (r *Reformulator) reformulateNode(n Node, m *schema.Mapping) (engine.Plan, error) {
	switch op := n.(type) {
	case *Scan:
		return r.LeafPlan(m, op.AliasName())
	case *Select:
		child, err := r.reformulateNode(op.Child, m)
		if err != nil {
			return nil, err
		}
		col, err := r.SourceColumn(m, op.Ref)
		if err != nil {
			return nil, err
		}
		return &engine.SelectPlan{
			Pred:  &engine.ConstPredicate{Column: col, Op: op.Op, Value: op.Value},
			Child: child,
		}, nil
	case *JoinSelect:
		child, err := r.reformulateNode(op.Child, m)
		if err != nil {
			return nil, err
		}
		left, err := r.SourceColumn(m, op.Left)
		if err != nil {
			return nil, err
		}
		right, err := r.SourceColumn(m, op.Right)
		if err != nil {
			return nil, err
		}
		return &engine.SelectPlan{
			Pred:  &engine.ColPredicate{Left: left, Op: op.Op, Right: right},
			Child: child,
		}, nil
	case *Project:
		child, err := r.reformulateNode(op.Child, m)
		if err != nil {
			return nil, err
		}
		cols := make([]string, len(op.Refs))
		for i, ref := range op.Refs {
			col, err := r.SourceColumn(m, ref)
			if err != nil {
				return nil, err
			}
			cols[i] = col
		}
		return &engine.ProjectPlan{Columns: cols, Child: child}, nil
	case *Product:
		left, err := r.reformulateNode(op.Left, m)
		if err != nil {
			return nil, err
		}
		right, err := r.reformulateNode(op.Right, m)
		if err != nil {
			return nil, err
		}
		return &engine.ProductPlan{Left: left, Right: right}, nil
	case *Aggregate:
		child, err := r.reformulateNode(op.Child, m)
		if err != nil {
			return nil, err
		}
		col := ""
		if op.Func != engine.AggCount && !op.Ref.IsZero() {
			c, err := r.SourceColumn(m, op.Ref)
			if err != nil {
				return nil, err
			}
			col = c
		}
		return &engine.AggregatePlan{Func: op.Func, Column: col, Child: child}, nil
	default:
		return nil, fmt.Errorf("reformulate: unsupported node type %T", n)
	}
}

// SourceSignature returns the canonical signature of the source query the
// mapping produces for this target query, or "" with ErrNotCovered when the
// mapping does not cover it.  e-basic clusters mappings by this signature.
func (r *Reformulator) SourceSignature(m *schema.Mapping) (string, error) {
	plan, err := r.Reformulate(m)
	if err != nil {
		return "", err
	}
	return plan.Signature(), nil
}
