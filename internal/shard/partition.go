// Package shard distributes query evaluation over horizontal partitions of a
// source instance.  A Partitioner splits one chosen base relation into N
// disjoint shard slices (hash or range on one column) while every other
// relation is replicated by reference; an Evaluator runs a prepared query's
// front half on every shard instance and merges the per-group answer sets
// back through the canonical aggregation order, so sharded answers are
// bit-identical to unsharded evaluation.
//
// The same partitioning contract backs the multi-node layer: shard nodes
// built from the same instance and Spec hold exactly the slices the
// in-process partitioner would produce, so a coordinator can merge their
// per-group answer sets with core.ScatterPlan.Merge.
package shard

import (
	"fmt"
	"sort"

	"github.com/probdb/urm/internal/engine"
)

// Kind selects the partitioning function.
type Kind int

const (
	// KindHash routes a row by the 64-bit hash of its partition-column value
	// modulo the shard count.  Placement is data-independent: any process
	// that knows the Spec routes a row identically without seeing the data.
	KindHash Kind = iota
	// KindRange routes a row by comparing its partition-column value against
	// quantile boundaries computed from the relation at partitioner
	// construction.  Placement is order-preserving per shard but depends on
	// the data the partitioner was built over.
	KindRange
)

// String names the kind as accepted by ParseKind.
func (k Kind) String() string {
	switch k {
	case KindHash:
		return "hash"
	case KindRange:
		return "range"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses "hash" or "range".
func ParseKind(s string) (Kind, error) {
	switch s {
	case "hash":
		return KindHash, nil
	case "range":
		return KindRange, nil
	default:
		return 0, fmt.Errorf("shard: unknown partitioner kind %q (want hash or range)", s)
	}
}

// Spec names the partitioning: which relation to split, on which column,
// into how many shards, and by which function.
type Spec struct {
	Relation string
	Column   string
	Shards   int
	Kind     Kind
}

// String renders the spec as "Rel.col/hash:4".
func (s Spec) String() string {
	return fmt.Sprintf("%s.%s/%s:%d", s.Relation, s.Column, s.Kind, s.Shards)
}

// Partitioner routes rows of one base relation to shards and materializes
// shard instances.  It is immutable after construction and safe for
// concurrent use.
type Partitioner struct {
	spec Spec
	col  int
	// bounds are the range kind's shard upper bounds (len Shards-1): shard i
	// owns values v with bounds[i-1] < v <= bounds[i] under engine.Value
	// comparison, the last shard owning everything above the last bound.
	bounds []engine.Value
}

// NewPartitioner validates the spec against the instance and, for range
// partitioning, computes the quantile boundaries from the relation's current
// rows.  Boundaries are deterministic for a given instance, so every process
// that builds a partitioner over the same data routes rows identically.
func NewPartitioner(db *engine.Instance, spec Spec) (*Partitioner, error) {
	if db == nil {
		return nil, fmt.Errorf("shard: nil instance")
	}
	if spec.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", spec.Shards)
	}
	switch spec.Kind {
	case KindHash, KindRange:
	default:
		return nil, fmt.Errorf("shard: unknown partitioner kind %d", spec.Kind)
	}
	rel := db.Relation(spec.Relation)
	if rel == nil {
		return nil, fmt.Errorf("shard: instance %s has no relation %q", db.Name, spec.Relation)
	}
	col := rel.ColumnIndex(spec.Column)
	if col < 0 {
		return nil, fmt.Errorf("shard: relation %s has no column %q", spec.Relation, spec.Column)
	}
	p := &Partitioner{spec: spec, col: col}
	if spec.Kind == KindRange && spec.Shards > 1 {
		vals := make([]engine.Value, len(rel.Rows))
		for i, row := range rel.Rows {
			vals[i] = row[col]
		}
		sort.SliceStable(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
		p.bounds = make([]engine.Value, spec.Shards-1)
		for i := 1; i < spec.Shards; i++ {
			idx := i * len(vals) / spec.Shards
			if idx >= len(vals) {
				idx = len(vals) - 1
			}
			if len(vals) == 0 {
				p.bounds[i-1] = engine.Null()
				continue
			}
			p.bounds[i-1] = vals[idx]
		}
	}
	return p, nil
}

// Spec returns the partitioning spec.
func (p *Partitioner) Spec() Spec { return p.spec }

// Route returns the shard index owning a row of the partitioned relation.
func (p *Partitioner) Route(row engine.Tuple) int {
	return p.RouteValue(row[p.col])
}

// RouteValue returns the shard index owning a partition-column value.
func (p *Partitioner) RouteValue(v engine.Value) int {
	if p.spec.Shards == 1 {
		return 0
	}
	if p.spec.Kind == KindHash {
		return int(v.Hash64() % uint64(p.spec.Shards))
	}
	lo, hi := 0, len(p.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.Compare(p.bounds[mid]) <= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Partition splits the instance into shard instances: the partitioned
// relation's rows are routed to per-shard slices (row order preserved within
// each shard) and every other relation is shared by reference.  Shard i of a
// later Partition call over the same rows is identical to shard i of an
// earlier one.
func (p *Partitioner) Partition(db *engine.Instance) ([]*engine.Instance, error) {
	rel := db.Relation(p.spec.Relation)
	if rel == nil {
		return nil, fmt.Errorf("shard: instance %s has no relation %q", db.Name, p.spec.Relation)
	}
	slices := make([]*engine.Relation, p.spec.Shards)
	for i := range slices {
		slices[i] = engine.NewRelation(rel.Name, rel.Columns)
	}
	for _, row := range rel.Rows {
		s := p.Route(row)
		slices[s].Rows = append(slices[s].Rows, row)
	}
	out := make([]*engine.Instance, p.spec.Shards)
	for i := range out {
		name := fmt.Sprintf("%s/shard-%d-of-%d", db.Name, i, p.spec.Shards)
		out[i] = db.WithRelations(name, map[string]*engine.Relation{rel.Name: slices[i]})
	}
	return out, nil
}

// Slice returns only shard i of the instance — what a multi-node shard
// server keeps after regenerating the full scenario deterministically.
func (p *Partitioner) Slice(db *engine.Instance, i int) (*engine.Instance, error) {
	if i < 0 || i >= p.spec.Shards {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", i, p.spec.Shards)
	}
	shards, err := p.Partition(db)
	if err != nil {
		return nil, err
	}
	return shards[i], nil
}
