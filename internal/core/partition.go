package core

import (
	"slices"

	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// Partition is one group of mappings that reformulate the target query to the
// same source query, together with the partition's total probability.
type Partition struct {
	// Mappings are the members of the partition.
	Mappings schema.MappingSet
	// Representative is the mapping chosen to rewrite the shared source query
	// (the represent routine of Algorithm 1).
	Representative *schema.Mapping
	// Prob is the sum of the members' probabilities.
	Prob float64
}

// PartitionMappings partitions a mapping set with respect to a target query:
// mappings in the same partition produce the same source query for that query
// (the partition routine of Algorithm 1/3), grouped by the source attribute
// each assigns to every target attribute the resolved query references.
func PartitionMappings(res *query.Resolution, maps schema.MappingSet) []*Partition {
	return PartitionByAttributes(res.Attributes(), maps)
}

// PartitionByAttributes partitions the mapping set by the source attributes
// assigned to the given target attributes only: two mappings share a
// partition when SourceFor agrees on every attribute, a missing
// correspondence included.  Partitions come in the order their first member
// appears in maps, members in maps order.  o-sharing uses it to compute
// per-operator partitions (the mappings that translate one target operator to
// the same source operator).
func PartitionByAttributes(attrs []schema.Attribute, maps schema.MappingSet) []*Partition {
	if len(maps) == 0 {
		return []*Partition{}
	}
	type edge struct {
		src schema.Attribute
		ok  bool
	}
	// Split one group of every mapping index attribute by attribute; each
	// group splits in the order its members' sources first appear.
	all := make([]int, len(maps))
	for i := range all {
		all[i] = i
	}
	groups := [][]int{all}
	var edges []edge
	for _, attr := range attrs {
		next := make([][]int, 0, len(groups))
		for _, g := range groups {
			if len(g) == 1 {
				next = append(next, g)
				continue
			}
			first := len(next)
			edges = edges[:0]
			for _, i := range g {
				src, ok := maps[i].SourceFor(attr)
				k := slices.Index(edges, edge{src, ok})
				if k < 0 {
					k = len(edges)
					edges = append(edges, edge{src, ok})
					next = append(next, nil)
				}
				next[first+k] = append(next[first+k], i)
			}
		}
		groups = next
	}
	// Splitting lists the groups level by level; a partition's place is its
	// first member's.
	slices.SortFunc(groups, func(a, b []int) int { return a[0] - b[0] })
	out := make([]*Partition, len(groups))
	for gi, g := range groups {
		p := &Partition{Mappings: make(schema.MappingSet, len(g)), Representative: maps[g[0]]}
		for j, i := range g {
			p.Mappings[j] = maps[i]
			p.Prob += maps[i].Prob
		}
		out[gi] = p
	}
	return out
}

// Represent extracts the representative mappings from the partitions (the
// represent routine of Algorithm 1): one copy per partition whose probability
// is the partition's total probability, in partition order.  A copy shares
// its representative's correspondences, which nothing writes.
func Represent(parts []*Partition) schema.MappingSet {
	out := make(schema.MappingSet, 0, len(parts))
	for _, p := range parts {
		if p.Representative == nil {
			continue
		}
		rep := *p.Representative
		rep.Prob = p.Prob
		out = append(out, &rep)
	}
	return out
}
