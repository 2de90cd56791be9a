package core

import (
	"sort"

	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// noCorrespondence is the edge label used when a mapping has no correspondence
// for a target attribute.  The paper assumes every mapping covers the query;
// this label extends the partition tree gracefully to partial mappings, which
// then share the "cannot answer" partition for that attribute.
const noCorrespondence = "<none>"

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
	// Key is the sequence of source-attribute labels along the partition
	// tree path that leads to this partition's bucket.
	Key string
}

// PartitionTree is the index of Section IV-A: a tree with one level per target
// attribute of the query, whose edges are labelled with source attributes and
// whose leaves are buckets of mappings that agree on every level.
type PartitionTree struct {
	attrs []schema.Attribute
	root  *ptNode
	// buckets holds the leaves in insertion order.
	buckets []*ptBucket
}

type ptNode struct {
	// children maps the source-attribute edge label to the next level.
	children map[string]*ptNode
	// order keeps deterministic child ordering.
	order []string
	// bucket is non-nil for leaves.
	bucket *ptBucket
}

type ptBucket struct {
	key      string
	mappings schema.MappingSet
}

// NewPartitionTree builds an empty partition tree for the given target
// attributes (the attributes referenced by the target query, one tree level
// per attribute).
func NewPartitionTree(attrs []schema.Attribute) *PartitionTree {
	return &PartitionTree{attrs: attrs, root: &ptNode{children: make(map[string]*ptNode)}}
}

// Insert places the mapping into the bucket identified by its correspondences
// for the tree's attributes, creating nodes and edges on demand (the recursive
// put routine of Algorithm 3).
func (t *PartitionTree) Insert(m *schema.Mapping) {
	t.put(m, t.root, 0, "")
}

func (t *PartitionTree) put(m *schema.Mapping, n *ptNode, level int, key string) {
	if level == len(t.attrs) {
		if n.bucket == nil {
			n.bucket = &ptBucket{key: key}
			t.buckets = append(t.buckets, n.bucket)
		}
		n.bucket.mappings = append(n.bucket.mappings, m)
		return
	}
	attr := t.attrs[level]
	label := noCorrespondence
	if src, ok := m.SourceFor(attr); ok {
		label = src.String()
	}
	child, ok := n.children[label]
	if !ok {
		child = &ptNode{children: make(map[string]*ptNode)}
		n.children[label] = child
		n.order = append(n.order, label)
	}
	nextKey := key
	if nextKey != "" {
		nextKey += "|"
	}
	nextKey += label
	t.put(m, child, level+1, nextKey)
}

// Partitions returns the tree's buckets as partitions with representatives and
// summed probabilities, in insertion order.
func (t *PartitionTree) Partitions() []*Partition {
	out := make([]*Partition, 0, len(t.buckets))
	for _, b := range t.buckets {
		p := &Partition{Mappings: b.mappings, Key: b.key}
		for _, m := range b.mappings {
			p.Prob += m.Prob
		}
		if len(b.mappings) > 0 {
			p.Representative = b.mappings[0]
		}
		out = append(out, p)
	}
	return out
}

// NumPartitions returns the number of buckets currently in the tree.
func (t *PartitionTree) NumPartitions() int { return len(t.buckets) }

// Depth returns the number of attribute levels of the tree.
func (t *PartitionTree) Depth() int { return len(t.attrs) }

// PartitionMappings partitions a mapping set with respect to a target query:
// mappings in the same partition produce the same source query for that query
// (the partition routine of Algorithm 1/3).  Partitions are returned in
// first-seen order of their representative mapping.  The tree has one level
// per target attribute the resolved query references.
func PartitionMappings(res *query.Resolution, maps schema.MappingSet) []*Partition {
	return PartitionByAttributes(res.Attributes(), maps)
}

// PartitionByAttributes partitions the mapping set by the source attributes
// assigned to the given target attributes only.  o-sharing uses it to compute
// per-operator partitions (the mappings that translate one target operator to
// the same source operator).
func PartitionByAttributes(attrs []schema.Attribute, maps schema.MappingSet) []*Partition {
	tree := NewPartitionTree(attrs)
	for _, m := range maps {
		tree.Insert(m)
	}
	return tree.Partitions()
}

// Represent extracts the representative mappings from the partitions (the
// represent routine of Algorithm 1): one clone per partition whose probability
// is the partition's total probability, in partition order.
func Represent(parts []*Partition) schema.MappingSet {
	out := make(schema.MappingSet, 0, len(parts))
	for _, p := range parts {
		if p.Representative == nil {
			continue
		}
		rep := p.Representative.Clone()
		rep.Prob = p.Prob
		out = append(out, rep)
	}
	return out
}

// partitionSizes returns the partition sizes sorted descending; used by the
// SEF entropy computation and by tests.
func partitionSizes(parts []*Partition) []int {
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		sizes = append(sizes, len(p.Mappings))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
