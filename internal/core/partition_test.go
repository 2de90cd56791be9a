package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/match"
	"github.com/probdb/urm/internal/schema"
)

// oraclePartitions groups the mappings by their projected signature over
// attrs, in first-seen order, summing each group's probabilities in member
// order.
func oraclePartitions(attrs []schema.Attribute, maps schema.MappingSet) []*Partition {
	var out []*Partition
	bySig := map[string]*Partition{}
	for _, m := range maps {
		sig := m.ProjectedSignature(attrs)
		p, ok := bySig[sig]
		if !ok {
			p = &Partition{Representative: m}
			bySig[sig] = p
			out = append(out, p)
		}
		p.Mappings = append(p.Mappings, m)
		p.Prob += m.Prob
	}
	return out
}

func samePartitions(t *testing.T, label string, attrs []schema.Attribute, maps schema.MappingSet) {
	t.Helper()
	got, want := PartitionByAttributes(attrs, maps), oraclePartitions(attrs, maps)
	if len(got) != len(want) {
		t.Fatalf("%s: %d partitions, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Representative != w.Representative {
			t.Fatalf("%s: partition %d represented by %s, oracle %s", label, i, g.Representative.ID, w.Representative.ID)
		}
		if len(g.Mappings) != len(w.Mappings) {
			t.Fatalf("%s: partition %d has %d members, oracle %d", label, i, len(g.Mappings), len(w.Mappings))
		}
		for j := range w.Mappings {
			if g.Mappings[j] != w.Mappings[j] {
				t.Fatalf("%s: partition %d member %d is %s, oracle %s", label, i, j, g.Mappings[j].ID, w.Mappings[j].ID)
			}
		}
		if math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
			t.Fatalf("%s: partition %d mass %v, oracle %v", label, i, g.Prob, w.Prob)
		}
	}
}

// randomMappings draws h one-to-one mappings from few target and source
// attributes, so that mappings share sources and partitions, and some target
// attributes go without a correspondence.
func randomMappings(r *rand.Rand, h, targets, sources int) schema.MappingSet {
	maps := make(schema.MappingSet, h)
	for i := range maps {
		var corrs []schema.Correspondence
		perm := r.Perm(sources)
		for t := 0; t < targets && t < sources; t++ {
			if r.Intn(4) == 0 {
				continue
			}
			corrs = append(corrs, schema.Correspondence{
				Source: attr("S", string(rune('a'+perm[t]))),
				Target: attr("T", string(rune('a'+t))),
				Score:  r.Float64(),
			})
		}
		maps[i] = schema.MustNewMapping(fmt.Sprintf("m%d", i+1), corrs, r.Float64()/float64(h))
	}
	return maps
}

// TestPartitionsMatchSignatureOracle checks PartitionByAttributes against
// grouping by ProjectedSignature: the same members in the same order, the
// same representatives and bit-identical masses, on random mapping sets and
// on every workload query's attributes over its own target's mappings.
func TestPartitionsMatchSignatureOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		targets, sources := 1+r.Intn(5), 2+r.Intn(4)
		maps := randomMappings(r, 1+r.Intn(40), targets, sources)
		var attrs []schema.Attribute
		for n := r.Intn(targets + 2); n > 0; n-- {
			// Draws repeat attributes and, past the last target, name
			// one no mapping covers.
			attrs = append(attrs, attr("T", string(rune('a'+r.Intn(targets+1)))))
		}
		samePartitions(t, "random", attrs, maps)
	}
	samePartitions(t, "empty set", []schema.Attribute{attr("T", "a")}, nil)

	mappings := map[datagen.TargetName]schema.MappingSet{}
	for id := 1; id <= datagen.NumWorkloadQueries; id++ {
		q := datagen.MustWorkloadQuery(id)
		tgt, err := datagen.QueryTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		maps, ok := mappings[tgt]
		if !ok {
			if maps, err = match.KBestMappings(datagen.Correspondences(tgt), match.KBestOptions{K: 100}); err != nil {
				t.Fatal(err)
			}
			mappings[tgt] = maps
		}
		res, err := q.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		samePartitions(t, q.Name, res.Attributes(), maps)
		for _, scan := range q.Scans() {
			samePartitions(t, q.Name+"/"+scan.Alias, res.AliasAttributes(scan.Alias), maps)
		}
	}
}
