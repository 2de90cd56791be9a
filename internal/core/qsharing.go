package core

import (
	"math"

	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// representativeGroups is the group list of q-sharing (Algorithm 1): the
// partition tree groups the mappings that reformulate the target query to the
// same source query, working directly on their correspondences for the query's
// target attributes, and one representative per partition — carrying the
// partition's total probability — is reformulated.  Compared with e-basic,
// q-sharing never rewrites one source query per mapping; what it then executes
// is basic over the representatives.
func representativeGroups(ec *exec.Context, res *query.Resolution, maps schema.MappingSet) (*ScatterPlan, error) {
	parts := PartitionMappings(res, maps)
	sp, err := mappingGroups(ec, MethodQSharing, res, Represent(parts))
	if err != nil {
		return nil, err
	}
	sp.Partitions = len(parts)
	return sp, nil
}

// Entropy computes the entropy of a mapping set with respect to a partition of
// it (Definition 1): E = -Σ (|Pj|/|M|) log2(|Pj|/|M|).
func Entropy(parts []*Partition, totalMappings int) float64 {
	if totalMappings == 0 {
		return 0
	}
	e := 0.0
	for _, p := range parts {
		if len(p.Mappings) == 0 {
			continue
		}
		frac := float64(len(p.Mappings)) / float64(totalMappings)
		e -= frac * math.Log2(frac)
	}
	return e
}
