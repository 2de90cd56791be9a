package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// mappingGroups is the group list of basic (Section III-B) — and, over
// representative mappings, of q-sharing, whose Algorithm 1 is basic run over
// the representatives: the target query reformulated through every mapping and
// optimized, one group per mapping in mapping order carrying the mapping's
// probability.  A mapping that does not cover the query yields a group with a
// nil plan, whose mass goes to the empty answer when its turn comes.
//
// One reformulator, reading the query's resolution, serves every mapping.  The
// reformulations are independent, so they run on the runtime's worker pool;
// the groups are filled in mapping order whatever the parallelism.
func mappingGroups(ec *exec.Context, m Method, res *query.Resolution, maps schema.MappingSet) (*ScatterPlan, error) {
	sp := &ScatterPlan{Method: m, Groups: make([]ScatterGroup, len(maps))}
	ref := query.NewReformulator(res)
	err := exec.Map(ec, len(maps),
		func(ctx context.Context, i int) (engine.Plan, error) {
			plan, err := ref.Reformulate(maps[i])
			if err != nil {
				if errors.Is(err, query.ErrNotCovered) {
					return nil, nil
				}
				return nil, fmt.Errorf("%s: reformulating through %s: %w", m, maps[i].ID, err)
			}
			return engine.Optimize(plan), nil
		},
		func(i int, plan engine.Plan) error {
			sp.Groups[i] = ScatterGroup{Prob: maps[i].Prob, Plan: plan}
			if plan != nil {
				sp.Rewritten++
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// clusterGroups is the group list of e-basic (Section III-B), derived from
// basic's: mappings whose source queries are identical — equal plan
// signatures — share one group carrying their summed probability, in
// first-seen mapping order, so each distinct source query is executed once.
// The mass of the mappings that do not cover the query is known before
// anything runs and becomes the plan's PreEmptyProb.  Unlike q-sharing,
// e-basic still pays the rewriting cost for every mapping.
func clusterGroups(basic *ScatterPlan) *ScatterPlan {
	sp := &ScatterPlan{Method: MethodEBasic, Rewritten: basic.Rewritten}
	index := make(map[string]int)
	for _, g := range basic.Groups {
		if g.Plan == nil {
			sp.PreEmptyProb += g.Prob
			continue
		}
		sig := g.Plan.Signature()
		i, ok := index[sig]
		if !ok {
			i = len(sp.Groups)
			index[sig] = i
			sp.Groups = append(sp.Groups, ScatterGroup{Plan: g.Plan})
		}
		sp.Groups[i].Prob += g.Prob
	}
	sp.Partitions = len(sp.Groups)
	return sp
}
