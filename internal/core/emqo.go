package core

import (
	"fmt"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/mqo"
)

// globalGroups is the group list of e-MQO (Section III-B), derived from
// e-basic's: the same distinct source queries with the same probabilities, in
// the order a multiple-query optimisation pass puts them (most-shared first),
// together with the global plan in which every common subexpression is
// executed exactly once.  The runner executes the group plans like any other
// method's, with one cache of the global plan between their executors.
//
// The optimisation pass minimises the number of executed source operators, but
// constructing the global plan is expensive and grows super-linearly with the
// number of distinct source queries — the behaviour the paper reports in
// Figure 10(c), where e-MQO eventually becomes slower than basic.  When no
// mapping covers the query there is nothing to optimise: no groups, no global
// plan, all mass already in PreEmptyProb.
func globalGroups(ebasic *ScatterPlan) (*ScatterPlan, error) {
	sp := &ScatterPlan{
		Method:       MethodEMQO,
		PreEmptyProb: ebasic.PreEmptyProb,
		Rewritten:    ebasic.Rewritten,
		Partitions:   ebasic.Partitions,
	}
	if len(ebasic.Groups) == 0 {
		return sp, nil
	}
	plans := make([]engine.Plan, len(ebasic.Groups))
	probs := make(map[string]float64, len(ebasic.Groups))
	for i, g := range ebasic.Groups {
		plans[i] = g.Plan
		probs[g.Plan.Signature()] = g.Prob
	}
	global, err := mqo.Optimize(plans)
	if err != nil {
		return nil, fmt.Errorf("e-MQO: %w", err)
	}
	sp.Global = global
	sp.Groups = make([]ScatterGroup, len(global.Queries))
	for i, q := range global.Queries {
		sp.Groups[i] = ScatterGroup{Prob: probs[q.Signature()], Plan: q}
	}
	return sp, nil
}
