// Package mqo is the multiple-query-optimisation substrate used by the e-MQO
// baseline (Section III-B).  Given the distinct source-query plans produced by
// the possible mappings, it searches for a global execution plan that executes
// every common subexpression only once, in the spirit of Zhou et al.
// (SIGMOD 2007), which the paper uses as its MQO implementation.
//
// The paper's experiments show two properties of e-MQO that this substrate
// reproduces: the merged plan executes the minimal number of source operators,
// and constructing the plan is expensive — its cost grows super-linearly with
// the number of distinct source queries, which is why e-MQO scales poorly with
// the mapping-set size (Figure 10(c)).
package mqo

import (
	"fmt"

	"github.com/probdb/urm/internal/engine"
)

// Plan is the optimised global plan: the original query plans annotated with
// the sharing structure discovered by the optimiser.
type Plan struct {
	// Queries are the input plans in execution order (most-shared first).
	Queries []engine.Plan
	// PlanningSteps counts the pairwise comparisons performed during plan
	// search; it grows roughly cubically with the number of queries.
	PlanningSteps int

	// live is, per subexpression signature, the union of the columns the
	// queries read from it — what its one shared materialization has to
	// carry — whether more than one consumer reads it at all, and whether
	// all of them read it as a set, as the group runner's ExecuteSet reads
	// every query.  It depends on the plans alone, so Optimize computes it
	// once and every execution reuses it.
	live *engine.LiveColumns
}

// Optimize builds a shared global plan for the given source-query plans.
//
// The search works in two phases.  Phase 1 indexes every subexpression of
// every plan by canonical signature.  Phase 2 performs a greedy bottom-up
// merge: starting from singleton groups (one per query), it repeatedly scores
// every pair of groups by the operator savings obtained from merging them and
// merges the best pair, until one group remains.  Scoring every pair at every
// step is what makes global plan construction expensive (Θ(Q³) pair scorings
// for Q queries), mirroring the behaviour the paper reports for e-MQO.
func Optimize(plans []engine.Plan) (*Plan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("mqo: no plans to optimise")
	}
	res := &Plan{}

	// Phase 1: per-plan subexpression signature sets.
	sigSets := make([]map[string]int, len(plans)) // signature -> operator count of that subtree
	for i, p := range plans {
		if p == nil {
			return nil, fmt.Errorf("mqo: nil plan at index %d", i)
		}
		set := make(map[string]int)
		collectSubexpressions(p, set)
		sigSets[i] = set
	}

	// Phase 2: greedy group merging.  groups[i] holds the union of signatures
	// of its member queries; merging two groups saves the operators of the
	// signatures they have in common.
	type group struct {
		members []int
		sigs    map[string]int
	}
	groups := make([]*group, len(plans))
	for i := range plans {
		sigs := make(map[string]int, len(sigSets[i]))
		for s, o := range sigSets[i] {
			sigs[s] = o
		}
		groups[i] = &group{members: []int{i}, sigs: sigs}
	}
	overlapSavings := func(a, b *group) int {
		saving := 0
		small, large := a, b
		if len(small.sigs) > len(large.sigs) {
			small, large = large, small
		}
		for s, ops := range small.sigs {
			if _, ok := large.sigs[s]; ok {
				saving += ops
			}
		}
		return saving
	}
	for len(groups) > 1 {
		bestI, bestJ, bestSaving := 0, 1, -1
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				res.PlanningSteps++
				s := overlapSavings(groups[i], groups[j])
				if s > bestSaving {
					bestI, bestJ, bestSaving = i, j, s
				}
			}
		}
		// Merge bestJ into bestI.
		gi, gj := groups[bestI], groups[bestJ]
		gi.members = append(gi.members, gj.members...)
		for s, o := range gj.sigs {
			gi.sigs[s] = o
		}
		groups = append(groups[:bestJ], groups[bestJ+1:]...)
	}

	// Execution order: the merge order determined above (members of the final
	// group, most-shared queries first by construction of the greedy merge).
	finalOrder := groups[0].members
	res.Queries = make([]engine.Plan, 0, len(plans))
	for _, idx := range finalOrder {
		res.Queries = append(res.Queries, plans[idx])
	}
	res.live = engine.AnalyzeSetLiveColumns(res.Queries)
	return res, nil
}

// NewCache returns the shared-subexpression cache for one execution of the
// plan's queries: executors that carry it compute each subexpression with more
// than one consumer once, however the queries are scheduled.  They must run the
// queries through ExecuteSet, as the analysis behind the cache assumes.  A nil
// plan — any method but e-MQO — has none.
func (p *Plan) NewCache() *engine.PlanCache {
	if p == nil {
		return nil
	}
	return p.live.NewPlanCache()
}

// collectSubexpressions records the signature of every subtree of the plan,
// mapping it to the number of operator nodes in that subtree.
func collectSubexpressions(p engine.Plan, out map[string]int) {
	if p == nil {
		return
	}
	out[p.Signature()] = engine.CountOperators(p)
	for _, c := range p.Children() {
		collectSubexpressions(c, out)
	}
}
