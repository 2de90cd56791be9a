package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// Basic evaluates the target query by reformulating it once per mapping and
// executing every resulting source query independently, then aggregating
// duplicate answers (Section III-B, algorithm "basic").
//
// The per-mapping reformulation+execution steps are independent, so they run
// on the runtime's worker pool; answers are still aggregated in mapping order,
// which keeps the result identical to a sequential run at any parallelism.
func Basic(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance) (*Result, error) {
	if err := validateInputs(q, maps, db); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Query: q, Method: MethodBasic, Columns: OutputColumns(q), Stats: engine.NewStats()}
	agg := newAggregator()

	wms := make([]weightedMapping, len(maps))
	for i, m := range maps {
		wms[i] = weightedMapping{mapping: m, prob: m.Prob}
	}
	if err := basicOver(ec, q, wms, db, res, agg); err != nil {
		return nil, fmt.Errorf("basic: %w", err)
	}

	agg.finalize(res)
	res.TotalTime = time.Since(start)
	return res, nil
}

// weightedMapping pairs a representative mapping with the total probability of
// the partition it represents.
type weightedMapping struct {
	mapping *schema.Mapping
	prob    float64
}

// mappingRun is the outcome of reformulating and executing the source query of
// one mapping on a worker: the answer relation (nil when the mapping cannot
// answer the query), the worker's private statistics and phase timings.
type mappingRun struct {
	rel     *engine.Relation
	stats   *engine.Stats
	rewrite time.Duration
	exec    time.Duration
}

// runMapping reformulates the target query through the mapping, optimizes the
// plan and executes it.  A mapping that does not cover the query returns a run
// with a nil relation rather than an error, so callers can assign its
// probability mass to the empty answer.  batch carries the runtime's engine
// tuning (exec.Context.Batch) into the executor.
func runMapping(ctx context.Context, q *query.Query, m *schema.Mapping, db *engine.Instance, batch int) (*mappingRun, error) {
	run := &mappingRun{stats: engine.NewStats()}
	rewriteStart := time.Now()
	plan, err := query.NewReformulator(q).Reformulate(m)
	if err != nil {
		run.rewrite = time.Since(rewriteStart)
		if errors.Is(err, query.ErrNotCovered) {
			return run, nil
		}
		return nil, fmt.Errorf("reformulating through %s: %w", m.ID, err)
	}
	plan = engine.Optimize(plan)
	run.rewrite = time.Since(rewriteStart)

	execStart := time.Now()
	ex := &engine.Executor{DB: db, Stats: run.stats, Indexes: db.Indexes(), Batch: batch}
	rel, err := ex.ExecuteContext(ctx, plan)
	run.exec = time.Since(execStart)
	if err != nil {
		return nil, fmt.Errorf("executing source query for %s: %w", m.ID, err)
	}
	run.rel = rel
	return run, nil
}

// basicOver runs the basic algorithm over an explicit (mapping, probability)
// list on the runtime's worker pool; q-sharing reuses it with representative
// mappings whose probabilities are the partition totals.  Results are consumed
// in mapping order, so the aggregated probabilities are bit-identical at any
// parallelism level.
func basicOver(ec *exec.Context, q *query.Query, reps []weightedMapping, db *engine.Instance, res *Result, agg *aggregator) error {
	return exec.Map(ec, len(reps),
		func(ctx context.Context, i int) (*mappingRun, error) {
			return runMapping(ctx, q, reps[i].mapping, db, ec.Batch())
		},
		func(i int, run *mappingRun) error {
			res.RewriteTime += run.rewrite
			res.ExecTime += run.exec
			res.Stats.Add(run.stats)
			if run.rel == nil {
				// The mapping cannot answer the query: its probability mass
				// goes to the empty answer.
				agg.addEmpty(reps[i].prob)
				return nil
			}
			res.RewrittenQueries++
			res.ExecutedQueries++
			aggStart := time.Now()
			agg.addRelation(run.rel, reps[i].prob)
			res.AggregateTime += time.Since(aggStart)
			return nil
		})
}

// rewriteAll reformulates the target query through every mapping on the worker
// pool and returns the optimized plans in mapping order.  A nil plan marks a
// mapping that does not cover the query.
func rewriteAll(ec *exec.Context, q *query.Query, maps schema.MappingSet, label string) ([]engine.Plan, error) {
	plans := make([]engine.Plan, len(maps))
	err := exec.Map(ec, len(maps),
		func(ctx context.Context, i int) (engine.Plan, error) {
			plan, err := query.NewReformulator(q).Reformulate(maps[i])
			if err != nil {
				if errors.Is(err, query.ErrNotCovered) {
					return nil, nil
				}
				return nil, fmt.Errorf("%s: reformulating through %s: %w", label, maps[i].ID, err)
			}
			return engine.Optimize(plan), nil
		},
		func(i int, plan engine.Plan) error {
			plans[i] = plan
			return nil
		})
	if err != nil {
		return nil, err
	}
	return plans, nil
}

// planCluster groups mappings whose source queries are identical.
type planCluster struct {
	plan engine.Plan
	prob float64
}

// clusterPlans buckets per-mapping plans by signature, summing the mapping
// probabilities.  Cluster order is the first-seen mapping order.  It also
// returns the total probability mass of non-covering mappings (nil plans) —
// destined for the empty answer — and the number of covering mappings (the
// RewrittenQueries count).  Pure bookkeeping with no side effects, so the
// prepared-query path can run it once and replay the outputs per execution.
func clusterPlans(plans []engine.Plan, maps schema.MappingSet) (clusters map[string]*planCluster, order []string, emptyProb float64, rewritten int) {
	clusters = make(map[string]*planCluster)
	for i, plan := range plans {
		if plan == nil {
			emptyProb += maps[i].Prob
			continue
		}
		rewritten++
		sig := plan.Signature()
		c, ok := clusters[sig]
		if !ok {
			c = &planCluster{plan: plan}
			clusters[sig] = c
			order = append(order, sig)
		}
		c.prob += maps[i].Prob
	}
	return clusters, order, emptyProb, rewritten
}

// executeClusters executes each distinct source plan once on the worker pool
// and aggregates its answers under the cluster's total probability, in cluster
// order (e-basic's phase 2, shared by the prepared re-execution path).
func executeClusters(ec *exec.Context, db *engine.Instance, clusters map[string]*planCluster, order []string, label string, res *Result, agg *aggregator) error {
	return exec.Map(ec, len(order),
		func(ctx context.Context, i int) (*mappingRun, error) {
			run := &mappingRun{stats: engine.NewStats()}
			execStart := time.Now()
			ex := &engine.Executor{DB: db, Stats: run.stats, Indexes: db.Indexes(), Batch: ec.Batch()}
			rel, err := ex.ExecuteContext(ctx, clusters[order[i]].plan)
			run.exec = time.Since(execStart)
			if err != nil {
				return nil, fmt.Errorf("%s: executing source query: %w", label, err)
			}
			run.rel = rel
			return run, nil
		},
		func(i int, run *mappingRun) error {
			res.ExecTime += run.exec
			res.Stats.Add(run.stats)
			res.ExecutedQueries++
			aggStart := time.Now()
			agg.addRelation(run.rel, clusters[order[i]].prob)
			res.AggregateTime += time.Since(aggStart)
			return nil
		})
}

// EBasic clusters the mappings' source queries by signature so that each
// distinct source query is executed only once, with the summed probability of
// the mappings that produce it (Section III-B, algorithm "e-basic").  Unlike
// q-sharing it still pays the rewriting cost for every mapping.
//
// Both phases use the runtime's worker pool: the per-mapping rewrites are
// independent, and so are the distinct source queries.  Clustering and
// aggregation happen in mapping/cluster order, keeping results identical at
// any parallelism.
func EBasic(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance) (*Result, error) {
	if err := validateInputs(q, maps, db); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Query: q, Method: MethodEBasic, Columns: OutputColumns(q), Stats: engine.NewStats()}
	agg := newAggregator()

	// Phase 1: rewrite every mapping and cluster by source-query signature.
	rewriteStart := time.Now()
	plans, err := rewriteAll(ec, q, maps, "e-basic")
	if err != nil {
		return nil, err
	}
	clusters, order, emptyProb, rewritten := clusterPlans(plans, maps)
	agg.addEmpty(emptyProb)
	res.RewrittenQueries = rewritten
	res.RewriteTime = time.Since(rewriteStart)
	res.Partitions = len(order)

	// Phase 2: execute each distinct source query once.
	if err := executeClusters(ec, db, clusters, order, "e-basic", res, agg); err != nil {
		return nil, err
	}

	agg.finalize(res)
	res.TotalTime = time.Since(start)
	return res, nil
}
