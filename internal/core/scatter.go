package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/mqo"
)

// ErrNotShardable marks a (query, method) pair whose evaluation cannot be
// distributed over disjoint partitions of the base relations.  o-sharing and
// top-k always return it: their u-trace traversal interleaves operator-level
// work across mappings with data-dependent early termination, so there is no
// per-group relation stream to union across shards.  Callers fall back to
// unsharded evaluation (in-process) or report the query as not shardable
// (coordinator mode).
var ErrNotShardable = errors.New("core: method not shardable")

// ScatterGroup is one unit of scatter work: a source plan together with the
// probability mass its answers carry.  A nil Plan marks a group whose
// mappings do not cover the query — its mass goes to the empty answer exactly
// once, on the merge side, never per shard.
type ScatterGroup struct {
	Prob float64
	Plan engine.Plan
}

// ScatterPlan is a prepared query's front half reshaped for scatter-gather
// evaluation: an ordered list of groups whose per-shard answer relations are
// unioned and re-aggregated group by group.  The group order is exactly the
// aggregation order of the corresponding unsharded method — mapping order for
// basic, first-seen cluster order for e-basic, the MQO global plan's query
// order for e-MQO, representative order for q-sharing — so the merged
// probabilities accumulate in the same float-addition sequence and answers
// stay bit-identical to unsharded evaluation.
type ScatterPlan struct {
	// Method is the evaluation method the plan was built for.
	Method Method
	// PreEmptyProb is probability mass added to the empty answer before any
	// group is merged (e-basic/e-MQO account non-covering mappings up front).
	PreEmptyProb float64
	// Groups are the scatter units in aggregation order.
	Groups []ScatterGroup
	// Global is the e-MQO global plan; when non-nil, ExecuteOn runs it once
	// per shard (with a fresh shared-subexpression cache) instead of the
	// group plans individually.  Groups are aligned with Global.Queries.
	Global *mqo.Plan
	// Rewritten and Partitions carry the front half's bookkeeping into the
	// merged Result.
	Rewritten  int
	Partitions int
}

// Scatter builds the scatter form of the prepared query's front half for the
// options' method.  MethodOSharing and MethodTopK return ErrNotShardable.
func (p *Prepared) Scatter(ec *exec.Context, opts Options) (*ScatterPlan, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ec.Err(); err != nil {
		return nil, err
	}
	switch opts.Method {
	case MethodBasic:
		plans, err := p.basicPlans(ec)
		if err != nil {
			return nil, fmt.Errorf("basic: %w", err)
		}
		sp := &ScatterPlan{Method: MethodBasic, Groups: make([]ScatterGroup, len(plans))}
		for i, plan := range plans {
			sp.Groups[i] = ScatterGroup{Prob: p.maps[i].Prob, Plan: plan}
			if plan != nil {
				sp.Rewritten++
			}
		}
		return sp, nil
	case MethodEBasic:
		cp, err := p.ebasicPrep(ec)
		if err != nil {
			return nil, err
		}
		sp := &ScatterPlan{
			Method:       MethodEBasic,
			PreEmptyProb: cp.emptyProb,
			Groups:       make([]ScatterGroup, 0, len(cp.order)),
			Rewritten:    cp.rewritten,
			Partitions:   len(cp.order),
		}
		for _, sig := range cp.order {
			c := cp.clusters[sig]
			sp.Groups = append(sp.Groups, ScatterGroup{Prob: c.prob, Plan: c.plan})
		}
		return sp, nil
	case MethodEMQO:
		ep, err := p.emqoPrep(ec)
		if err != nil {
			return nil, err
		}
		sp := &ScatterPlan{
			Method:       MethodEMQO,
			PreEmptyProb: ep.emptyProb,
			Global:       ep.global,
			Rewritten:    ep.rewritten,
			Partitions:   len(ep.order),
		}
		if ep.global != nil {
			sp.Groups = make([]ScatterGroup, len(ep.global.Queries))
			for i, q := range ep.global.Queries {
				sp.Groups[i] = ScatterGroup{Prob: ep.probs[q.Signature()], Plan: q}
			}
		}
		return sp, nil
	case MethodQSharing:
		qp, err := p.qsharingFront(ec)
		if err != nil {
			return nil, err
		}
		sp := &ScatterPlan{
			Method:     MethodQSharing,
			Groups:     make([]ScatterGroup, len(qp.plans)),
			Partitions: qp.partitions,
		}
		for i, plan := range qp.plans {
			sp.Groups[i] = ScatterGroup{Prob: qp.reps[i].prob, Plan: plan}
			if plan != nil {
				sp.Rewritten++
			}
		}
		return sp, nil
	case MethodOSharing, MethodTopK:
		return nil, fmt.Errorf("%w: %s", ErrNotShardable, opts.Method)
	default:
		return nil, fmt.Errorf("scatter: unknown method %v", opts.Method)
	}
}

// ShardRun is the outcome of executing a scatter plan against one shard:
// the per-group answer relations (index-aligned with Groups, nil for
// non-covering groups) plus the shard's operator statistics and CPU time.
type ShardRun struct {
	Rels     []*engine.Relation
	Stats    *engine.Stats
	ExecTime time.Duration
}

// ExecuteOn runs every group of the scatter plan against one instance —
// normally a shard holding one partition of the base relations — and returns
// the per-group answer relations.  e-MQO plans execute through the MQO global
// plan with a fresh shared-subexpression cache, exactly as the unsharded
// phase 3 does; other methods execute the group plans individually on the
// runtime's worker pool.
func (sp *ScatterPlan) ExecuteOn(ec *exec.Context, db *engine.Instance) (*ShardRun, error) {
	run := &ShardRun{Rels: make([]*engine.Relation, len(sp.Groups)), Stats: engine.NewStats()}
	if sp.Global != nil {
		execStart := time.Now()
		rels, err := sp.Global.ExecuteParallel(ec, db, run.Stats)
		if err != nil {
			return nil, fmt.Errorf("scatter %s: %w", sp.Method, err)
		}
		run.ExecTime = time.Since(execStart)
		copy(run.Rels, rels)
		return run, nil
	}
	err := exec.Map(ec, len(sp.Groups),
		func(ctx context.Context, i int) (*mappingRun, error) {
			mr := &mappingRun{stats: engine.NewStats()}
			if sp.Groups[i].Plan == nil {
				return mr, nil
			}
			execStart := time.Now()
			ex := &engine.Executor{DB: db, Stats: mr.stats, Indexes: db.Indexes(), Batch: ec.Batch()}
			rel, err := ex.ExecuteContext(ctx, sp.Groups[i].Plan)
			mr.exec = time.Since(execStart)
			if err != nil {
				return nil, fmt.Errorf("scatter %s: executing source query: %w", sp.Method, err)
			}
			mr.rel = rel
			return mr, nil
		},
		func(i int, mr *mappingRun) error {
			run.ExecTime += mr.exec
			run.Stats.Add(mr.stats)
			run.Rels[i] = mr.rel
			return nil
		})
	if err != nil {
		return nil, err
	}
	return run, nil
}

// GroupMerge re-aggregates per-shard answer streams into the canonical answer
// distribution.  It replays exactly the unsharded aggregation: one Add call
// per covering group in group order (rows being the concatenation of that
// group's per-shard relations in shard order), one AddEmpty per non-covering
// group.  Because Add collapses duplicate rows before accumulating — the same
// per-call dedup addRelation performs — and the final sort is the canonical
// (probability desc, tuple key asc) total order, the merged answers are
// bit-identical to evaluating the unpartitioned instance: each distinct tuple
// receives `prob` exactly once per group that produced it, in the same
// float-addition sequence.
type GroupMerge struct {
	agg *aggregator
}

// NewGroupMerge starts a merge with the scatter plan's pre-group empty-answer
// mass (0 for methods that account non-covering mappings per group).
func NewGroupMerge(preEmptyProb float64) *GroupMerge {
	m := &GroupMerge{agg: newAggregator()}
	m.agg.addEmpty(preEmptyProb)
	return m
}

// AddEmpty assigns one group's probability mass to the empty answer.
func (m *GroupMerge) AddEmpty(prob float64) { m.agg.addEmpty(prob) }

// Add merges one group's unioned rows under the group's probability.  Rows
// are deduplicated within the call; an empty union sends the mass to the
// empty answer, as addRelation does for an empty relation.
func (m *GroupMerge) Add(prob float64, rows []engine.Tuple) {
	seen := engine.NewTupleSet(len(rows))
	for _, row := range rows {
		h := row.Hash64()
		if !seen.AddHashed(h, row) {
			continue
		}
		m.agg.addHashed(h, row, prob)
	}
	if len(rows) == 0 {
		m.agg.addEmpty(prob)
	}
}

// AddGroup merges one scatter group given its per-shard relations in shard
// order: nil-plan groups go to the empty answer, covering groups concatenate
// their shard relations into one union.  A nil relation (a shard that
// produced nothing for the group) contributes no rows.
func (m *GroupMerge) AddGroup(g ScatterGroup, rels []*engine.Relation) {
	if g.Plan == nil {
		m.agg.addEmpty(g.Prob)
		return
	}
	n := 0
	for _, rel := range rels {
		if rel != nil {
			n += len(rel.Rows)
		}
	}
	rows := make([]engine.Tuple, 0, n)
	for _, rel := range rels {
		if rel != nil {
			rows = append(rows, rel.Rows...)
		}
	}
	m.Add(g.Prob, rows)
}

// Finalize returns the merged answers in canonical order together with the
// empty-answer probability.
func (m *GroupMerge) Finalize() ([]Answer, float64) {
	return m.agg.answers(), m.agg.emptyProb
}
