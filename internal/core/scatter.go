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

// GroupRows is one scatter group's answer on one instance, as the set the
// by-table semantics make it: an answer's probability sums the masses of the
// groups that produce it — presence per group, never multiplicity — so only
// the distinct tuples matter.  Rows holds them in first-seen order; seen
// answers membership when later rows are folded in.  The zero value is an
// empty set.
type GroupRows struct {
	seen *engine.TupleSet
	Rows []engine.Tuple
}

// extend folds rows into the set, appending each tuple not seen before.  The
// distinct list is built beside rows, never by compacting them: a bare scan,
// a window of input rows or a shared e-MQO materialization hands over rows the
// group does not own.
func (g *GroupRows) extend(rows []engine.Tuple) {
	if g.seen == nil {
		g.seen = engine.NewTupleSet(len(rows))
	}
	firstSeen(g.seen, rows, func(_ uint64, row engine.Tuple) {
		g.Rows = append(g.Rows, row)
	})
}

// ShardRun is the outcome of executing a scatter plan against one shard: the
// per-group distinct answer tuples (index-aligned with Groups, empty for
// non-covering groups) plus the shard's operator statistics and CPU time.
// Rows are deduplicated here, where they are produced, within one group on
// one shard; a tuple the same group produces on several shards is the
// merge's to collapse (GroupMerge.Add).
type ShardRun struct {
	Groups   []GroupRows
	Stats    *engine.Stats
	ExecTime time.Duration
}

// ExecuteOn runs every group of the scatter plan against one instance —
// normally a shard holding one partition of the base relations — and returns
// the per-group distinct answer tuples.  e-MQO plans execute through the MQO
// global plan with a fresh shared-subexpression cache, exactly as the
// unsharded phase 3 does; other methods execute the group plans individually
// on the runtime's worker pool.
func (sp *ScatterPlan) ExecuteOn(ec *exec.Context, db *engine.Instance) (*ShardRun, error) {
	run := &ShardRun{Groups: make([]GroupRows, len(sp.Groups)), Stats: engine.NewStats()}
	if err := sp.executeInto(ec, db, run); err != nil {
		return nil, err
	}
	return run, nil
}

// executeInto is ExecuteOn accumulating into an existing run: each covering
// group's rows extend run.Groups[i], statistics and CPU time add up.  The
// delta passes fold appended rows into the maintained state this way, with
// the same dedup pass the full run used.  On error the run is left partly
// extended and must be discarded.
func (sp *ScatterPlan) executeInto(ec *exec.Context, db *engine.Instance, run *ShardRun) error {
	if sp.Global != nil {
		execStart := time.Now()
		rels, err := sp.Global.ExecuteParallel(ec, db, run.Stats)
		if err != nil {
			return fmt.Errorf("scatter %s: %w", sp.Method, err)
		}
		run.ExecTime += time.Since(execStart)
		for i, rel := range rels {
			run.Groups[i].extend(rel.Rows)
		}
		return nil
	}
	type groupRun struct {
		stats *engine.Stats
		exec  time.Duration
	}
	return exec.Map(ec, len(sp.Groups),
		func(ctx context.Context, i int) (groupRun, error) {
			gr := groupRun{stats: engine.NewStats()}
			if sp.Groups[i].Plan == nil {
				return gr, nil
			}
			execStart := time.Now()
			ex := &engine.Executor{DB: db, Stats: gr.stats, Indexes: db.Indexes(), Batch: ec.Batch()}
			rel, err := ex.ExecuteContext(ctx, sp.Groups[i].Plan)
			gr.exec = time.Since(execStart)
			if err != nil {
				return gr, fmt.Errorf("scatter %s: executing source query: %w", sp.Method, err)
			}
			// Each worker extends only its own group's set.
			run.Groups[i].extend(rel.Rows)
			return gr, nil
		},
		func(i int, gr groupRun) error {
			run.ExecTime += gr.exec
			run.Stats.Add(gr.stats)
			return nil
		})
}

// GroupMerge re-aggregates per-shard answer streams into the canonical answer
// distribution.  It replays exactly the unsharded aggregation: one Add call
// per covering group in group order (rows being the concatenation of that
// group's per-shard rows in shard order), one AddEmpty per non-covering
// group.  A shard deduplicates within a group before it hands rows over
// (GroupRows); Add still collapses duplicates itself — the same per-call
// dedup addRelation performs — because the same tuple arrives from several
// shards when a group reads only replicated relations, and because a remote
// shard's rows are outside input.  The final sort is the canonical
// (probability desc, tuple key asc) total order, so the merged answers are
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
func (m *GroupMerge) Add(prob float64, rows []engine.Tuple) { m.agg.addRows(rows, prob) }

// AddGroup merges scatter group gi given every shard's run in shard order:
// nil-plan groups go to the empty answer, covering groups concatenate their
// per-shard distinct rows into one union.
func (m *GroupMerge) AddGroup(g ScatterGroup, gi int, runs []*ShardRun) {
	if g.Plan == nil {
		m.agg.addEmpty(g.Prob)
		return
	}
	n := 0
	for _, run := range runs {
		n += len(run.Groups[gi].Rows)
	}
	rows := make([]engine.Tuple, 0, n)
	for _, run := range runs {
		rows = append(rows, run.Groups[gi].Rows...)
	}
	m.Add(g.Prob, rows)
}

// Finalize returns the merged answers in canonical order together with the
// empty-answer probability.
func (m *GroupMerge) Finalize() ([]Answer, float64) {
	return m.agg.answers(), m.agg.emptyProb
}
