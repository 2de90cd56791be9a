package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/mqo"
	"github.com/probdb/urm/internal/query"
)

// ErrNotShardable marks a (query, method) pair whose evaluation cannot be
// distributed over disjoint partitions of the base relations.  o-sharing
// always returns it: its front half is a u-trace with no group plans, so there
// is nothing for a shard to run.  Callers fall back to unsharded evaluation
// (in-process) or report the query as not shardable (coordinator mode).
var ErrNotShardable = errors.New("core: method not shardable")

// ScatterGroup is one group of a method's group list: a source plan together
// with the probability mass its answers carry.  A nil Plan marks a group whose
// mappings do not cover the query — its mass goes to the empty answer exactly
// once, where the group's turn comes in the aggregation, never per shard.
type ScatterGroup struct {
	Prob float64
	Plan engine.Plan
}

// ScatterPlan is one of the four plan methods, as the paper defines them:
// basic, e-basic, e-MQO (Section III-B) and q-sharing (Algorithm 1) are one
// computation over four partitions of the mapping set — run one source query
// per group, add the group's probability to each distinct answer it returns,
// in group order.  The group list is the method's whole front half; a Prepared
// builds it once per method and every execution, sharded or not, runs it
// through the one runner (executeInto) and turns the runs into a Result
// through the one function (newResult).  The group order is the aggregation
// order — mapping order for basic, first-seen cluster order for e-basic, the
// MQO global plan's query order for e-MQO, representative order for q-sharing
// — so probabilities accumulate in one float-addition sequence however the
// runs are made, and answers stay bit-identical across them.
//
// A ScatterPlan is immutable once its Prepared has memoized it: executions on
// any number of goroutines share it, and a caller that needs a variant
// (ApplyDelta's per-pass plans) copies Groups.  Memoizing it is also when its
// shape is decided, once (planShape).
//
// o-sharing's front half is a ScatterPlan too, run by the same runner into the
// same consumers: it has no groups and no shape, and the runner walks its
// planned u-trace instead, whose nodes are the group indices rows are handed
// over under.  FrontHalf refuses it, so no shard or delta pass sees one.
type ScatterPlan struct {
	// Method is the evaluation method the plan is.
	Method Method
	// PreEmptyProb is probability mass added to the empty answer before any
	// group is aggregated (e-basic/e-MQO account non-covering mappings up
	// front; basic and q-sharing carry them as nil-plan groups).
	PreEmptyProb float64
	// Groups are the units of work in aggregation order.
	Groups []ScatterGroup
	// Global is the e-MQO global plan; when non-nil, the executors of one run
	// carry one fresh cache of it, so every subexpression the group plans have
	// in common runs once per instance.  Groups are Global.Queries in order.
	Global *mqo.Plan
	// Rewritten is the number of complete source queries the front half
	// rewrote and Partitions the number of mapping partitions it formed; both
	// go into every Result as they are.
	Rewritten  int
	Partitions int

	// shape is the plan's shape, analysed when its Prepared memoized it; nil
	// on a plan built any other way, which distributes over nothing and
	// maintains nothing.
	shape *planShape
	// trace is o-sharing's u-trace; nil on the plan methods.
	trace *uTrace
}

// planShape is what one walk over each covering group plan decides, for a
// shard's scatter and the delta alike.  The paper's answers add probability
// over groups, so a linear plan — one that neither aggregates nor reads a
// materialized input — distributes over any horizontal split of a relation it
// scans at most once: a shard partition R₁ ⊎ … ⊎ Rₙ and an append
// R_old ⊎ ΔR are the same case.
type planShape struct {
	// scans[gi] counts group gi's scans of each base relation; nil for a
	// non-covering group.
	scans []map[string]int
	// linear is false when some covering plan aggregates or reads a
	// materialized input.
	linear bool
	// rels is the sorted union of the scanned relations: the fixed order
	// every delta pass walks, so float accumulation never depends on which
	// relation happened to grow first.
	rels []string
	// unmaintainable says why appends cannot be maintained — the plan is not
	// linear, or a group scans a relation twice (the name-keyed relation
	// replacement cannot express a per-occurrence delta); nil when they can.
	unmaintainable error
}

// analyse decides the plan's shape.  groupList calls it once, as it memoizes
// the plan.
func (sp *ScatterPlan) analyse() {
	sh := &planShape{scans: make([]map[string]int, len(sp.Groups)), linear: true}
	for gi, g := range sp.Groups {
		if g.Plan == nil {
			continue
		}
		scans := make(map[string]int)
		sh.linear = countScans(g.Plan, scans) && sh.linear
		for rel := range scans {
			if !slices.Contains(sh.rels, rel) {
				sh.rels = append(sh.rels, rel)
			}
		}
		sh.scans[gi] = scans
	}
	slices.Sort(sh.rels)
	sp.shape = sh
	if !sh.linear {
		sh.unmaintainable = fmt.Errorf("%w: a group plan aggregates or reads a materialized input", ErrNotDeltaMaintainable)
		return
	}
	for _, rel := range sh.rels {
		if !sp.DistributesOver(rel) {
			sh.unmaintainable = fmt.Errorf("%w: relation %s scanned more than once", ErrNotDeltaMaintainable, rel)
			return
		}
	}
}

// countScans adds the plan's scans of each base relation to counts and
// reports whether the plan is linear.  A materialized input is not: its
// provenance is unknown, so it may embed state from before the split.
func countScans(plan engine.Plan, counts map[string]int) bool {
	switch n := plan.(type) {
	case *engine.AggregatePlan, *engine.MaterialPlan:
		return false
	case *engine.ScanPlan:
		counts[n.Relation]++
		return true
	}
	linear := true
	for _, c := range plan.Children() {
		linear = countScans(c, counts) && linear
	}
	return linear
}

// DistributesOver reports whether the plan distributes over a horizontal
// split of the named relation, i.e. whether
//
//	Q(R1 ⊎ ... ⊎ Rn, S, ...) = Q(R1, S, ...) ∪ ... ∪ Q(Rn, S, ...)
//
// holds group by group as a set equality.  It does when the plan is linear —
// an aggregate of a union is not the union of the parts' aggregates — and no
// group scans the relation more than once: a self-join pairs rows across the
// split, which per-part evaluation never sees.  A plan that does not scan the
// relation distributes: every part returns the same answers and the merge's
// per-group dedup collapses them.
func (sp *ScatterPlan) DistributesOver(relation string) bool {
	if sp.shape == nil || !sp.shape.linear {
		return false
	}
	for _, scans := range sp.shape.scans {
		if scans[relation] > 1 {
			return false
		}
	}
	return true
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

// ShardRun is the outcome of running a group list on one instance — a shard
// holding one partition of the base relations, or the whole instance: the
// operator statistics and CPU time, and, for the consumers that keep sets, the
// per-group distinct answer tuples (index-aligned with Groups, empty for
// non-covering groups).  Rows are deduplicated where they are produced, within
// one group on one instance; a tuple the same group produces on several shards
// is the merge's to collapse.
type ShardRun struct {
	Groups   []GroupRows
	Stats    *engine.Stats
	ExecTime time.Duration
}

// groupConsumer is what the runner hands each group's answer rows to, with the
// group's probability mass; nothing else differs between an unsharded
// execution, top-k, a shard's run and a delta pass.  take is called once per
// group and never concurrently for the same group.  With inOrder it runs on the
// calling goroutine for every group in group order (nil rows for a
// non-covering group) — the placement aggregation needs, since probability bits
// depend on the order masses are added in.  Without, it runs on the worker that
// produced the rows, for covering groups only.  A u-trace walk always hands
// rows over in order — a leaf's, an uncovered leaf's none, and a node's once
// where Case 2 prunes its subtree — and stops at the first take that returns
// true; a group list runs every group whatever take returns.
type groupConsumer struct {
	inOrder bool
	take    func(gi int, prob float64, rows []engine.Tuple) (stop bool)
}

// keepSets is the consumer that folds each group's rows into the run's
// per-group sets on the producing worker: a shard's run ships them, a
// DeltaState keeps them and extends them pass by pass.  Each worker extends
// only its own group's set.
func (run *ShardRun) keepSets() groupConsumer {
	return groupConsumer{take: func(gi int, _ float64, rows []engine.Tuple) bool {
		run.Groups[gi].extend(rows)
		return false
	}}
}

// ExecuteOn runs every group of the plan against one instance — normally a
// shard holding one partition of the base relations — and returns the
// per-group distinct answer tuples.
func (sp *ScatterPlan) ExecuteOn(ec *exec.Context, db *engine.Instance) (*ShardRun, error) {
	run := &ShardRun{Groups: make([]GroupRows, len(sp.Groups)), Stats: engine.NewStats()}
	if err := sp.executeInto(ec, db, run, run.keepSets()); err != nil {
		return nil, err
	}
	return run, nil
}

// executeInto is the one runner of a group list: it executes the plan's group
// plans against the instance on the runtime's worker pool — an e-MQO plan's
// with one fresh shared-subexpression cache between them, so each common
// subexpression still runs exactly once — hands each group's rows to the
// consumer and adds the operator statistics and CPU time to run.  Group order
// is kept at any parallelism.  On error whatever the consumer holds is partly
// filled and must be discarded.
func (sp *ScatterPlan) executeInto(ec *exec.Context, db *engine.Instance, run *ShardRun, c groupConsumer) error {
	if sp.trace != nil {
		return sp.trace.executeInto(ec, db, run, c)
	}
	cache := sp.Global.NewCache()
	type groupRun struct {
		rows  []engine.Tuple
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
			ex := &engine.Executor{DB: db, Stats: gr.stats, Cache: cache, Indexes: db.Indexes(), Batch: ec.Batch()}
			rel, err := ex.ExecuteContext(ctx, sp.Groups[i].Plan)
			gr.exec = time.Since(execStart)
			if err != nil {
				return gr, fmt.Errorf("%s: executing source query: %w", sp.Method, err)
			}
			if c.inOrder {
				gr.rows = rel.Rows
			} else {
				c.take(i, sp.Groups[i].Prob, rel.Rows)
			}
			return gr, nil
		},
		func(i int, gr groupRun) error {
			run.ExecTime += gr.exec
			run.Stats.Add(gr.stats)
			if c.inOrder {
				c.take(i, sp.Groups[i].Prob, gr.rows)
			}
			return nil
		})
}

// newResult is the one place a Result is assembled from runs of a group
// list: the front half's bookkeeping, one executed query per covering group
// and run, the runs' statistics and CPU time, and the wall time the front half
// took when this evaluation's call built it.  Answers are the caller's to add
// — from its aggregator, or through Result.
func (sp *ScatterPlan) newResult(q *query.Query, rewrite time.Duration, runs []*ShardRun) *Result {
	res := &Result{
		Query:            q,
		Method:           sp.Method,
		Columns:          OutputColumns(q),
		Stats:            engine.NewStats(),
		RewrittenQueries: sp.Rewritten,
		Partitions:       sp.Partitions,
		RewriteTime:      rewrite,
	}
	for _, g := range sp.Groups {
		if g.Plan != nil {
			res.ExecutedQueries += len(runs)
		}
	}
	for _, run := range runs {
		res.ExecTime += run.ExecTime
		res.Stats.Add(run.Stats)
	}
	return res
}

// Result turns runs that kept sets — every shard's in shard order, or a
// DeltaState's maintained one — into the method's Result: group by group, in
// group order, the union of the runs' distinct rows receives the group's
// probability.  That replays the unsharded aggregation exactly — a tuple the
// same group produced on several instances is collapsed again, a group
// without rows anywhere sends its mass to the empty answer — so the answers
// are bit-identical to an unsharded execution of the whole instance.
// TotalTime is the caller's to set.
func (sp *ScatterPlan) Result(q *query.Query, rewrite time.Duration, runs ...*ShardRun) *Result {
	start := time.Now()
	res := sp.newResult(q, rewrite, runs)
	merge := NewGroupMerge(sp.PreEmptyProb)
	for gi, g := range sp.Groups {
		merge.Add(g.Prob, unionRows(runs, gi))
	}
	res.Answers, res.EmptyProb = merge.Finalize()
	res.AggregateTime = time.Since(start)
	return res
}

// unionRows concatenates group gi's distinct rows over the runs, in run
// order; a single run's list is handed over as it is.
func unionRows(runs []*ShardRun, gi int) []engine.Tuple {
	if len(runs) == 1 {
		return runs[0].Groups[gi].Rows
	}
	n := 0
	for _, run := range runs {
		n += len(run.Groups[gi].Rows)
	}
	rows := make([]engine.Tuple, 0, n)
	for _, run := range runs {
		rows = append(rows, run.Groups[gi].Rows...)
	}
	return rows
}

// GroupMerge re-aggregates per-shard answer streams into the canonical answer
// distribution.  It replays exactly the unsharded aggregation: one Add call
// per covering group in group order (rows being the concatenation of that
// group's per-shard rows in shard order), one AddEmpty per non-covering
// group.  A shard deduplicates within a group before it hands rows over
// (GroupRows); Add still collapses duplicates itself — the same per-call
// dedup addRows performs — because the same tuple arrives from several
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
// empty answer.
func (m *GroupMerge) Add(prob float64, rows []engine.Tuple) { m.agg.addRows(rows, prob) }

// Finalize returns the merged answers in canonical order together with the
// empty-answer probability.
func (m *GroupMerge) Finalize() ([]Answer, float64) {
	return m.agg.answers(), m.agg.emptyProb
}
