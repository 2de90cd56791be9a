package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/mqo"
	"github.com/probdb/urm/internal/query"
)

// ScatterGroup is one group of a method's group list: a source plan together
// with the probability mass its answers carry.  A nil Plan marks a group whose
// mappings do not cover the query — its mass goes to the empty answer exactly
// once, where the group's turn comes in the aggregation, never per shard.
// o-sharing's groups are its u-trace's nodes in pre-order, with no plans;
// Below is the size of a node's subtree, the groups after it that lie below
// it — 0 for a leaf and for every group of a list.
type ScatterGroup struct {
	Prob  float64
	Plan  engine.Plan
	Below int

	// prog is Plan compiled once, when the group's Prepared first handed the
	// list out (ScatterPlan.compile), and kept by a delta pass's copy of the
	// group; err is why Plan did not compile, which every run reports.
	prog *engine.Program
	err  error
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
// same consumers and merged by the same Merge: its groups are its u-trace's
// nodes, its shape is read off the planner, and the runner walks the planned
// trace, handing rows over under the nodes' group indices.
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
	// compiled is set once its Prepared has compiled the group plans
	// (compile), under the Prepared's lock.
	compiled bool
	// trace is o-sharing's u-trace; nil on the plan methods.
	trace *uTrace
}

// planShape is what one walk over each covering group plan decides — or, for
// a u-trace, what its planner saw at each node — for a shard's scatter and the
// delta alike.  The paper's answers add probability over groups, so a linear
// plan — one that neither aggregates nor reads a materialized input —
// distributes over any horizontal split of a relation it scans at most once: a
// shard partition R₁ ⊎ … ⊎ Rₙ and an append R_old ⊎ ΔR are the same case.
type planShape struct {
	// scans[gi] counts group gi's scans of each base relation — a trace
	// node's, on the path down to it; nil for a non-covering group.
	scans []map[string]int
	// linear is false when some covering plan aggregates or reads a
	// materialized input, or a trace's final operator aggregates.
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

// compile lowers every covering group plan into a batch program for db's
// schema, once, the first time its Prepared hands the list out — an e-MQO
// list's through one compiler for its global plan's cache, so each sharing
// point is compiled once, beside Global, and every run's cache holds only
// results.  A plan that does not compile keeps its error instead: each run
// reports it where the group's program would have run.
func (sp *ScatterPlan) compile(db *engine.Instance) {
	sp.compiled = true
	c := engine.NewCompiler(db, sp.Global.NewCache())
	for i := range sp.Groups {
		if g := &sp.Groups[i]; g.Plan != nil {
			g.prog, g.err = c.Compile(g.Plan, true)
		}
	}
}

// analyse decides a group list's shape from its plans, once, as it is memoized.
func (sp *ScatterPlan) analyse() {
	scans := make([]map[string]int, len(sp.Groups))
	linear := true
	for gi, g := range sp.Groups {
		if g.Plan != nil {
			scans[gi] = make(map[string]int)
			linear = countScans(g.Plan, scans[gi]) && linear
		}
	}
	sp.setShape(scans, linear)
}

// setShape records the plan's shape from each group's scans and linearity.
func (sp *ScatterPlan) setShape(scans []map[string]int, linear bool) {
	sh := &planShape{scans: scans, linear: linear}
	for _, counts := range scans {
		for rel := range counts {
			if !slices.Contains(sh.rels, rel) {
				sh.rels = append(sh.rels, rel)
			}
		}
	}
	slices.Sort(sh.rels)
	sp.shape = sh
	if !sh.linear {
		sh.unmaintainable = fmt.Errorf("%w: the plan aggregates or reads a materialized input", ErrNotDeltaMaintainable)
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
// provenance is unknown, so it may embed state from before the split.  It
// reads each node's children from its fields, as Children would build a
// slice per node.
func countScans(plan engine.Plan, counts map[string]int) bool {
	switch n := plan.(type) {
	case *engine.AggregatePlan, *engine.MaterialPlan:
		return false
	case *engine.ScanPlan:
		counts[n.Relation]++
		return true
	case *engine.SelectPlan:
		return countScans(n.Child, counts)
	case *engine.ProjectPlan:
		return countScans(n.Child, counts)
	case *engine.DistinctPlan:
		return countScans(n.Child, counts)
	case *engine.ProductPlan:
		return countPairScans(n.Left, n.Right, counts)
	case *engine.JoinPlan:
		return countPairScans(n.Left, n.Right, counts)
	}
	linear := true
	for _, c := range plan.Children() {
		linear = countScans(c, counts) && linear
	}
	return linear
}

// countPairScans is countScans over both inputs of a binary node: each is
// counted even when the other is not linear.
func countPairScans(left, right engine.Plan, counts map[string]int) bool {
	l := countScans(left, counts)
	return countScans(right, counts) && l
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
	for _, row := range rows {
		if g.seen.Add(row) {
			g.Rows = append(g.Rows, row)
		}
	}
}

// ShardRun is the outcome of running a group list on one instance — a shard
// holding one partition of the base relations, or the whole instance: the
// operator statistics and CPU time, and, for the consumers that keep sets, the
// per-group distinct answer tuples (index-aligned with Groups, empty for
// non-covering groups).  Rows are deduplicated where they are produced, within
// one group on one instance; a tuple the same group produces on several shards
// is the merge's to collapse.  Pruned marks the u-trace nodes the run's walk
// pruned (Case 2) at the node or above it; a list's run marks none.
type ShardRun struct {
	Groups   []GroupRows
	Pruned   []bool
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
// only its own group's set.  The one hand-over an internal u-trace node ever
// gets is Case 2's, so it marks the node's subtree pruned.
func (run *ShardRun) keepSets(sp *ScatterPlan) groupConsumer {
	return groupConsumer{take: func(gi int, _ float64, rows []engine.Tuple) bool {
		run.Groups[gi].extend(rows)
		if below := sp.Groups[gi].Below; below > 0 {
			for d := gi; d <= gi+below; d++ {
				run.Pruned[d] = true
			}
		}
		return false
	}}
}

// ExecuteOn runs every group of the plan against one instance — normally a
// shard holding one partition of the base relations — and returns the
// per-group distinct answer tuples and prune marks.
func (sp *ScatterPlan) ExecuteOn(ec *exec.Context, db *engine.Instance) (*ShardRun, error) {
	run := &ShardRun{Groups: make([]GroupRows, len(sp.Groups)), Pruned: make([]bool, len(sp.Groups)), Stats: engine.NewStats()}
	if err := sp.executeInto(ec, db, run, run.keepSets(sp)); err != nil {
		return nil, err
	}
	return run, nil
}

// executeInto is the one runner of a group list: it executes the plan's group
// plans against the instance on the runtime's worker pool — an e-MQO plan's
// with one fresh shared-subexpression cache between them, so each common
// subexpression still runs exactly once — hands each group's rows to the
// consumer and adds the operator statistics and CPU time to run.  Group order
// is kept at any parallelism.  Every consumer reads a group's rows as a set,
// so the plans run as ExecuteSet runs them: a group's rows hold its distinct
// tuples in first-seen order, not necessarily every repeat.  The list must be
// compiled (compile): each covering group runs its program.  On error whatever
// the consumer holds is partly filled and must be discarded.
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
			g := &sp.Groups[i]
			if g.Plan == nil {
				return gr, nil
			}
			var rel *engine.Relation
			err := g.err
			if err == nil {
				execStart := time.Now()
				rel, err = g.prog.Run(ctx, &engine.Executor{DB: db, Stats: gr.stats, Cache: cache, Indexes: db.Indexes()})
				gr.exec = time.Since(execStart)
			}
			if err != nil {
				return gr, fmt.Errorf("%s: executing source query: %w", sp.Method, err)
			}
			if c.inOrder {
				gr.rows = rel.Rows
			} else {
				c.take(i, g.Prob, rel.Rows)
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
// took when this evaluation's call built it.  A positive k labels a top-k
// run's.  Answers are the caller's to add — from its sink, or through Result.
func (sp *ScatterPlan) newResult(q *query.Query, rewrite time.Duration, k int, runs []*ShardRun) *Result {
	res := &Result{
		Query:            q,
		Method:           sp.Method,
		Columns:          OutputColumns(q),
		Stats:            engine.NewStats(),
		RewrittenQueries: sp.Rewritten,
		Partitions:       sp.Partitions,
		RewriteTime:      rewrite,
	}
	if k > 0 {
		res.Method = MethodTopK
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
// DeltaState's maintained one — into the method's Result through Merge: the
// whole distribution, or the top k answers when k is positive.  TotalTime is
// the caller's to set.
func (sp *ScatterPlan) Result(q *query.Query, rewrite time.Duration, k int, runs ...*ShardRun) *Result {
	start := time.Now()
	res := sp.newResult(q, rewrite, k, runs)
	res.Answers, res.EmptyProb = sp.Merge(k, runs...)
	res.AggregateTime = time.Since(start)
	return res
}

// Merge is the one merge of runs that kept sets: it feeds the merged groups,
// in pre-order, to the sink k picks — the aggregator for the whole
// distribution, top-k's bounds for a positive k — and returns the sink's
// answers, in canonical order, and the empty answer's mass.  An internal
// u-trace node every run pruned, at the node or above it, hands its mass over
// once with the union of the runs' rows there and its subtree is skipped; any
// other internal node is descended; a leaf — every group of a list is one —
// hands its mass over with the union of the runs' rows.  A tuple that several
// runs, or one remote run twice, sent for a group is collapsed by the sink's
// per-group dedup.  The whole instance's walk prunes exactly where every run
// did (DESIGN.md "O-sharing"), so the sink sees the groups, masses and
// distinct rows of one execution over it, and stops where that execution
// stops: the answers are bit-identical to it.
func (sp *ScatterPlan) Merge(k int, runs ...*ShardRun) ([]Answer, float64) {
	sink := newSink(k, sp.PreEmptyProb)
	for gi := 0; gi < len(sp.Groups); gi++ {
		g := sp.Groups[gi]
		pruned := true
		for _, run := range runs {
			pruned = pruned && run.Pruned[gi]
		}
		if g.Below > 0 && !pruned {
			continue
		}
		if sink.take(gi, g.Prob, unionRows(runs, gi)) {
			break
		}
		gi += g.Below
	}
	entries, emptyProb := sink.sorted()
	return answersOf(entries), emptyProb
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

// Covers reports whether group gi's mappings cover the query: false for a
// list group without a plan and for an uncovered u-trace leaf.
func (sp *ScatterPlan) Covers(gi int) bool { return sp.shape.scans[gi] != nil }
