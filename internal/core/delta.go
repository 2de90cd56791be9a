package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
)

// This file is the delta half of the incremental-maintenance subsystem
// (internal/delta owns the reconciler that drives it).  The paper's answer
// semantics make SPJ answers monotone under inserts: every answer tuple's
// probability is a sum over the mappings whose reformulated query produced it,
// and appending base rows can only add tuples to an SPJ query's output, never
// remove or change existing ones.  So instead of re-running every group plan
// over the whole instance after an append, the delta evaluator re-runs them
// over just the appended rows — the classic join-delta expansion
//
//	Δ(R1 ⋈ … ⋈ Rk) = Σ_i  R1ⁿᵉʷ ⋈ … ⋈ R_{i-1}ⁿᵉʷ ⋈ ΔR_i ⋈ R_{i+1}ᵒˡᵈ ⋈ … ⋈ Rkᵒˡᵈ
//
// realized with zero copying, because append-only relations make every old
// state a prefix slice of the live row list — and folds the new tuples into
// the per-group distinct-tuple sets it keeps.  Replaying those sets through
// GroupMerge reproduces the unsharded aggregation order exactly, so maintained
// answers stay bit-identical to cold re-evaluation (same values, same
// probabilities, same canonical order).

// ErrNotDeltaMaintainable marks a (query, method) pair the delta evaluator
// cannot maintain incrementally: non-SPJ operators (aggregate, distinct,
// materialized fragments), self-joins (the name-keyed relation replacement
// cannot express a per-occurrence delta), and the methods with no per-group
// relation stream (o-sharing, top-k).  Callers fall back to epoch
// invalidation — today's behavior.
var ErrNotDeltaMaintainable = errors.New("core: plan not delta-maintainable")

// DeltaPlan is a prepared query's group list plus the per-group scan sets the
// delta passes need.  It is immutable after PrepareDelta and may back any
// number of DeltaStates.
type DeltaPlan struct {
	sp  *ScatterPlan
	qry *Prepared
	// rewrite is the wall time the group list took to build when PrepareDelta's
	// call built it, zero when it was memoized already.
	rewrite time.Duration

	// scans[i] holds the base-relation names group i's plan scans (nil for
	// non-covering groups); rels is their union in sorted order — the fixed
	// pass order every ApplyDelta walks, so float accumulation never depends
	// on which relation happened to grow first.
	scans []map[string]bool
	rels  []string
}

// PrepareDelta builds the delta-maintenance form of a prepared query for the
// options' method, or ErrNotDeltaMaintainable when the plan shape or method
// cannot be maintained under appends.
func PrepareDelta(p *Prepared, ec *exec.Context, opts Options) (*DeltaPlan, error) {
	sp, rewrite, err := p.FrontHalf(ec, opts)
	if err != nil {
		if errors.Is(err, ErrNotShardable) {
			return nil, fmt.Errorf("%w: %v", ErrNotDeltaMaintainable, err)
		}
		return nil, err
	}
	dp := &DeltaPlan{sp: sp, qry: p, rewrite: rewrite}
	seen := make(map[string]bool)
	for _, g := range sp.Groups {
		if g.Plan == nil {
			dp.scans = append(dp.scans, nil)
			continue
		}
		scans, err := scanSet(g.Plan)
		if err != nil {
			return nil, err
		}
		dp.scans = append(dp.scans, scans)
		for name := range scans {
			if !seen[name] {
				seen[name] = true
				dp.rels = append(dp.rels, name)
			}
		}
	}
	sort.Strings(dp.rels)
	return dp, nil
}

// Relations returns the base relations the plan reads, in pass order.
func (dp *DeltaPlan) Relations() []string {
	out := make([]string, len(dp.rels))
	copy(out, dp.rels)
	return out
}

// scanSet walks one group plan and collects the relations it scans.  The walk
// is the eligibility check: only select/project/join/product over single-
// occurrence scans qualify; anything else — aggregation, distinct,
// materialized fragments, a relation scanned twice — is not maintainable.
func scanSet(p engine.Plan) (map[string]bool, error) {
	out := make(map[string]bool)
	var walk func(engine.Plan) error
	walk = func(n engine.Plan) error {
		switch t := n.(type) {
		case *engine.ScanPlan:
			if out[t.Relation] {
				return fmt.Errorf("%w: relation %s scanned more than once", ErrNotDeltaMaintainable, t.Relation)
			}
			out[t.Relation] = true
			return nil
		case *engine.SelectPlan, *engine.ProjectPlan, *engine.JoinPlan, *engine.ProductPlan:
			for _, c := range n.Children() {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("%w: non-SPJ operator %T", ErrNotDeltaMaintainable, n)
		}
	}
	if err := walk(p); err != nil {
		return nil, err
	}
	return out, nil
}

// DeltaState is the maintained evaluation state of one (query, method) pair
// against one instance: the per-group distinct-tuple sets plus the row counts
// the state covers.  It is not safe for concurrent use; the reconciler
// serializes ApplyDelta/Result per entry, and both must run under the same
// lock that excludes appends (the data and the lens must describe the same
// moment).
type DeltaState struct {
	plan *DeltaPlan
	// run is the full evaluation's ShardRun, kept and extended: its per-group
	// distinct tuples are the maintained sets (first-seen order only keeps
	// replays comparable — GroupMerge accumulates per distinct tuple and the
	// final sort is a total order), its statistics and CPU time add up over
	// the delta passes.
	run    *ShardRun
	lens   map[string]int
	passes int
}

// Plan returns the immutable plan the state maintains.
func (st *DeltaState) Plan() *DeltaPlan { return st.plan }

// Passes returns the number of delta passes applied since the full run.
func (st *DeltaState) Passes() int { return st.passes }

// EvaluateFull runs the plan over the whole instance and captures the
// maintained state: the per-group distinct tuples and the covered row counts.
func (dp *DeltaPlan) EvaluateFull(ec *exec.Context, db *engine.Instance) (*DeltaState, error) {
	run, err := dp.sp.ExecuteOn(ec, db)
	if err != nil {
		return nil, err
	}
	st := &DeltaState{plan: dp, run: run, lens: make(map[string]int, len(dp.rels))}
	for _, name := range dp.rels {
		rel := db.Relation(name)
		if rel == nil {
			return nil, fmt.Errorf("delta: plan scans unknown relation %q", name)
		}
		st.lens[name] = len(rel.Rows)
	}
	return st, nil
}

// ApplyDelta folds every row appended since the state's covered lengths into
// the per-group tuple sets: one pass per grown relation, each pass executing
// the group plans against a derived instance where the grown relation is its
// delta slice, later grown relations are their old prefixes, and everything
// else is the live relation (probing the live instance's shared indexes via
// AdoptIndexes).  The passes partition the new row combinations, so together
// they produce exactly the tuples a cold run would add.  It returns the number
// of passes executed; an error (a shrunk or vanished relation — something
// other than an append happened) means the state can no longer be trusted and
// the caller must fall back to cold evaluation.
func (st *DeltaState) ApplyDelta(ec *exec.Context, db *engine.Instance) (int, error) {
	dp := st.plan
	newLens := make(map[string]int, len(dp.rels))
	var changed []string
	for _, name := range dp.rels {
		rel := db.Relation(name)
		if rel == nil {
			return 0, fmt.Errorf("delta: relation %q vanished", name)
		}
		n := len(rel.Rows)
		if old := st.lens[name]; n < old {
			return 0, fmt.Errorf("delta: relation %s shrank from %d to %d rows", name, old, n)
		}
		newLens[name] = n
	}
	for _, name := range dp.rels {
		if newLens[name] > st.lens[name] {
			changed = append(changed, name)
		}
	}
	passes := 0
	for ci, name := range changed {
		replace := make(map[string]*engine.Relation, len(changed)-ci)
		rel := db.Relation(name)
		old := st.lens[name]
		replace[name] = &engine.Relation{
			Name:    name,
			Columns: rel.Columns,
			Rows:    rel.Rows[old:newLens[name]:newLens[name]],
		}
		for _, later := range changed[ci+1:] {
			lrel := db.Relation(later)
			lold := st.lens[later]
			replace[later] = &engine.Relation{
				Name:    later,
				Columns: lrel.Columns,
				Rows:    lrel.Rows[:lold:lold],
			}
		}
		groups := make([]ScatterGroup, len(dp.sp.Groups))
		active := 0
		for gi, g := range dp.sp.Groups {
			if g.Plan != nil && dp.scans[gi][name] {
				groups[gi] = g
				active++
			} else {
				groups[gi] = ScatterGroup{Prob: g.Prob}
			}
		}
		if active == 0 {
			continue
		}
		pass := &ScatterPlan{Method: dp.sp.Method, Groups: groups}
		deltaDB := db.WithRelations(db.Name, replace)
		deltaDB.AdoptIndexes(db)
		if err := pass.executeInto(ec, deltaDB, st.run, st.run.keepSets()); err != nil {
			return passes, err
		}
		passes++
	}
	st.lens = newLens
	st.passes += passes
	return passes, nil
}

// Result re-aggregates the maintained tuple sets into the canonical answer
// distribution — the maintained run through the function that merges the
// shards' runs — so the result is bit-identical to cold evaluation of the same
// method over the same instance state.  Its phases are those of the work that
// produced the state: the front half when PrepareDelta built it, the CPU time
// of the full run and every pass since, and this merge.
func (st *DeltaState) Result() *Result {
	dp := st.plan
	res := dp.sp.Result(dp.qry.Query(), dp.rewrite, st.run)
	res.TotalTime = res.AggregateTime
	return res
}
