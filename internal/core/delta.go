package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
)

// This file is the delta half of the incremental-maintenance subsystem (the
// serving layer's maintainer, internal/server/maintain.go, drives it).  The
// paper's answer semantics make SPJ answers monotone under inserts: every
// answer tuple's probability is a sum over the mappings whose reformulated
// query produced it, and appending base rows can only add tuples to an SPJ
// query's output, never remove or change existing ones.  So instead of re-running every group plan
// over the whole instance after an append, the delta evaluator re-runs them
// over just the appended rows — the classic join-delta expansion
//
//	Δ(R1 ⋈ … ⋈ Rk) = Σ_i  R1ⁿᵉʷ ⋈ … ⋈ R_{i-1}ⁿᵉʷ ⋈ ΔR_i ⋈ R_{i+1}ᵒˡᵈ ⋈ … ⋈ Rkᵒˡᵈ
//
// realized with zero copying, because append-only relations make every old
// state a prefix slice of the live row list — and folds the new tuples into
// the per-group distinct-tuple sets it keeps.  Merging those sets replays the
// unsharded aggregation order exactly, so maintained answers stay
// bit-identical to cold re-evaluation (same values, same probabilities, same
// canonical order).

// ErrNotDeltaMaintainable marks an evaluation the delta evaluator cannot
// maintain incrementally, whatever the method: plans that aggregate (they are
// not linear in their input), self-joins (the name-keyed relation replacement
// cannot express a per-occurrence delta) and top-k runs (maintaining one would
// trade its early stop for a full walk).  Callers fall back to epoch
// invalidation — today's behavior.
var ErrNotDeltaMaintainable = errors.New("core: plan not delta-maintainable")

// DeltaState is the maintained evaluation state of one (query, method) pair
// against one instance: the per-group distinct-tuple sets plus the row counts
// the state covers.  It is not safe for concurrent use; the maintainer
// serializes ApplyDelta/Result per entry, and both must run under the same
// lock that excludes appends (the data and the lens must describe the same
// moment).
type DeltaState struct {
	// sp is the prepared query's memoized front half, whose shape the passes
	// walk; q is the query and rewrite the wall time it took to build when
	// Maintain's call built it, zero when it was memoized already.
	sp      *ScatterPlan
	q       *query.Query
	rewrite time.Duration
	// run is the full evaluation's ShardRun, kept and extended: its per-group
	// distinct tuples are the maintained sets (first-seen order only keeps
	// replays comparable — the merge accumulates per distinct tuple and the
	// final sort is a total order), its statistics and CPU time add up over
	// the delta passes, and its prune marks are the AND over the full run and
	// every pass of each run's marks.
	run    *ShardRun
	lens   map[string]int
	passes int
	// merged is the last merge of run, kept while no pass has added a row or
	// cleared a prune mark since: appends that change no answer cost no merge.
	merged *Result
}

// Maintain runs the options' method over the whole instance and captures the
// maintained state: the per-group distinct tuples and the covered row counts.
// A plan whose shape appends cannot be maintained under — the verdict taken
// when the front half was memoized — and a top-k run are refused with
// ErrNotDeltaMaintainable before anything executes.  A refusal hands the
// front half's build time back, so the evaluation the caller falls back to
// reports it.
func (p *Prepared) Maintain(ec *exec.Context, opts Options) (*DeltaState, error) {
	sp, rewrite, err := p.FrontHalf(ec, opts)
	if err != nil {
		return nil, err
	}
	refusal := sp.shape.unmaintainable
	if opts.TopK > 0 {
		refusal = fmt.Errorf("%w: top-k stops its walk early, maintaining it would walk the whole trace", ErrNotDeltaMaintainable)
	}
	if refusal != nil {
		p.unreport(sp, rewrite)
		return nil, refusal
	}
	run, err := sp.ExecuteOn(ec, p.db)
	if err != nil {
		return nil, err
	}
	st := &DeltaState{sp: sp, q: p.res.Query, rewrite: rewrite, run: run, lens: make(map[string]int, len(sp.shape.rels))}
	for _, name := range sp.shape.rels {
		rel := p.db.Relation(name)
		if rel == nil {
			return nil, fmt.Errorf("delta: plan scans unknown relation %q", name)
		}
		st.lens[name] = len(rel.Rows)
	}
	return st, nil
}

// Passes returns the number of delta passes applied since the full run.
func (st *DeltaState) Passes() int { return st.passes }

// Bytes estimates the state's retained footprint: each group's distinct
// tuples, at a row slot, a membership entry and one value per column.  A
// group's tuples share one width, so the estimate costs one step per group.
// Like the answer cache's result estimate it only needs to be proportional.
func (st *DeltaState) Bytes() int64 {
	var size int64
	for _, g := range st.run.Groups {
		if n := int64(len(g.Rows)); n > 0 {
			size += n * (24 + 16 + int64(len(g.Rows[0]))*40)
		}
	}
	return size
}

// ApplyDelta folds every row appended since the state's covered lengths into
// the per-group tuple sets: one pass per grown relation, each pass running
// the compiled programs of the group plans that scan it — an e-MQO list's
// with one fresh cache of its global plan — or walking the whole u-trace,
// whose leaves that do not scan it re-add rows the sets already hold —
// against a derived instance where the grown relation is its delta slice,
// later grown relations are their old prefixes, and everything else is the
// live relation (probing the live instance's shared indexes via
// AdoptIndexes).  The passes partition the new row combinations, so together
// they produce exactly the tuples a cold run would add.  It returns the
// number of passes executed; an error (a shrunk or vanished relation — something
// other than an append happened) means the state can no longer be trusted and
// the caller must fall back to cold evaluation.
func (st *DeltaState) ApplyDelta(ec *exec.Context, db *engine.Instance) (int, error) {
	shape := st.sp.shape
	newLens := make(map[string]int, len(shape.rels))
	var changed []string
	for _, name := range shape.rels {
		rel := db.Relation(name)
		if rel == nil {
			return 0, fmt.Errorf("delta: relation %q vanished", name)
		}
		n := len(rel.Rows)
		if old := st.lens[name]; n < old {
			return 0, fmt.Errorf("delta: relation %s shrank from %d to %d rows", name, old, n)
		} else if n > old {
			changed = append(changed, name)
		}
		newLens[name] = n
	}
	// window is rows [lo, hi) of the named live relation, capped at hi.
	window := func(name string, lo, hi int) *engine.Relation {
		rel := db.Relation(name)
		return &engine.Relation{Name: name, Columns: rel.Columns, Rows: rel.Rows[lo:hi:hi]}
	}
	passes := 0
	for ci, name := range changed {
		replace := map[string]*engine.Relation{name: window(name, st.lens[name], newLens[name])}
		for _, later := range changed[ci+1:] {
			replace[later] = window(later, 0, st.lens[later])
		}
		groups := make([]ScatterGroup, len(st.sp.Groups))
		active := 0
		for gi, g := range st.sp.Groups {
			if shape.scans[gi][name] > 0 {
				active++
			} else {
				g.Plan = nil
			}
			groups[gi] = g
		}
		if active == 0 {
			continue
		}
		pass := &ScatterPlan{Method: st.sp.Method, Groups: groups, Global: st.sp.Global, trace: st.sp.trace}
		deltaDB := db.WithRelations(db.Name, replace)
		deltaDB.AdoptIndexes(db)
		// The pass extends copies of the maintained sets, which share their
		// membership tables, and marks its own prunes; a node's AND keeps a
		// mark only while every run pruned it.
		run := &ShardRun{Groups: slices.Clone(st.run.Groups), Pruned: make([]bool, len(groups)), Stats: st.run.Stats}
		if err := pass.executeInto(ec, deltaDB, run, run.keepSets(pass)); err != nil {
			return passes, err
		}
		st.run.ExecTime += run.ExecTime
		for gi, g := range run.Groups {
			if len(g.Rows) > len(st.run.Groups[gi].Rows) || st.run.Pruned[gi] && !run.Pruned[gi] {
				st.merged = nil
			}
			st.run.Groups[gi], st.run.Pruned[gi] = g, st.run.Pruned[gi] && run.Pruned[gi]
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
// produced the merge: the front half when Maintain built it, the CPU time of
// the full run and every pass up to the merge, and the merge.  Each call
// returns a Result of its own; calls between which no pass changed the sets
// share the merged answers.
func (st *DeltaState) Result() *Result {
	if st.merged == nil {
		st.merged = st.sp.Result(st.q, st.rewrite, 0, st.run)
		st.merged.TotalTime = st.merged.AggregateTime
	}
	res := *st.merged
	return &res
}
