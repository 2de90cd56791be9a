// Package core implements the paper's query-evaluation algorithms over
// uncertain schema matching: the baselines basic, e-basic and e-MQO
// (Section III-B), query-level sharing (q-sharing, Section IV), operator-level
// sharing (o-sharing, Sections V–VI) with the Random/SNF/SEF operator
// selection strategies, and the probabilistic top-k algorithm (Section VII).
package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// Answer is one probabilistic answer tuple: a value tuple together with the
// probability that it belongs to the correct query result.
type Answer struct {
	Tuple engine.Tuple
	Prob  float64
}

// String renders the answer as "(v1, v2)@p".
func (a Answer) String() string {
	return fmt.Sprintf("%s@%.3f", a.Tuple, a.Prob)
}

// Result is the outcome of evaluating a probabilistic query.
type Result struct {
	// Query is the evaluated target query.
	Query *query.Query
	// Method is the evaluation algorithm that produced the result.
	Method Method
	// Answers are the aggregated probabilistic answers, sorted by descending
	// probability (ties broken by tuple key).
	Answers []Answer
	// EmptyProb is the probability that the query has no answer at all (the
	// probability mass of mappings whose source query returned nothing, the
	// null tuple θ of the paper's o-sharing Case 2).
	EmptyProb float64
	// Columns are display labels for the answer tuples (target-side names);
	// empty when the query has no explicit projection or aggregate.
	Columns []string

	// Stats aggregates the physical operators executed on the source instance.
	Stats *engine.Stats
	// RewrittenQueries counts how many complete source queries were rewritten.
	RewrittenQueries int
	// ExecutedQueries counts how many distinct complete source queries were
	// executed (o-sharing executes operators rather than whole queries, so it
	// reports 0 here and relies on Stats).
	ExecutedQueries int
	// Partitions is the number of mapping partitions (representative
	// mappings) used, when the method partitions mappings.
	Partitions int

	// RewriteTime, ExecTime and AggregateTime break the evaluation down into
	// the phases reported in Figure 10(a).  RewriteTime is the wall time of
	// the front half — reformulating through the mappings, clustering, the
	// MQO pass, partitioning, planning o-sharing's u-trace — and is reported
	// by the one execution whose call built it: zero whenever a Prepared's
	// memoized front half was reused.  Execution that fans out over the worker
	// pool (the group plans of basic, e-basic, e-MQO and q-sharing,
	// o-sharing's operators) sums the per-group or per-operator durations, so
	// with Options.Parallelism > 1 ExecTime is CPU time — for e-MQO including
	// the time a worker waits for a subexpression another is computing — and
	// the phases' sum can exceed TotalTime; at Parallelism 1 every field is
	// the wall-clock phase time as in the paper.
	RewriteTime   time.Duration
	ExecTime      time.Duration
	AggregateTime time.Duration
	// TotalTime is the end-to-end (wall-clock) evaluation time; this is the
	// figure that shrinks with parallelism.
	TotalTime time.Duration
}

// Lookup returns the probability of the given tuple, or 0 if absent.
func (r *Result) Lookup(t engine.Tuple) float64 {
	key := t.Key()
	for _, a := range r.Answers {
		if a.Tuple.Key() == key {
			return a.Prob
		}
	}
	return 0
}

// String renders the result compactly.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s via %s: %d answers (empty %.3f)", r.Query.Name, r.Method, len(r.Answers), r.EmptyProb)
	limit := len(r.Answers)
	if limit > 10 {
		limit = 10
	}
	for i := 0; i < limit; i++ {
		b.WriteString("\n  ")
		b.WriteString(r.Answers[i].String())
	}
	if len(r.Answers) > limit {
		fmt.Fprintf(&b, "\n  ... (%d more)", len(r.Answers)-limit)
	}
	return b.String()
}

// aggregator accumulates probabilistic answers, merging duplicates by tuple
// value as the paper's result-aggregation phase does.  Duplicate detection is
// hash-based (Hash64 buckets resolved with EqualKey), so aggregation never
// formats canonical key strings; keys are built once per distinct answer only
// for the final deterministic sort.
type aggregator struct {
	buckets   map[uint64][]*aggEntry
	order     []*aggEntry
	emptyProb float64
	// calls numbers the calls that fold rows in: addRows and top-k's take.
	calls int
}

// aggEntry is one distinct answer tuple with its accumulated probability, the
// call that last added to it, and its canonical key once the entry is
// sorted.
type aggEntry struct {
	tuple engine.Tuple
	prob  float64
	call  int
	key   string
}

func newAggregator() *aggregator {
	return &aggregator{buckets: make(map[uint64][]*aggEntry)}
}

// addHashed records the tuple, whose Hash64 is h, under the probability mass
// of the current call, once however often the call holds it; a tuple
// without an entry gets one only if admit.  It returns the entry when this
// call is the first to add to it, else nil.
func (g *aggregator) addHashed(h uint64, t engine.Tuple, prob float64, admit bool) *aggEntry {
	for _, e := range g.buckets[h] {
		if e.tuple.EqualKey(t) {
			if e.call == g.calls {
				return nil
			}
			e.prob, e.call = e.prob+prob, g.calls
			return e
		}
	}
	if !admit {
		return nil
	}
	e := &aggEntry{tuple: t.Clone(), prob: prob, call: g.calls}
	g.buckets[h] = append(g.buckets[h], e)
	g.order = append(g.order, e)
	return e
}

// addRows records every tuple of rows under the probability mass; a row
// repeated within the call adds nothing, so the mass is not double-counted
// (the paper aggregates distinct answers per mapping).  No rows at all send
// the mass to the empty answer.
func (g *aggregator) addRows(rows []engine.Tuple, prob float64) {
	if len(rows) == 0 {
		g.addEmpty(prob)
		return
	}
	g.calls++
	for _, row := range rows {
		g.addHashed(row.Hash64(), row, prob, true)
	}
}

// addEmpty records probability mass for the empty (θ) answer.
func (g *aggregator) addEmpty(prob float64) { g.emptyProb += prob }

// take is the aggregator as an answerSink: it folds every group in and never
// stops the feed.
func (g *aggregator) take(_ int, prob float64, rows []engine.Tuple) bool {
	g.addRows(rows, prob)
	return false
}

// sorted returns the aggregated entries in canonical answer order, keys
// computed once per entry rather than inside the comparator, and the empty
// answer's mass.  Both the materialized path and the streaming Cursor consume
// this order, so streamed and materialized results are identical answer for
// answer.
func (g *aggregator) sorted() ([]*aggEntry, float64) {
	out := slices.Clone(g.order)
	for _, e := range out {
		e.key = e.tuple.Key()
	}
	slices.SortFunc(out, compareEntries)
	return out, g.emptyProb
}

// compareEntries is the canonical answer order: descending probability, ties
// broken by canonical tuple key — a total order, since distinct answers have
// distinct keys.
func compareEntries(a, b *aggEntry) int {
	if a.prob != b.prob {
		if a.prob > b.prob {
			return -1
		}
		return 1
	}
	return strings.Compare(a.key, b.key)
}

// answerSink is where an execution's groups end and its answers are read
// from: the aggregator, whose answers are the whole distribution, or — when
// the options ask for the top k — topkBounds, which may stop the feed early.
// An unsharded run and ScatterPlan.Merge pick it the same way (newSink).
type answerSink interface {
	// take folds one group's rows in under the group's mass, in group order,
	// and reports whether the feed may stop.
	take(gi int, prob float64, rows []engine.Tuple) (stop bool)
	// sorted returns the answers' entries in canonical order and the empty
	// answer's mass.
	sorted() ([]*aggEntry, float64)
}

// newSink returns the sink for the top k answers when k is positive, else an
// aggregator; pre is mass the empty answer holds before any group
// (ScatterPlan.PreEmptyProb).
func newSink(k int, pre float64) answerSink {
	if k > 0 {
		return newTopkBounds(k, pre)
	}
	agg := newAggregator()
	agg.addEmpty(pre)
	return agg
}

// finalize reads the sink's answers into the result and accounts the time to
// the aggregation phase.
func finalize(s answerSink, res *Result) {
	start := time.Now()
	entries, emptyProb := s.sorted()
	res.Answers = answersOf(entries)
	res.EmptyProb = emptyProb
	res.AggregateTime += time.Since(start)
}

// answersOf copies sorted entries out as answers.
func answersOf(entries []*aggEntry) []Answer {
	out := make([]Answer, len(entries))
	for i, e := range entries {
		out[i] = Answer{Tuple: e.tuple, Prob: e.prob}
	}
	return out
}

// OutputColumns derives display labels for the query's answers: projection
// references or the aggregate name.  A parsed SELECT * is the projection of
// every attribute of its relations; only a hand-built tree with neither
// returns nil.
func OutputColumns(q *query.Query) []string {
	switch root := q.Root.(type) {
	case *query.Project:
		cols := make([]string, len(root.Refs))
		for i, r := range root.Refs {
			cols[i] = r.String()
		}
		return cols
	case *query.Aggregate:
		if root.Ref.IsZero() {
			return []string{root.Func.String()}
		}
		return []string{fmt.Sprintf("%s(%s)", root.Func, root.Ref)}
	default:
		return nil
	}
}

// validateInputs checks the arguments shared by all evaluation methods and
// returns the query's resolution.
func validateInputs(q *query.Query, maps schema.MappingSet, db *engine.Instance) (*query.Resolution, error) {
	if q == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	res, err := q.Resolve()
	if err != nil {
		return nil, fmt.Errorf("core: invalid query: %w", err)
	}
	if len(maps) == 0 {
		return nil, fmt.Errorf("core: empty mapping set")
	}
	if err := maps.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid mapping set: %w", err)
	}
	if db == nil {
		return nil, fmt.Errorf("core: nil source instance")
	}
	return res, nil
}
