package core

import (
	"context"
	"sync"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// Prepared is a target query bound to an evaluator whose front half — the
// work that depends only on the query and the mapping set, not on the data —
// is computed once and reused across executions:
//
//   - basic, e-basic, e-MQO, q-sharing: the method's group list (ScatterPlan),
//     which is the method;
//   - o-sharing: the u-trace planned under the strategy (and, for Random, the
//     seed), which a top-k run (Options.TopK) walks too.
//
// Each front half is built lazily on first use and memoized; the execution
// whose call built it reports the build's wall time as Result.RewriteTime, and
// every other execution that uses it pays — and reports — only the execution
// and aggregation phases.  There is no other evaluation path: every method
// runs its memoized front half through one runner (ScatterPlan.executeInto)
// into a consumer — the aggregator, or top-k's bounds — Evaluator.Evaluate is
// Prepare followed by Execute, and a shard's run and a delta-maintained answer
// run the same memoized front half.
//
// The prepared state references base relations by name, so executions always
// see the instance's current rows; only changes to the mapping set or the
// query require a new Prepared.  A Prepared is safe for concurrent use.
type Prepared struct {
	db   *engine.Instance
	maps schema.MappingSet
	// res is the query with every reference resolved, once, by Prepare.
	res *query.Resolution

	// mu guards the lazily built front halves.
	mu     sync.Mutex
	fronts map[frontKey]*ScatterPlan
	// unreported holds the build time of front halves whose building call
	// reported no result (Maintain refused the plan), for the next call that
	// finds them to report.
	unreported map[*ScatterPlan]time.Duration
}

// frontKey is what a front half depends on besides the query and the
// mappings: the method, and for o-sharing's u-trace the strategy and, under
// StrategyRandom only, the seed.
type frontKey struct {
	method   Method
	strategy Strategy
	seed     int64
}

// Prepare binds the query to the evaluator's instance and mapping set and
// returns its prepared form.  Validation happens here, and resolves every
// attribute reference of the query once for every front half to read; the
// front halves are built on first execution with each method (and strategy).
func (e *Evaluator) Prepare(q *query.Query) (*Prepared, error) {
	res, err := validateInputs(q, e.Maps, e.DB)
	if err != nil {
		return nil, err
	}
	return &Prepared{db: e.DB, maps: e.Maps, res: res, fronts: make(map[frontKey]*ScatterPlan)}, nil
}

// Query returns the prepared target query.
func (p *Prepared) Query() *query.Query { return p.res.Query }

// Resolution returns the prepared query's resolved references.
func (p *Prepared) Resolution() *query.Resolution { return p.res }

// FrontHalf returns the memoized front half an execution under the options
// runs — the method's group list, or o-sharing's u-trace for the strategy
// (and seed), which a top-k run walks whatever its method — together with the
// wall time this call spent building it.  That is zero for every call that
// found the front half there, including one that waited while another call
// built it, so exactly one execution reports a front half's rewrite phase —
// except when the building call handed the time back (unreport): then the
// next call to find the front half reports it.
func (p *Prepared) FrontHalf(ec *exec.Context, opts Options) (*ScatterPlan, time.Duration, error) {
	if err := opts.Validate(); err != nil {
		return nil, 0, err
	}
	if err := ec.Err(); err != nil {
		return nil, 0, err
	}
	key := frontKey{method: opts.FrontMethod()}
	if key.method == MethodOSharing {
		key.strategy = opts.Strategy
		if opts.Strategy == StrategyRandom {
			key.seed = opts.RandomSeed
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	sp, rewrite, err := p.build(ec, key)
	if err == nil && !sp.compiled {
		// Compiled as the method is first asked for, not as an intermediate
		// another method's list was derived from: e-MQO's build never
		// compiles basic's hundred plans.
		start := time.Now()
		sp.compile(p.db)
		rewrite += time.Since(start)
	}
	if err == nil && rewrite == 0 {
		rewrite = p.unreported[sp]
		delete(p.unreported, sp)
	}
	return sp, rewrite, err
}

// unreport hands back the build time of sp by a call that reports no result,
// so the rewrite phase still reaches exactly one execution's Result.
func (p *Prepared) unreport(sp *ScatterPlan, rewrite time.Duration) {
	if rewrite == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.unreported == nil {
		p.unreported = make(map[*ScatterPlan]time.Duration)
	}
	p.unreported[sp] += rewrite
}

// build is FrontHalf with p.mu held.  e-basic clusters basic's list and e-MQO
// optimises e-basic's, so a list another is derived from is built — and
// memoized for its own method — on the way.  A front half's shape is decided
// as it is memoized, so every reader of the verdict reads the one taken here.
// Builds are memoized on success only, so a build aborted by cancellation
// retries.
func (p *Prepared) build(ec *exec.Context, key frontKey) (sp *ScatterPlan, _ time.Duration, err error) {
	if sp := p.fronts[key]; sp != nil {
		return sp, 0, nil
	}
	start := time.Now()
	switch key.method {
	case MethodBasic:
		sp, err = mappingGroups(ec, key.method, p.res, p.maps)
	case MethodEBasic:
		if sp, _, err = p.build(ec, frontKey{method: MethodBasic}); err == nil {
			sp = clusterGroups(sp)
		}
	case MethodEMQO:
		if sp, _, err = p.build(ec, frontKey{method: MethodEBasic}); err == nil {
			sp, err = globalGroups(sp)
		}
	case MethodQSharing:
		sp, err = representativeGroups(ec, p.res, p.maps)
	case MethodOSharing:
		sp, err = planTrace(ec, key.method, p.res, p.maps, p.db, key.strategy, key.seed)
	}
	if err != nil {
		return nil, 0, err
	}
	if sp.shape == nil {
		sp.analyse() // a list's; the planner gave the trace its own
	}
	p.fronts[key] = sp
	return sp, time.Since(start), nil
}

// Execute runs the prepared query with the given options and returns the
// materialized result.
func (p *Prepared) Execute(opts Options) (*Result, error) {
	return p.ExecuteContext(context.Background(), opts)
}

// ExecuteContext is Execute under a context: cancellation or a deadline
// aborts the execution promptly with the context's error.
func (p *Prepared) ExecuteContext(ctx context.Context, opts Options) (*Result, error) {
	start := time.Now()
	res, sink, err := p.run(ctx, opts)
	if err != nil {
		return nil, err
	}
	finalize(sink, res)
	// An evaluation that ends past its deadline fails rather than answering
	// late, whether or not the deadline's timer has fired (exec.Expired).
	if err := exec.Expired(ctx); err != nil {
		return nil, err
	}
	res.TotalTime = time.Since(start)
	return res, nil
}

// StreamContext runs the prepared query and returns a cursor over its answers
// in canonical order (descending probability, ties by tuple key) instead of a
// materialized answer slice.  The evaluation and aggregation run before
// StreamContext returns — the canonical order is only known once every
// mapping's contribution is merged — but the answer slice is never built:
// each Answer is produced as the cursor advances, so callers that serialize
// or early-exit never hold the full result.  A top-k run's cursor holds at
// most k answers.
func (p *Prepared) StreamContext(ctx context.Context, opts Options) (*Cursor, error) {
	start := time.Now()
	res, sink, err := p.run(ctx, opts)
	if err != nil {
		return nil, err
	}
	aggStart := time.Now()
	entries, emptyProb := sink.sorted()
	if err := exec.Expired(ctx); err != nil {
		return nil, err
	}
	res.EmptyProb = emptyProb
	res.AggregateTime += time.Since(aggStart)
	res.TotalTime = time.Since(start)
	return newCursor(res, entries), nil
}

// run executes the prepared query under the options, returning the result
// skeleton and the loaded answer sink.  The front half — the method's group
// list, or o-sharing's u-trace — runs on the instance into the sink the
// options pick: the aggregator, where each group's rows are deduplicated and
// added under the group's probability on this goroutine, in group order, as
// they are delivered — one hash pass per row, no per-group set built, which
// is why an unsharded execution is not the one-shard case of ExecuteOn
// followed by Result (DESIGN.md "Prepared queries" has the numbers) — or, for
// a top-k run, the bounds, which stop the walk once the top k are decided.
// Where that happens depends on the visit order, so a top-k run walks
// sequentially whatever opts.Parallelism says.
func (p *Prepared) run(ctx context.Context, opts Options) (*Result, answerSink, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	ec := opts.Context(ctx)
	if opts.TopK > 0 {
		ec = ec.WithParallelism(1)
	}
	sp, rewrite, err := p.FrontHalf(ec, opts)
	if err != nil {
		return nil, nil, err
	}
	sink := newSink(opts.TopK, sp.PreEmptyProb)
	var aggTime time.Duration
	run := &ShardRun{Stats: engine.NewStats()}
	err = sp.executeInto(ec, p.db, run, groupConsumer{inOrder: true, take: func(gi int, prob float64, rows []engine.Tuple) bool {
		start := time.Now()
		stop := sink.take(gi, prob, rows)
		aggTime += time.Since(start)
		return stop
	}})
	if err != nil {
		return nil, nil, err
	}
	res := sp.newResult(p.res.Query, rewrite, opts.TopK, []*ShardRun{run})
	res.AggregateTime = aggTime
	return res, sink, nil
}
