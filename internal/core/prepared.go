package core

import (
	"context"
	"fmt"
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
//   - o-sharing and top-k: the u-trace planned under the strategy (and, for
//     Random, the seed), which top-k walks as o-sharing does.
//
// Each front half is built lazily on first use and memoized; the execution
// whose call built it reports the build's wall time as Result.RewriteTime, and
// every other execution that uses it pays — and reports — only the execution
// and aggregation phases.  There is no other evaluation path: every method
// runs its memoized front half through one runner (ScatterPlan.executeInto)
// into a consumer, Evaluator.Evaluate is Prepare followed by Execute, and a
// shard's run and a delta-maintained answer run the same memoized group list.
//
// The prepared state references base relations by name, so executions always
// see the instance's current rows; only changes to the mapping set or the
// query require a new Prepared.  A Prepared is safe for concurrent use.
type Prepared struct {
	db   *engine.Instance
	maps schema.MappingSet
	q    *query.Query

	// mu guards the lazily built front halves below.
	mu     sync.Mutex
	plans  [MethodQSharing + 1]*ScatterPlan // indexed by Method
	traces map[traceKey]*ScatterPlan
}

// traceKey is what o-sharing's u-trace depends on besides the query and the
// mappings: the strategy, and the seed under StrategyRandom only.
type traceKey struct {
	strategy Strategy
	seed     int64
}

// Prepare binds the query to the evaluator's instance and mapping set and
// returns its prepared form.  Validation happens here; the front halves are
// built on first execution with each method (and strategy).
func (e *Evaluator) Prepare(q *query.Query) (*Prepared, error) {
	if err := validateInputs(q, e.Maps, e.DB); err != nil {
		return nil, err
	}
	return &Prepared{db: e.DB, maps: e.Maps, q: q, traces: make(map[traceKey]*ScatterPlan)}, nil
}

// Query returns the prepared target query.
func (p *Prepared) Query() *query.Query { return p.q }

// memoized returns *slot, building it first when it is unset, and the wall
// time the build took — zero for every call that found the front half there,
// including one that waited on p.mu while another call built it, so exactly
// one execution reports a front half's rewrite phase.  The caller holds p.mu.
// Builds are memoized on success only, so a build aborted by cancellation
// retries.
func memoized(slot **ScatterPlan, build func() (*ScatterPlan, error)) (*ScatterPlan, time.Duration, error) {
	if *slot != nil {
		return *slot, 0, nil
	}
	start := time.Now()
	v, err := build()
	if err != nil {
		return nil, 0, err
	}
	*slot = v
	return v, time.Since(start), nil
}

// FrontHalf returns the group list of the options' method, memoized, together
// with the wall time this call spent building it (zero when it was there
// already).  MethodOSharing returns ErrNotShardable: o-sharing's front half is
// a u-trace, which no shard or delta pass runs.
func (p *Prepared) FrontHalf(ec *exec.Context, opts Options) (*ScatterPlan, time.Duration, error) {
	if err := opts.Validate(); err != nil {
		return nil, 0, err
	}
	if err := ec.Err(); err != nil {
		return nil, 0, err
	}
	if opts.Method == MethodOSharing {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotShardable, opts.Method)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.groupList(ec, opts.Method)
}

// Scatter is FrontHalf for callers that report no rewrite phase: two calls
// for one method return the same plan.
func (p *Prepared) Scatter(ec *exec.Context, opts Options) (*ScatterPlan, error) {
	sp, _, err := p.FrontHalf(ec, opts)
	return sp, err
}

// groupList is FrontHalf with p.mu held.  e-basic clusters basic's list and
// e-MQO optimises e-basic's, so a list another is derived from is built — and
// memoized for its own method — on the way.  A list's shape is analysed as it
// is memoized, so every reader of the verdict reads the one taken here.
func (p *Prepared) groupList(ec *exec.Context, m Method) (*ScatterPlan, time.Duration, error) {
	return memoized(&p.plans[m], func() (sp *ScatterPlan, err error) {
		switch m {
		case MethodBasic:
			sp, err = mappingGroups(ec, m, p.q, p.maps)
		case MethodEBasic:
			if sp, _, err = p.groupList(ec, MethodBasic); err == nil {
				sp = clusterGroups(sp)
			}
		case MethodEMQO:
			if sp, _, err = p.groupList(ec, MethodEBasic); err == nil {
				sp, err = globalGroups(sp)
			}
		default:
			sp, err = representativeGroups(ec, p.q, p.maps)
		}
		if err != nil {
			return nil, err
		}
		sp.analyse()
		return sp, nil
	})
}

// trace returns o-sharing's front half for the options' strategy (and seed),
// memoized like a group list: the u-trace planned over the mappings, as a plan
// whose Partitions are the top-level representatives.
func (p *Prepared) trace(ec *exec.Context, opts Options) (*ScatterPlan, time.Duration, error) {
	key := traceKey{strategy: opts.Strategy}
	if opts.Strategy == StrategyRandom {
		key.seed = opts.RandomSeed
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	slot := p.traces[key]
	sp, rewrite, err := memoized(&slot, func() (*ScatterPlan, error) {
		tr, err := planTrace(ec, p.q, p.maps, p.db, key.strategy, key.seed)
		if err != nil {
			return nil, fmt.Errorf("o-sharing: %w", err)
		}
		return &ScatterPlan{Method: MethodOSharing, Partitions: len(tr.root.part.Mappings), trace: tr}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	p.traces[key] = sp
	return sp, rewrite, nil
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
	res, agg, err := p.run(ctx, opts)
	if err != nil {
		return nil, err
	}
	agg.finalize(res)
	res.TotalTime = time.Since(start)
	return res, nil
}

// StreamContext runs the prepared query and returns a cursor over its answers
// in canonical order (descending probability, ties by tuple key) instead of a
// materialized answer slice.  The evaluation and aggregation run before
// StreamContext returns — the canonical order is only known once every
// mapping's contribution is merged — but the answer slice is never built:
// each Answer is produced as the cursor advances, so callers that serialize
// or early-exit never hold the full result.
func (p *Prepared) StreamContext(ctx context.Context, opts Options) (*Cursor, error) {
	start := time.Now()
	res, agg, err := p.run(ctx, opts)
	if err != nil {
		return nil, err
	}
	aggStart := time.Now()
	entries := agg.sortedEntries()
	res.EmptyProb = agg.emptyProb
	res.AggregateTime += time.Since(aggStart)
	res.TotalTime = time.Since(start)
	return newCursor(res, entries), nil
}

// run executes the prepared query under the chosen method, returning the
// result skeleton and the loaded aggregator.  The method's front half — its
// group list, or o-sharing's u-trace — runs on the instance with the
// aggregating consumer: each group's rows are deduplicated and added under the
// group's probability on this goroutine, in group order, as they are delivered
// — one hash pass per row, no per-group set built, which is why an unsharded
// execution is not the one-shard case of ExecuteOn followed by Result
// (DESIGN.md "Prepared queries" has the numbers).
func (p *Prepared) run(ctx context.Context, opts Options) (*Result, *aggregator, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	ec := opts.Context(ctx)
	if err := ec.Err(); err != nil {
		return nil, nil, err
	}
	sp, rewrite, err := p.frontHalf(ec, opts)
	if err != nil {
		return nil, nil, err
	}
	agg := newAggregator()
	agg.addEmpty(sp.PreEmptyProb)
	var aggTime time.Duration
	res, err := p.execute(ec, sp, rewrite, groupConsumer{inOrder: true, take: func(_ int, prob float64, rows []engine.Tuple) bool {
		start := time.Now()
		agg.addRows(rows, prob)
		aggTime += time.Since(start)
		return false
	}})
	if err != nil {
		return nil, nil, err
	}
	res.AggregateTime = aggTime
	return res, agg, nil
}

// frontHalf is the memoized front half an execution under the options runs.
func (p *Prepared) frontHalf(ec *exec.Context, opts Options) (*ScatterPlan, time.Duration, error) {
	if opts.Method == MethodOSharing {
		return p.trace(ec, opts)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.groupList(ec, opts.Method)
}

// execute runs the front half on the whole instance into the consumer and
// returns the result skeleton.
func (p *Prepared) execute(ec *exec.Context, sp *ScatterPlan, rewrite time.Duration, c groupConsumer) (*Result, error) {
	run := &ShardRun{Stats: engine.NewStats()}
	if err := sp.executeInto(ec, p.db, run, c); err != nil {
		return nil, err
	}
	return sp.newResult(p.q, rewrite, []*ShardRun{run}), nil
}

// ExecuteTopK runs the probabilistic top-k algorithm over the prepared query.
func (p *Prepared) ExecuteTopK(k int, opts Options) (*Result, error) {
	return p.ExecuteTopKContext(context.Background(), k, opts)
}

// ExecuteTopKContext is ExecuteTopK under a context: it walks o-sharing's
// u-trace for the options' strategy into the top-k bounds, which stop the walk
// once the top k are decided.  The walk is inherently sequential (the
// early-termination bounds depend on visit order), so opts.Parallelism is
// ignored; cancellation and deadlines are honoured.
func (p *Prepared) ExecuteTopKContext(ctx context.Context, k int, opts Options) (*Result, error) {
	start := time.Now()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: top-k requires k >= 1, got %d", ErrBadOptions, k)
	}
	ec := opts.Context(ctx).WithParallelism(1)
	if err := ec.Err(); err != nil {
		return nil, err
	}
	sp, rewrite, err := p.trace(ec, opts)
	if err != nil {
		return nil, err
	}
	top := newTopkBounds(k)
	res, err := p.execute(ec, sp, rewrite, top.consumer())
	if err != nil {
		return nil, err
	}
	aggStart := time.Now()
	res.Method = MethodTopK
	res.Answers = top.topK()
	res.EmptyProb = top.emptyProb
	res.AggregateTime = time.Since(aggStart)
	res.TotalTime = time.Since(start)
	return res, nil
}

// StreamTopKContext is ExecuteTopKContext returning a cursor over the top-k
// answers.  Top-k results are at most k answers, so the cursor is a
// convenience for API symmetry rather than a memory saver.
func (p *Prepared) StreamTopKContext(ctx context.Context, k int, opts Options) (*Cursor, error) {
	res, err := p.ExecuteTopKContext(ctx, k, opts)
	if err != nil {
		return nil, err
	}
	answers := res.Answers
	res.Answers = nil
	return newCursorAnswers(res, answers), nil
}
