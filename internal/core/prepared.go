package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/mqo"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// Prepared is a target query bound to an evaluator whose front half — the
// work that depends only on the query and the mapping set, not on the data —
// is computed once and reused across executions:
//
//   - basic/e-basic/e-MQO: the per-mapping reformulated and optimized source
//     plans (and, for e-basic/e-MQO, their signature clusters and the MQO
//     global plan);
//   - q-sharing: the partition tree's representative mappings and their
//     reformulated plans;
//   - o-sharing/top-k: the normalized query and the top-level representative
//     mappings.
//
// Each method's front half is built lazily on first use (under the chosen
// method) and memoized; every subsequent Execute/Stream with that method pays
// only the execution and aggregation phases.  Answers are bit-identical to an
// unprepared evaluation — same tuples, probabilities, order and operator
// counts — because the prepared state is exactly what the cold path would
// recompute.
//
// The prepared state references base relations by name, so executions always
// see the instance's current rows; only changes to the mapping set or the
// query require a new Prepared.  A Prepared is safe for concurrent use.
type Prepared struct {
	db   *engine.Instance
	maps schema.MappingSet
	q    *query.Query

	// mu guards the lazily built per-method front halves below.  Builds are
	// memoized on success only, so a build aborted by cancellation retries.
	mu       sync.Mutex
	plans    []engine.Plan // per-mapping optimized plans, index-aligned with maps (nil = not covered)
	ebasic   *clusterPrep
	emqo     *emqoPrep
	qsharing *qsharingPrep
	osharing *osharingPrep
}

// clusterPrep is the e-basic front half: distinct source plans clustered by
// signature, plus the bookkeeping clusterPlans derived from the per-mapping
// plans.
type clusterPrep struct {
	clusters  map[string]*planCluster
	order     []string
	emptyProb float64
	rewritten int
}

// emqoPrep extends the cluster front half with the MQO global plan.  global
// is nil when no mapping covers the query.
type emqoPrep struct {
	clusterPrep
	global *mqo.Plan
	probs  map[string]float64
}

// qsharingPrep is the q-sharing front half: one representative mapping per
// partition with the partition's probability, and its reformulated plan.
type qsharingPrep struct {
	reps       []weightedMapping
	plans      []engine.Plan // index-aligned with reps (nil = not covered)
	partitions int
}

// Prepare binds the query to the evaluator's instance and mapping set and
// returns its prepared form.  Validation happens here; the per-method front
// halves are compiled on first execution with each method.
func (e *Evaluator) Prepare(q *query.Query) (*Prepared, error) {
	if err := validateInputs(q, e.Maps, e.DB); err != nil {
		return nil, err
	}
	return &Prepared{db: e.DB, maps: e.Maps, q: q}, nil
}

// Query returns the prepared target query.
func (p *Prepared) Query() *query.Query { return p.q }

// basicPlans returns (building once) the per-mapping optimized source plans.
func (p *Prepared) basicPlans(ec *exec.Context) ([]engine.Plan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.plans == nil {
		plans, err := rewriteAll(ec, p.q, p.maps, "prepare")
		if err != nil {
			return nil, err
		}
		p.plans = plans
	}
	return p.plans, nil
}

// ebasicPrep returns (building once) the signature clusters of the
// per-mapping plans.
func (p *Prepared) ebasicPrep(ec *exec.Context) (*clusterPrep, error) {
	plans, err := p.basicPlans(ec)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ebasic == nil {
		clusters, order, emptyProb, rewritten := clusterPlans(plans, p.maps)
		p.ebasic = &clusterPrep{clusters: clusters, order: order, emptyProb: emptyProb, rewritten: rewritten}
	}
	return p.ebasic, nil
}

// emqoPrep returns (building once) the MQO global plan over the distinct
// source plans.
func (p *Prepared) emqoPrep(ec *exec.Context) (*emqoPrep, error) {
	cp, err := p.ebasicPrep(ec)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.emqo == nil {
		ep := &emqoPrep{clusterPrep: *cp}
		if len(cp.order) > 0 {
			plans := make([]engine.Plan, 0, len(cp.order))
			probs := make(map[string]float64, len(cp.order))
			for _, sig := range cp.order {
				plans = append(plans, cp.clusters[sig].plan)
				probs[sig] = cp.clusters[sig].prob
			}
			global, err := mqo.Optimize(plans)
			if err != nil {
				return nil, fmt.Errorf("e-MQO: %w", err)
			}
			ep.global = global
			ep.probs = probs
		}
		p.emqo = ep
	}
	return p.emqo, nil
}

// qsharingFront returns (building once) the q-sharing representatives and
// their reformulated plans.
func (p *Prepared) qsharingFront(ec *exec.Context) (*qsharingPrep, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.qsharing == nil {
		parts, err := PartitionMappings(p.q, p.maps)
		if err != nil {
			return nil, fmt.Errorf("q-sharing: %w", err)
		}
		reps := Represent(parts)
		repMaps := make(schema.MappingSet, len(reps))
		for i := range reps {
			repMaps[i] = reps[i].mapping
		}
		plans, err := rewriteAll(ec, p.q, repMaps, "q-sharing")
		if err != nil {
			return nil, err
		}
		p.qsharing = &qsharingPrep{reps: reps, plans: plans, partitions: len(parts)}
	}
	return p.qsharing, nil
}

// osharingFront returns (building once) the o-sharing/top-k front half.
func (p *Prepared) osharingFront() (*osharingPrep, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.osharing == nil {
		prep, err := prepareOSharing(p.q, p.maps)
		if err != nil {
			return nil, fmt.Errorf("o-sharing: %w", err)
		}
		p.osharing = prep
	}
	return p.osharing, nil
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

// run executes the prepared query's back half under the chosen method,
// returning the result skeleton and the loaded aggregator.
func (p *Prepared) run(ctx context.Context, opts Options) (*Result, *aggregator, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	ec := exec.NewContext(ctx, opts.Parallelism).WithBatch(opts.BatchSize)
	if err := ec.Err(); err != nil {
		return nil, nil, err
	}
	res := &Result{Query: p.q, Method: opts.Method, Columns: OutputColumns(p.q), Stats: engine.NewStats()}
	agg := newAggregator()

	switch opts.Method {
	case MethodBasic:
		plans, err := p.basicPlans(ec)
		if err != nil {
			return nil, nil, fmt.Errorf("basic: %w", err)
		}
		probs := make([]float64, len(p.maps))
		for i, m := range p.maps {
			probs[i] = m.Prob
		}
		if err := executePlans(ec, p.db, plans, probs, "basic", res, agg); err != nil {
			return nil, nil, fmt.Errorf("basic: %w", err)
		}
	case MethodEBasic:
		cp, err := p.ebasicPrep(ec)
		if err != nil {
			return nil, nil, err
		}
		agg.addEmpty(cp.emptyProb)
		res.RewrittenQueries = cp.rewritten
		res.Partitions = len(cp.order)
		if err := executeClusters(ec, p.db, cp.clusters, cp.order, "e-basic", res, agg); err != nil {
			return nil, nil, err
		}
	case MethodEMQO:
		ep, err := p.emqoPrep(ec)
		if err != nil {
			return nil, nil, err
		}
		agg.addEmpty(ep.emptyProb)
		res.RewrittenQueries = ep.rewritten
		res.Partitions = len(ep.order)
		if ep.global != nil {
			if err := executeGlobal(ec, p.db, ep.global, ep.probs, res, agg); err != nil {
				return nil, nil, err
			}
		}
	case MethodQSharing:
		qp, err := p.qsharingFront(ec)
		if err != nil {
			return nil, nil, err
		}
		res.Partitions = qp.partitions
		probs := make([]float64, len(qp.reps))
		for i := range qp.reps {
			probs[i] = qp.reps[i].prob
		}
		if err := executePlans(ec, p.db, qp.plans, probs, "q-sharing", res, agg); err != nil {
			return nil, nil, fmt.Errorf("q-sharing: %w", err)
		}
	case MethodOSharing:
		prep, err := p.osharingFront()
		if err != nil {
			return nil, nil, err
		}
		sink := &collectSink{agg: agg}
		oo := OSharingOptions{Strategy: opts.Strategy, RandomSeed: opts.RandomSeed}
		if err := runOSharingPrepared(ec, prep, p.db, oo, res, sink); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("prepared execute: unknown method %v", opts.Method)
	}
	return res, agg, nil
}

// ExecuteTopK runs the probabilistic top-k algorithm over the prepared query.
func (p *Prepared) ExecuteTopK(k int, opts Options) (*Result, error) {
	return p.ExecuteTopKContext(context.Background(), k, opts)
}

// ExecuteTopKContext is ExecuteTopK under a context.  The traversal is
// inherently sequential (the early-termination bounds depend on visit order),
// so opts.Parallelism is ignored; cancellation and deadlines are honoured.
func (p *Prepared) ExecuteTopKContext(ctx context.Context, k int, opts Options) (*Result, error) {
	start := time.Now()
	res, sink, err := p.runTopK(ctx, k, opts)
	if err != nil {
		return nil, err
	}
	aggStart := time.Now()
	res.Answers = sink.topK()
	res.EmptyProb = sink.emptyProb
	res.AggregateTime = time.Since(aggStart)
	res.TotalTime = time.Since(start)
	return res, nil
}

// StreamTopKContext is ExecuteTopKContext returning a cursor over the top-k
// answers.  Top-k results are at most k answers, so the cursor is a
// convenience for API symmetry rather than a memory saver.
func (p *Prepared) StreamTopKContext(ctx context.Context, k int, opts Options) (*Cursor, error) {
	start := time.Now()
	res, sink, err := p.runTopK(ctx, k, opts)
	if err != nil {
		return nil, err
	}
	aggStart := time.Now()
	answers := sink.topK()
	res.EmptyProb = sink.emptyProb
	res.AggregateTime = time.Since(aggStart)
	res.TotalTime = time.Since(start)
	return newCursorAnswers(res, answers), nil
}

func (p *Prepared) runTopK(ctx context.Context, k int, opts Options) (*Result, *topkSink, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if k <= 0 {
		return nil, nil, fmt.Errorf("%w: top-k requires k >= 1, got %d", ErrBadOptions, k)
	}
	ec := exec.NewContext(ctx, 1).WithBatch(opts.BatchSize)
	if err := ec.Err(); err != nil {
		return nil, nil, err
	}
	prep, err := p.osharingFront()
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Query: p.q, Method: MethodTopK, Columns: OutputColumns(p.q), Stats: engine.NewStats()}
	sink := newTopkSink(k)
	oo := OSharingOptions{Strategy: opts.Strategy, RandomSeed: opts.RandomSeed}
	if err := runOSharingPrepared(ec, prep, p.db, oo, res, sink); err != nil {
		return nil, nil, err
	}
	return res, sink, nil
}

// executePlans executes one precompiled plan per (mapping, probability) pair
// on the worker pool and aggregates in index order — the prepared twin of
// basicOver, minus the rewriting that Prepare already paid.  A nil plan marks
// a mapping that does not cover the query; its mass goes to the empty answer.
func executePlans(ec *exec.Context, db *engine.Instance, plans []engine.Plan, probs []float64, label string, res *Result, agg *aggregator) error {
	return exec.Map(ec, len(plans),
		func(ctx context.Context, i int) (*mappingRun, error) {
			run := &mappingRun{stats: engine.NewStats()}
			if plans[i] == nil {
				return run, nil
			}
			execStart := time.Now()
			ex := &engine.Executor{DB: db, Stats: run.stats, Indexes: db.Indexes(), Batch: ec.Batch()}
			rel, err := ex.ExecuteContext(ctx, plans[i])
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
			if run.rel == nil {
				agg.addEmpty(probs[i])
				return nil
			}
			res.RewrittenQueries++
			res.ExecutedQueries++
			aggStart := time.Now()
			agg.addRelation(run.rel, probs[i])
			res.AggregateTime += time.Since(aggStart)
			return nil
		})
}
