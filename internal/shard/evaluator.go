package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
)

// Evaluator evaluates prepared queries by scatter-gather over shard
// instances.  It partitions the instance once (re-slicing lazily when the
// partitioned relation's rows change) and is safe for concurrent use.
//
// Every method distributes, top-k included: a top-k run walks o-sharing's
// u-trace whole on every shard and the merge feeds the merged leaves to the
// top-k bounds, which stop where the unsharded walk stops.  A front half whose
// shape refuses the partitioned relation (self-joins on it, aggregates) falls
// back to unsharded evaluation on the original instance, which trivially
// preserves the bit-identical-answers contract.  Fallbacks are counted so
// callers and tests can observe them.
type Evaluator struct {
	part *Partitioner
	base *engine.Instance

	mu      sync.Mutex
	shards  []*engine.Instance
	version uint64
	rows    int

	fallbacks int
}

// NewEvaluator builds a partitioner for the spec and partitions the instance.
func NewEvaluator(db *engine.Instance, spec Spec) (*Evaluator, error) {
	p, err := NewPartitioner(db, spec)
	if err != nil {
		return nil, err
	}
	ev := &Evaluator{part: p, base: db}
	if _, err := ev.instances(); err != nil {
		return nil, err
	}
	return ev, nil
}

// Partitioner returns the evaluator's partitioner.
func (ev *Evaluator) Partitioner() *Partitioner { return ev.part }

// Fallbacks returns how many executions fell back to unsharded evaluation.
func (ev *Evaluator) Fallbacks() int {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.fallbacks
}

// instances returns the shard instances, re-partitioning if the partitioned
// relation changed since the last slice (appends route new rows to their
// shard on the next execution; range boundaries stay fixed at construction so
// placement of existing rows never moves).
func (ev *Evaluator) instances() ([]*engine.Instance, error) {
	rel := ev.base.Relation(ev.part.Spec().Relation)
	if rel == nil {
		return nil, fmt.Errorf("shard: instance %s lost relation %q", ev.base.Name, ev.part.Spec().Relation)
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if ev.shards == nil || rel.Version() != ev.version || len(rel.Rows) != ev.rows {
		shards, err := ev.part.Partition(ev.base)
		if err != nil {
			return nil, err
		}
		ev.shards = shards
		ev.version = rel.Version()
		ev.rows = len(rel.Rows)
	}
	return ev.shards, nil
}

func (ev *Evaluator) noteFallback() {
	ev.mu.Lock()
	ev.fallbacks++
	ev.mu.Unlock()
}

// Execute evaluates the prepared query over the shards and merges the
// per-shard answer streams into a Result bit-identical to
// prep.ExecuteContext: same tuples, probabilities, order and empty-answer
// mass — the whole distribution, or the top opts.TopK answers.  A front half
// that does not distribute falls back to unsharded evaluation.
func (ev *Evaluator) Execute(ctx context.Context, prep *core.Prepared, opts core.Options) (*core.Result, error) {
	start := time.Now()
	ec := opts.Context(ctx)
	sp, err := prep.FrontHalf(ec, opts)
	if err != nil {
		return nil, err
	}
	if !sp.DistributesOver(ev.part.Spec().Relation) {
		ev.noteFallback()
		return prep.ExecuteContext(ctx, opts)
	}
	shards, err := ev.instances()
	if err != nil {
		return nil, err
	}
	runs, err := ExecuteShards(ec, sp, shards)
	if err != nil {
		return nil, err
	}
	res := sp.Result(prep.Query(), opts.TopK, runs...)
	// An evaluation that ends past its deadline fails rather than answering
	// late, whether or not the deadline's timer has fired (exec.Expired).
	if err := exec.Expired(ctx); err != nil {
		return nil, err
	}
	res.TotalTime = time.Since(start)
	return res, nil
}

// ExecuteShards runs the scatter plan on every shard instance, fanning the
// shards out over the runtime's worker pool.  Within a shard the plan runs
// with the leftover parallelism budget (at least sequential), so the total
// worker count stays bounded by ec.Parallelism regardless of shard count.
// Results are index-aligned with shards.
func ExecuteShards(ec *exec.Context, sp *core.ScatterPlan, shards []*engine.Instance) ([]*core.ShardRun, error) {
	inner := ec.Parallelism() / len(shards)
	if inner < 1 {
		inner = 1
	}
	runs := make([]*core.ShardRun, len(shards))
	err := exec.Map(ec, len(shards),
		func(ctx context.Context, i int) (*core.ShardRun, error) {
			sec := exec.NewContext(ctx, inner)
			return sp.ExecuteOn(sec, shards[i])
		},
		func(i int, run *core.ShardRun) error {
			runs[i] = run
			return nil
		})
	if err != nil {
		return nil, err
	}
	return runs, nil
}
