package core

import (
	"context"
	"fmt"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// The paper's methods by name, for the tests written against the one-shot
// drivers these used to be: each is Evaluator.EvaluateContext — Prepare, then
// one execution — under the runtime context's settings.

func Basic(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateContext(ec.Ctx(), q, Options{Method: MethodBasic, Parallelism: ec.Parallelism()})
}

func EBasic(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateContext(ec.Ctx(), q, Options{Method: MethodEBasic, Parallelism: ec.Parallelism()})
}

func EMQO(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateContext(ec.Ctx(), q, Options{Method: MethodEMQO, Parallelism: ec.Parallelism()})
}

func QSharing(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateContext(ec.Ctx(), q, Options{Method: MethodQSharing, Parallelism: ec.Parallelism()})
}

// OSharing and TopK read the strategy and seed from opts.
func OSharing(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance, opts Options) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateContext(ec.Ctx(), q, Options{Method: MethodOSharing, Strategy: opts.Strategy, RandomSeed: opts.RandomSeed, Parallelism: ec.Parallelism()})
}

func TopK(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance, k int, opts Options) (*Result, error) {
	return evaluateTopKContext(ec.Ctx(), NewEvaluator(db, maps), q, k, Options{Strategy: opts.Strategy, RandomSeed: opts.RandomSeed})
}

// The top-k entry points, for the tests written against them: a top-k run is
// an execution with Options.TopK set to k.  As the entry points did, they
// refuse k = 0, which as Options.TopK asks for the whole distribution; a
// negative k is the options' to refuse.

func executeTopK(p *Prepared, k int, opts Options) (*Result, error) {
	return executeTopKContext(context.Background(), p, k, opts)
}

func executeTopKContext(ctx context.Context, p *Prepared, k int, opts Options) (*Result, error) {
	if k == 0 {
		return nil, fmt.Errorf("%w: top-k requires k >= 1, got 0", ErrBadOptions)
	}
	opts.TopK = k
	return p.ExecuteContext(ctx, opts)
}

func evaluateTopK(e *Evaluator, q *query.Query, k int, opts Options) (*Result, error) {
	return evaluateTopKContext(context.Background(), e, q, k, opts)
}

func evaluateTopKContext(ctx context.Context, e *Evaluator, q *query.Query, k int, opts Options) (*Result, error) {
	p, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return executeTopKContext(ctx, p, k, opts)
}
