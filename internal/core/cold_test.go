package core

import (
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// The paper's methods by name, for the tests written against the one-shot
// drivers these used to be: each is Evaluator.EvaluateContext — Prepare, then
// one execution — under the runtime context's settings.

func Basic(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateContext(ec.Ctx(), q, Options{Method: MethodBasic, Parallelism: ec.Parallelism(), BatchSize: ec.Batch()})
}

func EBasic(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateContext(ec.Ctx(), q, Options{Method: MethodEBasic, Parallelism: ec.Parallelism(), BatchSize: ec.Batch()})
}

func EMQO(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateContext(ec.Ctx(), q, Options{Method: MethodEMQO, Parallelism: ec.Parallelism(), BatchSize: ec.Batch()})
}

func QSharing(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateContext(ec.Ctx(), q, Options{Method: MethodQSharing, Parallelism: ec.Parallelism(), BatchSize: ec.Batch()})
}

// OSharing and TopK read the strategy and seed from opts.
func OSharing(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance, opts Options) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateContext(ec.Ctx(), q, Options{Method: MethodOSharing, Strategy: opts.Strategy, RandomSeed: opts.RandomSeed, Parallelism: ec.Parallelism(), BatchSize: ec.Batch()})
}

func TopK(ec *exec.Context, q *query.Query, maps schema.MappingSet, db *engine.Instance, k int, opts Options) (*Result, error) {
	return NewEvaluator(db, maps).EvaluateTopKContext(ec.Ctx(), q, k, Options{Strategy: opts.Strategy, RandomSeed: opts.RandomSeed, BatchSize: ec.Batch()})
}
