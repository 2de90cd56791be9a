package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// ErrBadOptions marks an Options value that fails validation (negative
// parallelism, batch size or top-k, unknown method or strategy).  Errors
// returned by Options.Validate and the evaluation entry points wrap it, so
// callers can test with errors.Is.
var ErrBadOptions = errors.New("invalid evaluation options")

// Method enumerates the evaluation algorithms described in the paper.
type Method int

// Evaluation methods.
const (
	// MethodBasic reformulates and executes one source query per mapping
	// (Section III-B, "basic").
	MethodBasic Method = iota
	// MethodEBasic clusters identical source queries before execution
	// (Section III-B, "e-basic").
	MethodEBasic
	// MethodEMQO runs a multiple-query-optimisation pass over the distinct
	// source queries before executing the shared global plan (Section III-B,
	// "e-MQO").
	MethodEMQO
	// MethodQSharing partitions mappings that produce the same source query
	// using the partition tree and evaluates one query per partition
	// (Section IV).
	MethodQSharing
	// MethodOSharing shares work at the operator level with e-units and a
	// u-trace (Sections V–VI).
	MethodOSharing
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MethodBasic:
		return "basic"
	case MethodEBasic:
		return "e-basic"
	case MethodEMQO:
		return "e-MQO"
	case MethodQSharing:
		return "q-sharing"
	case MethodOSharing:
		return "o-sharing"
	case MethodTopK:
		return "top-k"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod converts a method name ("basic", "e-basic", "e-mqo",
// "q-sharing", "o-sharing") into a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "basic":
		return MethodBasic, nil
	case "e-basic", "ebasic":
		return MethodEBasic, nil
	case "e-mqo", "emqo", "e-MQO":
		return MethodEMQO, nil
	case "q-sharing", "qsharing":
		return MethodQSharing, nil
	case "o-sharing", "osharing":
		return MethodOSharing, nil
	default:
		return 0, fmt.Errorf("unknown evaluation method %q", s)
	}
}

// Strategy enumerates the o-sharing operator-selection strategies of
// Section VI-A.
type Strategy int

// Operator selection strategies.
const (
	// StrategySEF (Smallest Entropy First) picks the operator whose mapping
	// partition distribution has the lowest entropy.  It is the paper's best
	// performer and the default.
	StrategySEF Strategy = iota
	// StrategySNF (Smallest Number of partitions First) picks the operator
	// with the fewest mapping partitions.
	StrategySNF
	// StrategyRandom picks uniformly at random among executable operators.
	StrategyRandom
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategySEF:
		return "SEF"
	case StrategySNF:
		return "SNF"
	case StrategyRandom:
		return "Random"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy converts a strategy name into a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "SEF", "sef":
		return StrategySEF, nil
	case "SNF", "snf":
		return StrategySNF, nil
	case "Random", "random":
		return StrategyRandom, nil
	default:
		return 0, fmt.Errorf("unknown operator selection strategy %q", s)
	}
}

// Options tunes query evaluation.
type Options struct {
	// Method selects the evaluation algorithm.  Defaults to MethodOSharing.
	Method Method
	// Strategy selects the o-sharing operator-selection strategy.  Defaults to
	// StrategySEF.
	Strategy Strategy
	// RandomSeed seeds StrategyRandom so runs are reproducible.
	RandomSeed int64
	// Parallelism bounds the number of worker goroutines the evaluation
	// runtime may use.  0 (the default) selects runtime.GOMAXPROCS(0); 1
	// forces sequential execution.  Answers are identical — same tuples, same
	// probabilities, same order — at every setting; parallelism is purely a
	// performance knob.
	Parallelism int
	// TopK, when positive, asks for the k most probable answers through the
	// probabilistic top-k algorithm of Section VII instead of the whole
	// distribution (0, the default).  A top-k run walks o-sharing's u-trace
	// for Strategy (and RandomSeed) whatever Method says, sequentially — its
	// early stop depends on the visit order — and reports each answer's lower
	// bound as its probability, with Result.Method MethodTopK.
	TopK int
}

// Validate checks the options for values no evaluation can honour: a negative
// parallelism (0 means GOMAXPROCS, 1 sequential; below that is a caller bug,
// not a request for "less than sequential"), a negative top-k, an unknown
// method or an unknown strategy.  Returned errors wrap ErrBadOptions.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return fmt.Errorf("%w: negative parallelism %d", ErrBadOptions, o.Parallelism)
	}
	if o.TopK < 0 {
		return fmt.Errorf("%w: negative top-k %d", ErrBadOptions, o.TopK)
	}
	switch o.Method {
	case MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing:
	default:
		return fmt.Errorf("%w: unknown method %v", ErrBadOptions, o.Method)
	}
	switch o.Strategy {
	case StrategySEF, StrategySNF, StrategyRandom:
	default:
		return fmt.Errorf("%w: unknown strategy %v", ErrBadOptions, o.Strategy)
	}
	return nil
}

// Context returns the evaluation runtime context for the options: the caller's
// context with the options' worker bound.  Every entry point that executes
// under Options builds its runtime here, so a tuning field cannot be applied
// on one path and dropped on another.
func (o Options) Context(ctx context.Context) *exec.Context {
	return exec.NewContext(ctx, o.Parallelism)
}

// FrontMethod is the method whose front half an execution under the options
// runs: o-sharing for a top-k run, which is o-sharing's walk with another
// consumer, else Method.
func (o Options) FrontMethod() Method {
	if o.TopK > 0 {
		return MethodOSharing
	}
	return o.Method
}

// Evaluator binds a source instance to a set of possible mappings; Prepare
// binds a target query to the pair, and the Prepared is what evaluates.  The
// Evaluate methods are the one-shot form — Prepare followed by one execution,
// the paper's cold evaluation: front half and back half, every time.
//
// All evaluation methods (and top-k) share the instance's base-relation index
// cache (engine.Instance.Indexes): constant-equality selections and equi-join
// builds over base relations are served from per-column hash indexes that are
// built once per instance — under concurrency, exactly once — instead of once
// per reformulated source query.  Answers are bit-identical with the cache
// enabled or disabled (engine.Instance.SetIndexing).
type Evaluator struct {
	DB   *engine.Instance
	Maps schema.MappingSet
}

// NewEvaluator returns an evaluator over the instance and mapping set.
func NewEvaluator(db *engine.Instance, maps schema.MappingSet) *Evaluator {
	return &Evaluator{DB: db, Maps: maps}
}

// Evaluate runs the target query with the selected method and returns its
// probabilistic answers.
func (e *Evaluator) Evaluate(q *query.Query, opts Options) (*Result, error) {
	return e.EvaluateContext(context.Background(), q, opts)
}

// EvaluateContext runs the target query with the selected method under the
// given context.  The evaluation runtime checks the context between and inside
// operators, so cancelling it (or letting its deadline pass) aborts the
// evaluation promptly with the context's error.  Work fans out over
// opts.Parallelism worker goroutines; answers do not depend on the setting.
func (e *Evaluator) EvaluateContext(ctx context.Context, q *query.Query, opts Options) (*Result, error) {
	p, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.ExecuteContext(ctx, opts)
}
