package urm

import (
	"context"
	"fmt"
	"sync"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/server"
	"github.com/probdb/urm/internal/shard"
)

// Typed sentinel errors of the public API.  Errors returned by sessions,
// prepared queries and the query service wrap them, so callers classify
// failures with errors.Is instead of matching message strings:
//
//	ErrBadQuery        the query text does not parse or validate
//	ErrBadOptions      an option value no evaluation can honour
//	ErrUnknownScenario  the service request names an unregistered scenario
//	ErrOverloaded       the service shed the request (rate limit or no slot)
//	ErrDeadlineTooShort the request's deadline cannot cover the expected
//	                    evaluation latency, so the service shed it early
var (
	ErrBadQuery         = query.ErrBadQuery
	ErrBadOptions       = core.ErrBadOptions
	ErrUnknownScenario  = server.ErrUnknownScenario
	ErrOverloaded       = server.ErrOverloaded
	ErrDeadlineTooShort = server.ErrDeadlineTooShort
)

// Rows is a cursor over the answers of one evaluation, in canonical order
// (descending probability, ties broken by tuple key).  It follows the
// database/sql Rows contract — Next/Answer/Err/Close — and never materializes
// the full answer slice; see PreparedQuery.Stream.
type Rows = core.Cursor

// Option tunes one evaluation (or sets a session's defaults) — the functional
// alternative to filling an Options struct by hand:
//
//	prepared.Execute(ctx, urm.WithMethod(urm.QSharing), urm.WithParallelism(8))
//
// Options are applied in order; later options override earlier ones.  Invalid
// values (negative parallelism, k < 1, unknown method or strategy) surface as
// errors wrapping ErrBadOptions when the evaluation starts.
type Option func(*evalSettings) error

// evalSettings is the resolved option set of one evaluation.
type evalSettings struct {
	opts  core.Options
	shard *shard.Spec
}

// WithMethod selects the evaluation algorithm (default OSharing — the
// session-level default differs from the zero Options value, whose method is
// Basic, because o-sharing is the paper's headline algorithm).
func WithMethod(m Method) Option {
	return func(s *evalSettings) error { s.opts.Method = m; return nil }
}

// WithStrategy selects the o-sharing operator-selection strategy (default SEF).
func WithStrategy(st Strategy) Option {
	return func(s *evalSettings) error { s.opts.Strategy = st; return nil }
}

// WithParallelism bounds the evaluation runtime's worker goroutines:
// 0 selects GOMAXPROCS, 1 forces sequential execution.  Answers are identical
// at every setting.
func WithParallelism(n int) Option {
	return func(s *evalSettings) error { s.opts.Parallelism = n; return nil }
}

// WithTopK runs the probabilistic top-k algorithm of Section VII instead of a
// full evaluation, returning the k answers with the highest probabilities
// (with lower-bound probabilities).  k must be at least 1.
func WithTopK(k int) Option {
	return func(s *evalSettings) error {
		if k < 1 {
			return fmt.Errorf("%w: WithTopK requires k >= 1, got %d", ErrBadOptions, k)
		}
		s.opts.TopK = k
		return nil
	}
}

// WithRandomSeed seeds the Random o-sharing strategy so runs are reproducible.
func WithRandomSeed(seed int64) Option {
	return func(s *evalSettings) error { s.opts.RandomSeed = seed; return nil }
}

// WithShards partitions evaluation over spec.Shards in-process shards: the
// named relation is split by the spec's partitioner, every other relation is
// replicated, and per-shard answer streams are merged back into the canonical
// distribution — or, with WithTopK, into the top k answers.  Answers are
// bit-identical to unsharded evaluation at every shard count.  Plans that
// cannot distribute (self-joins or aggregates of the partitioned relation)
// transparently fall back to unsharded evaluation — the session holds the
// full instance, so falling back is always sound.
func WithShards(spec ShardSpec) Option {
	return func(s *evalSettings) error {
		if spec.Shards < 1 {
			return fmt.Errorf("%w: WithShards requires at least 1 shard, got %d", ErrBadOptions, spec.Shards)
		}
		sp := spec
		s.shard = &sp
		return nil
	}
}

// apply folds the options over the settings.
func (s evalSettings) apply(opts []Option) (evalSettings, error) {
	for _, o := range opts {
		if err := o(&s); err != nil {
			return s, err
		}
	}
	return s, nil
}

// Session is the long-lived face of the library: it binds a target schema, a
// source instance and a possible-mapping set, owns the prepared-query cache
// (the instance carries the shared base-relation index cache), and evaluates
// queries against them.  Where the free Evaluate functions re-parse,
// re-reformulate through every mapping and re-compile plans on each call, a
// session pays that front half once per distinct query:
//
//	sess, _ := urm.NewSession(target, db, matching.Mappings)
//	pq, _ := sess.Prepare("SELECT addr FROM Person WHERE phone = '123'")
//	for _, opts := range workloads {
//	    res, _ := pq.Execute(ctx, opts...)   // plans compiled exactly once
//	    ...
//	}
//
// Sessions are safe for concurrent use.  Session evaluations always read the
// instance's current rows (plans reference relations by name); replacing the
// mapping set or the schemas requires a new session.
type Session struct {
	target   *Schema
	db       *Instance
	maps     MappingSet
	defaults evalSettings

	mu         sync.Mutex
	prepared   map[string]*PreparedQuery   // canonical fingerprint -> prepared query
	shardEvals map[string]*shard.Evaluator // spec string -> sharded evaluator (partition slices cached)
}

// NewSession builds a session over the target schema (queries are parsed
// against it), the source instance and the possible mappings.  The options
// become the session's defaults; per-call options override them.
func NewSession(target *Schema, db *Instance, maps MappingSet, defaults ...Option) (*Session, error) {
	if target == nil {
		return nil, fmt.Errorf("urm: new session: nil target schema")
	}
	if db == nil {
		return nil, fmt.Errorf("urm: new session: nil instance")
	}
	if len(maps) == 0 {
		return nil, fmt.Errorf("urm: new session: empty mapping set")
	}
	if err := maps.Validate(); err != nil {
		return nil, fmt.Errorf("urm: new session: invalid mapping set: %w", err)
	}
	base := evalSettings{opts: core.Options{Method: core.MethodOSharing}}
	settings, err := base.apply(defaults)
	if err != nil {
		return nil, err
	}
	if err := settings.opts.Validate(); err != nil {
		return nil, err
	}
	return &Session{
		target:   target,
		db:       db,
		maps:     maps,
		defaults: settings,
		prepared: make(map[string]*PreparedQuery),
	}, nil
}

// NewSession builds a session over the scenario's target schema, instance and
// mappings.
func (s *Scenario) NewSession(defaults ...Option) (*Session, error) {
	return NewSession(s.TargetSchema, s.DB, s.Matching.Mappings, defaults...)
}

// Target returns the target schema queries are parsed against.
func (s *Session) Target() *Schema { return s.target }

// DB returns the session's source instance.
func (s *Session) DB() *Instance { return s.db }

// Mappings returns the session's possible-mapping set.
func (s *Session) Mappings() MappingSet { return s.maps }

// Prepare parses the query text against the session's target schema and
// returns its prepared form: reformulation through every mapping, plan
// optimization and compilation happen once (lazily, per method, on first
// execution) and are reused by every Execute/Stream.  Queries with the same
// canonical SQL share one prepared entry, so preparing the same text twice is
// free.  Parse and validation failures wrap ErrBadQuery.
func (s *Session) Prepare(text string) (*PreparedQuery, error) {
	q, err := query.Parse("q", s.target, text)
	if err != nil {
		return nil, err
	}
	return s.PrepareQuery(q)
}

// preparedCacheCap bounds the session's prepared-query cache.  Past the cap
// the cache is flushed wholesale, so a long-lived session fed unbounded
// ad-hoc texts cannot grow without bound; handed-out *PreparedQuery values
// stay valid either way.  Re-preparing a flushed text costs microseconds; its
// next execution under each method rebuilds that method's front half, about
// a millisecond at h = 100.
const preparedCacheCap = 1024

// PrepareQuery is Prepare for an already-parsed query (one built with
// ParseQuery or Scenario.WorkloadQuery).
func (s *Session) PrepareQuery(q *Query) (*PreparedQuery, error) {
	if q == nil {
		return nil, fmt.Errorf("%w: nil query", ErrBadQuery)
	}
	key := q.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if pq, ok := s.prepared[key]; ok {
		return pq, nil
	}
	prep, err := core.NewEvaluator(s.db, s.maps).Prepare(q)
	if err != nil {
		return nil, err
	}
	if len(s.prepared) >= preparedCacheCap {
		s.prepared = make(map[string]*PreparedQuery)
	}
	pq := &PreparedQuery{session: s, q: q, canonical: key, prep: prep}
	s.prepared[key] = pq
	return pq, nil
}

// Execute is the one-shot convenience: Prepare (or reuse the cached prepared
// form) and Execute in one call.
func (s *Session) Execute(ctx context.Context, text string, opts ...Option) (*Result, error) {
	pq, err := s.Prepare(text)
	if err != nil {
		return nil, err
	}
	return pq.Execute(ctx, opts...)
}

// Stream is the one-shot streaming convenience: Prepare (or reuse) and Stream
// in one call.
func (s *Session) Stream(ctx context.Context, text string, opts ...Option) (*Rows, error) {
	pq, err := s.Prepare(text)
	if err != nil {
		return nil, err
	}
	return pq.Stream(ctx, opts...)
}

// PreparedQuery is a query whose front half — parsing, reformulation through
// every possible mapping, plan optimization and compilation — is computed
// once; Execute and Stream run it any number of times, under any options,
// paying only execution and aggregation.  Results are bit-identical to the
// equivalent one-shot Evaluate call.  A PreparedQuery is safe for concurrent
// use and always reads the instance's current rows.
type PreparedQuery struct {
	session   *Session
	q         *Query
	canonical string
	prep      *core.Prepared
}

// Query returns the parsed target query.
func (p *PreparedQuery) Query() *Query { return p.q }

// Text returns the canonical SQL of the prepared query — the form under which
// it is cached and shared.
func (p *PreparedQuery) Text() string { return p.canonical }

// settings resolves the per-call options over the session defaults.
func (p *PreparedQuery) settings(opts []Option) (evalSettings, error) {
	return p.session.defaults.apply(opts)
}

// Execute runs the prepared query and returns the materialized result.  With
// WithTopK it runs the probabilistic top-k algorithm instead.
func (p *PreparedQuery) Execute(ctx context.Context, opts ...Option) (*Result, error) {
	cfg, err := p.settings(opts)
	if err != nil {
		return nil, err
	}
	if cfg.shard != nil {
		ev, err := p.session.shardEvaluator(*cfg.shard)
		if err != nil {
			return nil, err
		}
		return ev.Execute(ctx, p.prep, cfg.opts)
	}
	return p.prep.ExecuteContext(ctx, cfg.opts)
}

// shardEvaluator returns the session's sharded evaluator for the spec,
// building (and caching) it on first use so repeated sharded executions reuse
// the partition slices.
func (s *Session) shardEvaluator(spec shard.Spec) (*shard.Evaluator, error) {
	key := spec.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev, ok := s.shardEvals[key]; ok {
		return ev, nil
	}
	ev, err := shard.NewEvaluator(s.db, spec)
	if err != nil {
		return nil, err
	}
	if s.shardEvals == nil {
		s.shardEvals = make(map[string]*shard.Evaluator)
	}
	s.shardEvals[key] = ev
	return ev, nil
}

// Stream runs the prepared query and returns a Rows cursor over its answers
// in canonical order.  The evaluation completes before Stream returns — the
// canonical order exists only after every mapping's contribution is merged —
// but the answer slice is never materialized: each Answer is produced as the
// cursor advances, so serializing or early-exiting callers never hold the
// full result.  Streamed answers are bit-identical, in the same order, to
// Execute's.
func (p *PreparedQuery) Stream(ctx context.Context, opts ...Option) (*Rows, error) {
	cfg, err := p.settings(opts)
	if err != nil {
		return nil, err
	}
	if cfg.shard != nil {
		return nil, fmt.Errorf("%w: WithShards does not combine with Stream; sharded merge materializes the distribution, use Execute", ErrBadOptions)
	}
	return p.prep.StreamContext(ctx, cfg.opts)
}

// Partitions reports how the mapping set partitions for this query: the
// number of distinct source queries q-sharing and o-sharing share work
// across.  It is a cheap introspection helper for capacity planning.
func (p *PreparedQuery) Partitions() (int, error) {
	return len(core.PartitionMappings(p.prep.Resolution(), p.session.maps)), nil
}
