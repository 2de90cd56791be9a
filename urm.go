// Package urm (Uncertain-matching Relational Matching) is a library for
// evaluating probabilistic queries over uncertain schema matching, a
// from-scratch reproduction of:
//
//	R. Cheng, J. Gong, D. W. Cheung, J. Cheng.
//	"Evaluating Probabilistic Queries over Uncertain Matching", ICDE 2012.
//
// An uncertain matching between a source schema (with data) and a target
// schema is represented as a set of possible mappings, each a one-to-one
// partial set of attribute correspondences with a probability of being the
// correct one.  A probabilistic query is posed against the target schema and
// answered through every possible mapping, returning each answer tuple with
// the probability that it is correct.
//
// The package exposes the full pipeline:
//
//   - schema modelling and a lexical schema matcher (a stand-in for COMA++),
//   - top-h possible-mapping generation via maximum-weight bipartite
//     assignment and Murty's ranking algorithm,
//   - an in-memory relational engine for the source instance,
//   - a small SQL-subset parser for target queries, and
//   - the paper's evaluation algorithms: basic, e-basic, e-MQO, q-sharing,
//     o-sharing (with the Random/SNF/SEF operator-selection strategies) and
//     probabilistic top-k.
//
// # Quick start
//
// The session API is the front door: a Session binds a target schema, a
// source instance and the possible mappings; Prepare compiles a query once
// (parse, reformulate through every mapping, optimize, compile plans) and
// Execute/Stream run it any number of times:
//
//	source := urm.NewSchema("Source")
//	// ... add relations ...
//	target := urm.NewSchema("Target")
//	// ... add relations ...
//
//	matching, _ := urm.Match(source, target, urm.MatchOptions{Mappings: 10})
//	db := urm.NewInstance("db")
//	// ... load relations ...
//
//	sess, _ := urm.NewSession(target, db, matching.Mappings)
//	pq, _ := sess.Prepare("SELECT addr FROM Person WHERE phone = '123'")
//	res, _ := pq.Execute(ctx, urm.WithMethod(urm.OSharing))
//	for _, a := range res.Answers {
//	    fmt.Println(a.Tuple, a.Prob)
//	}
//
// Large answer sets can be streamed instead of materialized:
//
//	rows, _ := pq.Stream(ctx, urm.WithParallelism(8))
//	defer rows.Close()
//	for rows.Next() {
//	    a := rows.Answer()
//	    ...
//	}
//
// Evaluation behaviour is tuned with functional options — WithMethod,
// WithStrategy, WithParallelism, WithTopK, WithRandomSeed — passed to
// NewSession (defaults) or per call.
//
// # Concurrency
//
// Evaluation runs on a bounded worker pool.  WithParallelism sets the worker
// count (0 = GOMAXPROCS, 1 = sequential); results are identical at any
// setting.  Execute and Stream take a context.Context whose cancellation or
// deadline aborts the evaluation promptly.
//
// See the examples directory for complete programs and DESIGN.md for the
// layer map (schema → match → query → engine → core) and where the evaluation
// runtime sits.
package urm

import (
	"context"
	"fmt"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/match"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
	"github.com/probdb/urm/internal/server"
	"github.com/probdb/urm/internal/shard"
	"github.com/probdb/urm/internal/store"
)

// Schema-model types re-exported from the schema layer.
type (
	// Schema is a named set of relation schemas.
	Schema = schema.Schema
	// RelationSchema is the schema of one relation.
	RelationSchema = schema.RelationSchema
	// Column is one attribute declaration of a relation schema.
	Column = schema.Column
	// Attribute identifies a relation attribute.
	Attribute = schema.Attribute
	// Correspondence is a scored source/target attribute pair.
	Correspondence = schema.Correspondence
	// Mapping is one possible mapping with its probability.
	Mapping = schema.Mapping
	// MappingSet is a set of possible mappings.
	MappingSet = schema.MappingSet
	// Matching is the uncertain matching: correspondences plus mappings.
	Matching = schema.Matching
)

// Engine types re-exported from the storage/execution layer.
type (
	// Instance is an in-memory source database.
	Instance = engine.Instance
	// Relation is a materialized table.
	Relation = engine.Relation
	// Tuple is a row of values.
	Tuple = engine.Tuple
	// Value is a typed datum.
	Value = engine.Value
)

// Query and evaluation types.
type (
	// Query is a parsed target query.
	Query = query.Query
	// Result is a probabilistic query result.
	Result = core.Result
	// Answer is one probabilistic answer tuple.
	Answer = core.Answer
	// Method selects an evaluation algorithm.
	Method = core.Method
	// Strategy selects an o-sharing operator-selection strategy.
	Strategy = core.Strategy
)

// Evaluation methods (Section III-B, IV and V of the paper).
const (
	Basic    = core.MethodBasic
	EBasic   = core.MethodEBasic
	EMQO     = core.MethodEMQO
	QSharing = core.MethodQSharing
	OSharing = core.MethodOSharing
)

// Operator-selection strategies for o-sharing (Section VI-A).
const (
	SEF    = core.StrategySEF
	SNF    = core.StrategySNF
	Random = core.StrategyRandom
)

// Attribute value kinds re-exported for building relations.
const (
	TypeString = schema.TypeString
	TypeInt    = schema.TypeInt
	TypeFloat  = schema.TypeFloat
)

// NewSchema creates an empty schema.
func NewSchema(name string) *Schema { return schema.NewSchema(name) }

// NewInstance creates an empty source database.
func NewInstance(name string) *Instance { return engine.NewInstance(name) }

// NewRelation creates an empty relation with the given columns.
func NewRelation(name string, columns []string) *Relation { return engine.NewRelation(name, columns) }

// String builds a string value.
func String(s string) Value { return engine.S(s) }

// Int builds an integer value.
func Int(i int64) Value { return engine.I(i) }

// Float builds a floating-point value.
func Float(f float64) Value { return engine.F(f) }

// Null builds the NULL value.
func Null() Value { return engine.Null() }

// MatchOptions configures Match.
type MatchOptions struct {
	// Mappings is the number h of possible mappings to derive (default 10).
	Mappings int
	// Threshold is the matcher's minimum similarity (default 0.45).
	Threshold float64
	// MaxCandidatesPerTarget caps candidates per target attribute (0 = all).
	MaxCandidatesPerTarget int
	// Synonyms optionally extends the matcher's synonym table.
	Synonyms map[string]string
}

// Match runs the lexical schema matcher between the source and target schemas
// and derives the top-h possible mappings with probabilities.
func Match(source, target *Schema, opts MatchOptions) (*Matching, error) {
	if opts.Mappings <= 0 {
		opts.Mappings = 10
	}
	return match.BuildMatching(source, target, match.MatcherOptions{
		Threshold:              opts.Threshold,
		MaxCandidatesPerTarget: opts.MaxCandidatesPerTarget,
		Synonyms:               opts.Synonyms,
	}, opts.Mappings)
}

// MatchCorrespondences runs only the matcher, returning scored correspondences
// without deriving mappings.
func MatchCorrespondences(source, target *Schema, opts MatchOptions) *Matching {
	return match.NewMatcher(match.MatcherOptions{
		Threshold:              opts.Threshold,
		MaxCandidatesPerTarget: opts.MaxCandidatesPerTarget,
		Synonyms:               opts.Synonyms,
	}).Match(source, target)
}

// DeriveMappings derives the top-h possible mappings from an explicit scored
// correspondence set (for callers that bring their own matcher output).
func DeriveMappings(correspondences []Correspondence, h int) (MappingSet, error) {
	return match.KBestMappings(correspondences, match.KBestOptions{K: h})
}

// NewMapping builds a possible mapping from correspondences; probabilities of
// a hand-built mapping set can be normalised with MappingSet.NormalizeProbabilities.
func NewMapping(id string, correspondences []Correspondence, prob float64) (*Mapping, error) {
	return schema.NewMapping(id, correspondences, prob)
}

// ParseQuery parses a target query written in the library's SQL subset
// (SELECT ... FROM ... WHERE ... with conjunctive conditions, aliases and
// COUNT/SUM/AVG/MIN/MAX aggregates).
func ParseQuery(name string, target *Schema, text string) (*Query, error) {
	return query.Parse(name, target, text)
}

// ParseMethod converts a method name ("basic", "e-basic", "e-mqo",
// "q-sharing", "o-sharing") into a Method.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// ParseStrategy converts a strategy name ("SEF", "SNF", "Random") into a
// Strategy.
func ParseStrategy(s string) (Strategy, error) { return core.ParseStrategy(s) }

// ORatio returns the average pairwise overlap ratio of a mapping set, the
// mapping-similarity metric of Section VIII (Figure 9).
func ORatio(maps MappingSet) float64 { return maps.ORatio() }

// Scenario is a ready-made evaluation environment: the synthetic TPC-H-style
// purchase-order source instance, one of the paper's target schemas, its
// correspondences and possible mappings, and the Table III workload queries.
// It is the programmatic face of the benchmark data generator.
type Scenario struct {
	// Target is the target schema name ("Excel", "Noris" or "Paragon").
	Target string
	// SourceSchema and TargetSchema describe the two sides of the matching.
	SourceSchema *Schema
	TargetSchema *Schema
	// DB is the generated source instance.
	DB *Instance
	// Matching holds the correspondences and possible mappings.
	Matching *Matching
}

// ScenarioOptions configures NewScenario.
type ScenarioOptions struct {
	// Target is "Excel" (default), "Noris" or "Paragon".
	Target string
	// Mappings is the number of possible mappings h (default 100).
	Mappings int
	// SizeMB is the synthetic instance's nominal scale in MB, not bytes
	// (default 100, which generates 1,050 rows; 40 generates 423, and the
	// paper's 100 MB instance has about 866,000).
	SizeMB float64
	// Seed makes generation deterministic.
	Seed uint64
}

// NewScenario generates the synthetic purchase-order integration scenario used
// by the paper's evaluation (Section VIII).
func NewScenario(opts ScenarioOptions) (*Scenario, error) {
	name := opts.Target
	if name == "" {
		name = string(datagen.TargetExcel)
	}
	target, err := datagen.ParseTarget(name)
	if err != nil {
		return nil, err
	}
	ds, err := datagen.NewDataset(datagen.DatasetOptions{
		Target:      target,
		NumMappings: opts.Mappings,
		SizeMB:      opts.SizeMB,
		Seed:        opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Target:       string(ds.TargetName),
		SourceSchema: ds.Source,
		TargetSchema: ds.Target,
		DB:           ds.DB,
		Matching:     ds.Matching,
	}, nil
}

// Mappings returns the scenario's possible mappings.
func (s *Scenario) Mappings() MappingSet { return s.Matching.Mappings }

// WorkloadQuery returns one of the paper's Table III queries (1–10) if it is
// defined on this scenario's target, parsed against the scenario's own
// TargetSchema.
func (s *Scenario) WorkloadQuery(id int) (*Query, error) {
	tgt, err := datagen.QueryTarget(id)
	if err != nil {
		return nil, err
	}
	if string(tgt) != s.Target {
		return nil, fmt.Errorf("query Q%d is defined on target %s, scenario uses %s", id, tgt, s.Target)
	}
	return datagen.ParseWorkloadQuery(id, s.TargetSchema)
}

// Query parses an ad-hoc query against the scenario's target schema.
func (s *Scenario) Query(name, text string) (*Query, error) {
	return query.Parse(name, s.TargetSchema, text)
}

// Query service types re-exported from the server layer.  The service turns
// the library into a long-lived system: scenarios register once (paying index
// warm-up at registration), and an HTTP JSON API answers queries through a
// byte-budgeted answer cache with singleflight semantics — N concurrent
// identical requests cost exactly one evaluation.  See DESIGN.md, "Service
// layer".
type (
	// Registry holds named, epoch-versioned scenarios a server answers
	// queries against.
	Registry = server.Registry
	// RegisteredScenario is one registry entry; mutate its data only through
	// RegisteredScenario.AppendRow (or Bump), which invalidates cached
	// answers by advancing the epoch.
	RegisteredScenario = server.Scenario
	// RegisterOptions tunes Registry.Register.
	RegisterOptions = server.RegisterOptions
	// Server is the query service: an http.Handler with admission control
	// plus the transport-free Server.Do used in-process.
	Server = server.Server
	// ServerConfig tunes a Server (evaluation slots, request timeout, cache
	// byte budget, per-evaluation parallelism).
	ServerConfig = server.Config
	// QueryRequest is the body of POST /v1/query.
	QueryRequest = server.Request
	// QueryResponse is the body of a successful POST /v1/query.
	QueryResponse = server.Response
	// TenantQoS is one tenant's QoS configuration in ServerConfig.Tenants:
	// its weight over the shared admission rate and fair queue, and its
	// default priority class ("interactive" or "batch").
	TenantQoS = server.TenantQoS
)

// RetryAfter extracts the server's wait hint from an error returned by
// Server.Do (zero when the error carries none) — the in-process mirror of the
// HTTP Retry-After header on 429 responses.
func RetryAfter(err error) time.Duration { return server.RetryAfter(err) }

// Sharded-evaluation types.  The in-process layer (ShardSpec + WithShards)
// partitions one relation across N shard slices inside a single process and
// merges per-shard answer streams bit-identically; the multi-node layer
// (Coordinator + ServerConfig.Shard) runs each slice as its own urm-serve
// node behind a coordinator with lease-based shard ownership.  See DESIGN.md,
// "Sharded evaluation".
type (
	// ShardSpec declares how one relation partitions: which relation and
	// column, how many shards, and the partitioner kind.
	ShardSpec = shard.Spec
	// ShardKind selects the partitioner: HashSharding or RangeSharding.
	ShardKind = shard.Kind
	// ShardIdentity declares a server's placement in a partitioned
	// deployment (ServerConfig.Shard).
	ShardIdentity = server.ShardIdentity
	// Coordinator is the multi-node query front door: an http.Handler owning
	// the shard map and no data, fanning queries out to lease-owning shard
	// nodes and merging their answer streams bit-identically.
	Coordinator = server.Coordinator
	// CoordinatorConfig tunes NewCoordinator.
	CoordinatorConfig = server.CoordinatorConfig
	// LeaseTable tracks lease-based shard ownership from node heartbeats.
	LeaseTable = server.LeaseTable
	// LeaseRequest is one shard node's heartbeat, the body of the
	// coordinator's POST /v1/lease.
	LeaseRequest = server.LeaseRequest
	// LeaseResponse acknowledges a heartbeat and carries the cadence the
	// coordinator expects.
	LeaseResponse = server.LeaseResponse
)

// Shard partitioner kinds.
const (
	// HashSharding routes rows by value hash — balanced, placement-free.
	HashSharding = shard.KindHash
	// RangeSharding routes rows by contiguous value ranges sampled from the
	// relation at partition time.
	RangeSharding = shard.KindRange
)

// Sharded-evaluation sentinel errors.
var (
	// ErrNotDistributable is returned (HTTP 422) when a query cannot be
	// evaluated over a shard partition (self-joins or aggregates of the
	// partitioned relation).
	ErrNotDistributable = server.ErrNotDistributable
	// ErrShardUnowned is returned by a coordinator (HTTP 503, with a
	// Retry-After hint) when a shard has no live lease owner.
	ErrShardUnowned = server.ErrShardUnowned
	// ErrShardMismatch is returned by a coordinator (HTTP 502) when shard
	// responses disagree on the deterministic front half of the evaluation.
	ErrShardMismatch = server.ErrShardMismatch
)

// ParseShardKind converts a partitioner-kind name ("hash", "range") into a
// ShardKind.
func ParseShardKind(s string) (ShardKind, error) { return shard.ParseKind(s) }

// NewCoordinator builds a multi-node coordinator: shard nodes heartbeat POST
// /v1/lease, queries fan out to the current lease owners and merge.  With a
// store the lease table survives coordinator restarts.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) { return server.NewCoordinator(cfg) }

// ShardSlice returns a copy of the scenario holding only shard `index` of the
// spec's partition: the named relation keeps only the rows the partitioner
// routes to that shard, every other relation is shared by reference.  Shard
// nodes built from the same seed hold slices that together exactly partition
// the full scenario, which is what the coordinator's merge relies on.
func (s *Scenario) ShardSlice(spec ShardSpec, index int) (*Scenario, error) {
	p, err := shard.NewPartitioner(s.DB, spec)
	if err != nil {
		return nil, err
	}
	slice, err := p.Slice(s.DB, index)
	if err != nil {
		return nil, err
	}
	out := *s
	out.DB = slice
	return &out, nil
}

// ParseTenantSpec parses the "weight[/priority]" per-tenant configuration
// syntax used by urm-serve's -tenants flag, e.g. "4/interactive".
func ParseTenantSpec(name, spec string) (TenantQoS, error) {
	return server.ParseTenantSpec(name, spec)
}

// Durable-store types re-exported from the store layer.  A registry built
// with NewRegistryWithStore writes every registration, appended row and epoch
// bump through a per-scenario checksummed write-ahead log (with periodic
// snapshots that truncate it), so scenarios survive restarts and crashes;
// Registry.Recover rebuilds them at boot.  See DESIGN.md, "Durability and
// recovery".
type (
	// Store is an open durable data directory.
	Store = store.Store
	// StoreOptions tunes OpenStore (per-record fsync, snapshot cadence).
	StoreOptions = store.Options
	// RecoveryStats summarizes one Registry.Recover call.
	RecoveryStats = server.RecoveryStats
)

// Durable-store sentinel errors.
var (
	// ErrCorruptStore marks on-disk state that failed a checksum or decode;
	// recovery quarantines the affected scenario rather than serving from it.
	ErrCorruptStore = store.ErrCorrupt
	// ErrNewerStoreFormat is returned by OpenStore when the data directory was
	// written by a newer build than this one can read.
	ErrNewerStoreFormat = store.ErrNewerFormat
	// ErrQuarantined is returned (HTTP 503) for queries against a scenario
	// whose on-disk state failed recovery.
	ErrQuarantined = server.ErrQuarantined
	// ErrRecovering is returned (HTTP 503) while a server is still replaying
	// its store at boot.
	ErrRecovering = server.ErrRecovering
)

// OpenStore opens (creating if needed) a durable scenario store rooted at
// dir, verifying its on-disk format version.
func OpenStore(dir string, opts StoreOptions) (*Store, error) { return store.Open(dir, opts) }

// NewRegistry returns an empty scenario registry.
func NewRegistry() *Registry { return server.NewRegistry() }

// NewRegistryWithStore returns a registry whose registrations and mutations
// write through to the durable store.  Call Registry.Recover before serving
// to rebuild what the store already holds.
func NewRegistryWithStore(st *Store) *Registry { return server.NewRegistryWithStore(st) }

// NewServer builds a query server over the registry.
func NewServer(reg *Registry, cfg ServerConfig) *Server { return server.New(reg, cfg) }

// Register adds the scenario to a registry under the given name, optionally
// warming every base-relation index so no request pays first-build latency.
func (s *Scenario) Register(ctx context.Context, reg *Registry, name string, opts RegisterOptions) (*RegisteredScenario, error) {
	if opts.TargetLabel == "" {
		opts.TargetLabel = s.Target
	}
	return reg.Register(ctx, name, s.TargetSchema, s.DB, s.Matching.Mappings, opts)
}
