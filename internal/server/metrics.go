package server

import (
	"sync/atomic"

	"github.com/probdb/urm/internal/qos"
)

// serverMetrics are the server-level counters exposed by /metrics.  All
// fields are atomics: the request path updates them without locking.
type serverMetrics struct {
	requests       atomic.Int64
	rejected       atomic.Int64 // 429: rate-limited or no evaluation slot
	shedDoomed     atomic.Int64 // 504: deadline below median cold latency
	staleServed    atomic.Int64 // degraded to a previous epoch's answer
	unavailable    atomic.Int64 // 503: draining
	timeouts       atomic.Int64 // 504: request deadline exceeded
	badRequests    atomic.Int64 // 4xx other than overload
	evaluations    atomic.Int64 // evaluations actually run (cache misses)
	evalErrors     atomic.Int64
	preparedBuilds atomic.Int64 // prepared-query cache misses: parse+reformulate+compile paid
	preparedReuses atomic.Int64 // prepared-query cache hits: straight to execution
	indexBuilds    atomic.Int64 // summed from per-evaluation engine stats
	indexLookups   atomic.Int64
	operators      atomic.Int64
	inflight       atomic.Int64 // requests currently being served
	appends        atomic.Int64 // rows appended via POST /v1/append
	scatters       atomic.Int64 // shard-side scatter executions (POST /v1/scatter)
	slowQueries    atomic.Int64 // requests over the slow-query threshold (AfterQuery hook)

	// Incremental-maintenance counters.  deltaApplied counts cache entries the
	// maintainer refreshed through a delta pass; deltaFallbacks the evaluations
	// that tried to enroll but fell back (plan not maintainable, or the
	// per-scenario cap refused it); indexInplace the shared hash indexes
	// extended in place by appends; epochInvalidations the explicit Bumps that
	// purged maintained state.  staleWindow is a gauge: the epoch distance of
	// the most recent stale-served answer.
	deltaApplied       atomic.Int64
	deltaFallbacks     atomic.Int64
	indexInplace       atomic.Int64
	epochInvalidations atomic.Int64
	staleWindow        atomic.Int64

	queueWait qos.Histogram // measured evaluation-slot waits, all tenants

	// Per-stage latency histograms over the request path: parse covers
	// parse+reformulate+compile when a prepared query is built (reuses pay
	// nothing and are not observed), reformulate/execute/merge split each
	// evaluation by core.Result's stage timings.
	stageParse       qos.Histogram
	stageReformulate qos.Histogram
	stageExecute     qos.Histogram
	stageMerge       qos.Histogram
}

// Metrics is the JSON snapshot served by GET /metrics and embedded in the
// serve benchmark's record.
type Metrics struct {
	Requests int64 `json:"requests"`
	Rejected int64 `json:"rejected"`
	// ShedDoomedDeadline counts requests rejected before admission because
	// their remaining deadline was below the scenario's median cold latency.
	ShedDoomedDeadline int64 `json:"shed_doomed_deadline"`
	// StaleServed counts responses degraded to a previous epoch's cached
	// answer instead of a rejection.
	StaleServed int64 `json:"stale_served"`
	Unavailable int64 `json:"unavailable"`
	Timeouts    int64 `json:"timeouts"`
	BadRequests int64 `json:"bad_requests"`
	Inflight    int64 `json:"inflight"`

	Evaluations int64 `json:"evaluations"`
	EvalErrors  int64 `json:"eval_errors"`

	// PreparedBuilds/PreparedReuses count prepared-query cache misses versus
	// hits: a reuse skips parse, reformulation and plan compilation even when
	// the answer cache misses.
	PreparedBuilds int64 `json:"prepared_builds"`
	PreparedReuses int64 `json:"prepared_reuses"`

	// IndexBuilds/IndexLookups aggregate engine.Stats.IndexBuilds/IndexLookups
	// over every evaluation the server ran: how often the shared base-relation
	// index subsystem built versus served.
	IndexBuilds  int64 `json:"index_builds"`
	IndexLookups int64 `json:"index_lookups"`
	Operators    int64 `json:"operators"`

	// Appends counts rows accepted by POST /v1/append.
	Appends int64 `json:"appends"`

	// Scatters counts shard-side scatter executions (POST /v1/scatter), and
	// SlowQueries the requests whose total latency crossed the slow-query
	// threshold (zero when no threshold is configured).
	Scatters    int64 `json:"scatters"`
	SlowQueries int64 `json:"slow_queries"`

	// Incremental-maintenance counters.  DeltaApplied counts cached answers
	// refreshed by a delta pass instead of invalidated; DeltaFallbacks the
	// evaluations that could not enroll for maintenance (a plan that aggregates
	// or self-joins, a top-k request, or the per-scenario cap);
	// IndexInplaceAppends the shared hash indexes extended in place under
	// appends; EpochInvalidations the explicit Bumps, each of which purged the
	// scenario's maintained entries.
	// StaleWindowEpochs is a gauge: how many epochs behind the most recently
	// stale-served answer was.
	DeltaApplied        int64 `json:"delta_applied"`
	DeltaFallbacks      int64 `json:"delta_fallbacks"`
	IndexInplaceAppends int64 `json:"index_inplace_appends"`
	EpochInvalidations  int64 `json:"epoch_invalidations"`
	StaleWindowEpochs   int64 `json:"stale_window_epochs"`

	// Durable-store counters.  StoreRecoveries counts scenarios rebuilt from
	// disk at boot, StoreReplayedRecords the WAL records replayed to do so,
	// StoreQuarantined the scenarios refused because their on-disk state was
	// corrupt, and StorePersistErrors the mutations that were applied in
	// memory but failed to reach disk.
	StoreRecoveries      int64 `json:"store_recoveries"`
	StoreReplayedRecords int64 `json:"store_replayed_records"`
	StoreQuarantined     int64 `json:"store_quarantined"`
	StorePersistErrors   int64 `json:"store_persist_errors"`

	Cache CacheMetrics `json:"cache"`

	// QueueWait is the distribution of measured evaluation-slot waits across
	// all tenants; Tenants breaks every QoS counter down per tenant.
	QueueWait qos.HistogramSnapshot    `json:"queue_wait"`
	Tenants   map[string]TenantMetrics `json:"tenants,omitempty"`

	// Stages holds per-stage latency histograms keyed "parse", "reformulate",
	// "execute" and "merge".  Parse is observed only when a prepared query is
	// actually built; the other three split every evaluation by the stage
	// timings core.Result records.
	Stages map[string]qos.HistogramSnapshot `json:"stages"`

	Draining   bool           `json:"draining"`
	Recovering bool           `json:"recovering"`
	Scenarios  []ScenarioInfo `json:"scenarios"`
}

// ScenarioInfo describes one registered scenario in API responses.
type ScenarioInfo struct {
	Name            string `json:"name"`
	Target          string `json:"target"`
	Epoch           uint64 `json:"epoch"`
	Mappings        int    `json:"mappings"`
	Relations       int    `json:"relations"`
	Rows            int    `json:"rows"`
	WarmIndexBuilds int    `json:"warm_index_builds"`
	// Shard is this node's placement in a partitioned deployment — which
	// shard slice of the scenario it holds — or nil when unsharded.
	Shard *ShardIdentity `json:"shard,omitempty"`
}

func (s *Server) snapshotMetrics() Metrics {
	return Metrics{
		Requests:            s.metrics.requests.Load(),
		Rejected:            s.metrics.rejected.Load(),
		ShedDoomedDeadline:  s.metrics.shedDoomed.Load(),
		StaleServed:         s.metrics.staleServed.Load(),
		Unavailable:         s.metrics.unavailable.Load(),
		Timeouts:            s.metrics.timeouts.Load(),
		BadRequests:         s.metrics.badRequests.Load(),
		Inflight:            s.metrics.inflight.Load(),
		Evaluations:         s.metrics.evaluations.Load(),
		EvalErrors:          s.metrics.evalErrors.Load(),
		PreparedBuilds:      s.metrics.preparedBuilds.Load(),
		PreparedReuses:      s.metrics.preparedReuses.Load(),
		IndexBuilds:         s.metrics.indexBuilds.Load(),
		IndexLookups:        s.metrics.indexLookups.Load(),
		Operators:           s.metrics.operators.Load(),
		Appends:             s.metrics.appends.Load(),
		Scatters:            s.metrics.scatters.Load(),
		SlowQueries:         s.metrics.slowQueries.Load(),
		DeltaApplied:        s.metrics.deltaApplied.Load(),
		DeltaFallbacks:      s.metrics.deltaFallbacks.Load(),
		IndexInplaceAppends: s.metrics.indexInplace.Load(),
		EpochInvalidations:  s.metrics.epochInvalidations.Load(),
		StaleWindowEpochs:   s.metrics.staleWindow.Load(),
		Cache:               s.cache.Metrics(),
		QueueWait:           s.metrics.queueWait.Snapshot(),
		Stages: map[string]qos.HistogramSnapshot{
			"parse":       s.metrics.stageParse.Snapshot(),
			"reformulate": s.metrics.stageReformulate.Snapshot(),
			"execute":     s.metrics.stageExecute.Snapshot(),
			"merge":       s.metrics.stageMerge.Snapshot(),
		},
		Tenants:    s.tenants.snapshot(),
		Draining:   s.draining(),
		Recovering: s.recovering.Load(),
		Scenarios:  s.scenarioInfos(),

		StoreRecoveries:      s.registry.Recoveries(),
		StoreReplayedRecords: s.registry.ReplayedRecords(),
		StoreQuarantined:     int64(len(s.registry.QuarantinedNames())),
		StorePersistErrors:   storePersistErrors(s.registry),
	}
}

// storePersistErrors sums store-level persistence failures; zero when the
// server runs without a durable store.
func storePersistErrors(r *Registry) int64 {
	if st := r.Store(); st != nil {
		return st.PersistErrors()
	}
	return 0
}
