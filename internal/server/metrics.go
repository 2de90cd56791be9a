package server

import (
	"reflect"
	"sync/atomic"

	"github.com/probdb/urm/internal/qos"
)

// Counters are the server-level counters and gauges of /metrics, declared
// once: the server updates its live copy with one atomic add (or store) per
// event, without locking, and Metrics embeds a loadCounters copy.
type Counters struct {
	Requests int64 `json:"requests"`
	// Rejected counts 429s: rate-limited, or no evaluation slot in time.
	Rejected int64 `json:"rejected"`
	// ShedDoomedDeadline counts requests rejected before admission because
	// their remaining deadline was below the scenario's median cold latency.
	ShedDoomedDeadline int64 `json:"shed_doomed_deadline"`
	// StaleServed counts responses degraded to a previous epoch's cached
	// answer instead of a rejection.
	StaleServed int64 `json:"stale_served"`
	// Unavailable counts 503s (draining, recovering, quarantined), Timeouts
	// the 504s of an exceeded request deadline, and BadRequests every other
	// 4xx.
	Unavailable int64 `json:"unavailable"`
	Timeouts    int64 `json:"timeouts"`
	BadRequests int64 `json:"bad_requests"`
	// Inflight is a gauge: requests currently being served.
	Inflight int64 `json:"inflight"`

	// Evaluations counts evaluations actually run (answer-cache misses).
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

	// Appends counts rows appended, through POST /v1/append or in process.
	Appends int64 `json:"appends"`

	// Scatters counts shard-side scatter executions (POST /v1/scatter), and
	// SlowQueries the requests whose total latency crossed the slow-query
	// threshold (zero when no threshold is configured).
	Scatters    int64 `json:"scatters"`
	SlowQueries int64 `json:"slow_queries"`

	// Incremental-maintenance counters.  DeltaApplied counts cached answers
	// refreshed by a delta pass instead of invalidated; DeltaFallbacks the
	// evaluations the delta cannot maintain (a plan that aggregates or
	// self-joins, or a top-k request); DeltaDropped the maintained answers
	// dropped because their delta pass failed (a relation shrank or vanished
	// without a Bump); IndexInplaceAppends the shared hash indexes extended in
	// place under appends; EpochInvalidations the explicit Bumps, each of which
	// leaves the answers cached before it unmaintained.
	// StaleWindowEpochs is a gauge: how many epochs behind the most recently
	// stale-served answer was.
	DeltaApplied        int64 `json:"delta_applied"`
	DeltaFallbacks      int64 `json:"delta_fallbacks"`
	DeltaDropped        int64 `json:"delta_dropped"`
	IndexInplaceAppends int64 `json:"index_inplace_appends"`
	EpochInvalidations  int64 `json:"epoch_invalidations"`
	StaleWindowEpochs   int64 `json:"stale_window_epochs"`
}

// loadCounters copies *live, a struct whose every field is an int64 counter,
// with one atomic load per field, so a snapshot never races the adds it reads.
func loadCounters[T any](live *T) T {
	var out T
	src, dst := reflect.ValueOf(live).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < src.NumField(); i++ {
		dst.Field(i).SetInt(atomic.LoadInt64(src.Field(i).Addr().Interface().(*int64)))
	}
	return out
}

// Metrics is the JSON snapshot served by GET /metrics and embedded in the
// serve benchmark's record.
type Metrics struct {
	Counters

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
		Counters:  loadCounters(&s.counters),
		Cache:     s.cache.Metrics(),
		QueueWait: s.queueWait.Snapshot(),
		Stages: map[string]qos.HistogramSnapshot{
			"parse":       s.stageParse.Snapshot(),
			"reformulate": s.stageReformulate.Snapshot(),
			"execute":     s.stageExecute.Snapshot(),
			"merge":       s.stageMerge.Snapshot(),
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
