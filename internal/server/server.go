package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/qos"
	"github.com/probdb/urm/internal/query"
)

// Config tunes a Server.
type Config struct {
	// MaxConcurrent bounds the number of evaluations running at once (the
	// admission-control slot count).  Cache hits and coalesced waiters do not
	// consume slots.  0 selects GOMAXPROCS.
	MaxConcurrent int
	// QueueWait is how long a request may wait for a free evaluation slot
	// before being rejected with 429.  0 rejects immediately when saturated.
	QueueWait time.Duration
	// RequestTimeout caps the per-request evaluation deadline.  Requests may
	// ask for less via timeout_ms but never more.  0 selects 30s.
	RequestTimeout time.Duration
	// CacheBytes is the answer cache's byte budget.  0 selects 64 MiB;
	// negative disables caching (singleflight coalescing still applies).
	CacheBytes int64
	// Parallelism is passed through to core.Options for each evaluation
	// (0 = GOMAXPROCS).  With MaxConcurrent evaluation slots, total worker
	// goroutines reach MaxConcurrent×Parallelism; keep the product near the
	// core count.
	Parallelism int

	// TenantRate is the global evaluation-admission rate in requests/sec,
	// shared by all active tenants in proportion to their weights (see
	// internal/qos.Limiter).  0 disables rate limiting; the fair queue and
	// shed ladder still apply.  Cache hits never spend tokens — the limiter
	// protects evaluation capacity, not reads.
	TenantRate float64
	// TenantBurst is the shared burst allowance (0 = one second of
	// TenantRate).
	TenantBurst float64
	// Tenants sets per-tenant weights and default priorities.  Tenants absent
	// from the map get weight 1 and interactive priority.
	Tenants map[string]TenantQoS
	// DisableStaleServe turns off the last rung of the shed ladder: serving a
	// previous epoch's cached answer (flagged "stale") instead of rejecting.
	DisableStaleServe bool
	// DisableDelta turns off incremental maintenance: appends then invalidate
	// cached answers by epoch (the pre-delta behavior) instead of refreshing
	// them through delta passes.  A server whose answer cache is disabled
	// (CacheBytes < 0) maintains nothing either way.
	DisableDelta bool
	// Faults is the deterministic fault-injection seam; nil in production.
	Faults *qos.Faults

	// Shard, when non-nil, declares this node a shard of a partitioned
	// deployment: its scenarios hold only the declared slice of the
	// partitioned relation, POST /v1/scatter refuses non-distributable plans,
	// and the placement is echoed in scatter responses and /v1/scenarios.
	Shard *ShardIdentity

	// SlowQueryThreshold, when positive, counts requests whose total wall
	// time crosses it under the slow_queries metric.  Logging them is the
	// AfterQuery hook's job (it receives the same elapsed time).
	SlowQueryThreshold time.Duration

	// AfterQuery is the request-path hook after Do: it sees the outcome —
	// response or error — and the measured wall time.  It runs on the request
	// goroutine, so it must be fast and must not call back into the server.
	// The slow-query log is an AfterQuery hook.
	AfterQuery func(req *Request, resp *Response, err error, elapsed time.Duration)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	return c
}

// Server answers probabilistic queries over registered scenarios.  It is an
// http.Handler; Do is the transport-free core the handler (and the load
// harness, and in-process callers) share.
type Server struct {
	counters Counters // first, so the atomic adds are 64-bit aligned

	registry *Registry
	cache    *AnswerCache
	cfg      Config

	// The QoS ladder: limiter (per-tenant token buckets, nil when TenantRate
	// is 0), then queue (weighted-fair admission to the evaluation slots).
	// clock is the injected time source every rung reads.
	limiter *qos.Limiter
	queue   *qos.FairQueue
	clock   qos.Clock

	tenants *tenantTable

	queueWait qos.Histogram // measured evaluation-slot waits, all tenants

	// Per-stage latency histograms over the request path: parse covers
	// parse+reformulate+compile when a prepared query is built (reuses pay
	// nothing and are not observed), reformulate/execute/merge split each
	// evaluation by core.Result's stage timings.
	stageParse       qos.Histogram
	stageReformulate qos.Histogram
	stageExecute     qos.Histogram
	stageMerge       qos.Histogram

	// maintainer keeps cached answers current under appends (nil when
	// Config.DisableDelta is set or the answer cache is disabled, which leaves
	// nothing to maintain): appends mark scenarios dirty through the Observer
	// hooks, and its background pass republishes each maintained answer at the
	// new epoch instead of letting it miss.
	maintainer *maintainer

	// latency tracks per-scenario cold-evaluation medians for the
	// doomed-deadline shed rung.
	latMu   sync.Mutex
	latency map[string]*qos.LatencyTracker

	// drainMu/drainSet gate request entry against Drain: Drain flips the flag
	// and then waits, and no request can join the WaitGroup after the flip.
	drainMu  sync.RWMutex
	drainSet bool
	wg       sync.WaitGroup

	// recovering, while set, answers every query 503 ("recovering") so the
	// listener can come up before WAL replay and index warming finish —
	// load balancers see a live but not-yet-ready node instead of connection
	// refused.
	recovering atomic.Bool
}

// SetRecovering flips the recovery gate.  Boot sequence: SetRecovering(true),
// start the listener, Registry.Recover, SetRecovering(false).
func (s *Server) SetRecovering(on bool) { s.recovering.Store(on) }

// New builds a server over the registry.
func New(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	clock := cfg.Faults.ClockOrWall()
	s := &Server{
		registry: reg,
		cache:    NewAnswerCache(cfg.CacheBytes),
		cfg:      cfg,
		clock:    clock,
		queue:    qos.NewFairQueue(qos.QueueConfig{Slots: cfg.MaxConcurrent, Clock: clock}),
		tenants:  &tenantTable{m: make(map[string]*tenantRow)},
		latency:  make(map[string]*qos.LatencyTracker),
	}
	if cfg.TenantRate > 0 {
		s.limiter = qos.NewLimiter(qos.LimiterConfig{
			Rate:    cfg.TenantRate,
			Burst:   cfg.TenantBurst,
			Weights: limiterWeights(cfg.Tenants),
			Clock:   clock,
		})
	}
	// A maintained answer is a cached answer; with the cache off nothing is
	// retained, so nothing is maintained.
	if !cfg.DisableDelta && cfg.CacheBytes > 0 {
		s.maintainer = startMaintainer(s)
	}
	reg.SetObserver(s)
	return s
}

// OnAppend implements Observer: count appended rows and in-place index
// extensions, and queue the scenario for delta convergence.  Counting here
// rather than in the HTTP handler covers programmatic appends too.
func (s *Server) OnAppend(scenario string, rows, extendedIndexes int) {
	atomic.AddInt64(&s.counters.Appends, int64(rows))
	atomic.AddInt64(&s.counters.IndexInplaceAppends, int64(extendedIndexes))
	if s.maintainer != nil {
		s.maintainer.markDirty(scenario)
	}
}

// OnBump implements Observer: an explicit epoch bump is the one mutation the
// delta cannot describe — epoch invalidation, recorded as such.  The bump
// raised the stale floor, so the maintainer leaves every answer cached before
// it alone.
func (s *Server) OnBump(string) {
	atomic.AddInt64(&s.counters.EpochInvalidations, 1)
}

// ConvergeDelta synchronously runs one maintenance pass over the scenario's
// maintained answers and returns the number of refreshed answers published —
// the deterministic hook tests and benchmarks drive instead of waiting on the
// background loop.
func (s *Server) ConvergeDelta(scenario string) int {
	sc, ok := s.registry.Get(scenario)
	if s.maintainer == nil || !ok {
		return 0
	}
	return s.maintainer.pass(sc, sc.StaleFloor())
}

// DeltaEntries returns the number of the scenario's cached answers a pass
// maintains: those carrying a delta state at or above the stale floor.
func (s *Server) DeltaEntries(scenario string) int {
	sc, ok := s.registry.Get(scenario)
	if !ok {
		return 0
	}
	return len(s.cache.maintainedEntries(scenario, sc.StaleFloor()))
}

// latencyFor returns the scenario's cold-latency tracker, creating it on
// first use.  The registry bounds scenario names, so the map is bounded too.
func (s *Server) latencyFor(scenario string) *qos.LatencyTracker {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	t := s.latency[scenario]
	if t == nil {
		t = &qos.LatencyTracker{}
		s.latency[scenario] = t
	}
	return t
}

// Registry returns the server's scenario registry.
func (s *Server) Registry() *Registry { return s.registry }

// Cache returns the server's answer cache.
func (s *Server) Cache() *AnswerCache { return s.cache }

// Metrics returns a snapshot of the server counters.
func (s *Server) Metrics() Metrics { return s.snapshotMetrics() }

// Request is one query request, the body of POST /v1/query.
type Request struct {
	// Scenario names a registered scenario.
	Scenario string `json:"scenario"`
	// Query is the query text in the library's SQL subset.
	Query string `json:"query"`
	// Method is the evaluation method name ("o-sharing" default).
	Method string `json:"method,omitempty"`
	// Strategy is the o-sharing operator-selection strategy ("SEF" default).
	Strategy string `json:"strategy,omitempty"`
	// TopK, when positive, runs the probabilistic top-k algorithm.
	TopK int `json:"topk,omitempty"`
	// TimeoutMS optionally tightens the server's request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Tenant identifies the caller for QoS accounting.  The HTTP layer fills
	// it from the X-URM-Tenant header; empty means the shared "default"
	// tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the admission class, "interactive" or "batch" (X-URM-Priority
	// over HTTP).  Empty falls back to the tenant's configured default, then
	// to interactive.
	Priority string `json:"priority,omitempty"`
}

// AnswerJSON is one probabilistic answer in a response.  Values keep their
// engine kinds: strings as JSON strings, ints and floats as JSON numbers,
// NULL as null.
type AnswerJSON struct {
	Values []any   `json:"values"`
	Prob   float64 `json:"prob"`
}

// Response is the body of a successful POST /v1/query.
type Response struct {
	Scenario  string       `json:"scenario"`
	Epoch     uint64       `json:"epoch"`
	Query     string       `json:"query"` // canonical text, the cache-key form
	Method    string       `json:"method"`
	Strategy  string       `json:"strategy,omitempty"`
	TopK      int          `json:"topk,omitempty"`
	Columns   []string     `json:"columns,omitempty"`
	Answers   []AnswerJSON `json:"answers"`
	EmptyProb float64      `json:"empty_prob"`
	// Cached is true when the response came from the answer cache; Coalesced
	// when it shared another request's in-flight evaluation.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Stale is true when overload degraded the response to a previous epoch's
	// cached answer (Epoch then names the epoch actually served).  A stale
	// answer is a bit-identical replay of an answer served fresh earlier; it
	// is only offered while the scenario has seen nothing but appends since.
	Stale bool `json:"stale,omitempty"`
	// QueueWaitMS is the measured time this request spent waiting for an
	// evaluation slot (zero for cache hits and coalesced waiters).
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ElapsedMS   float64 `json:"elapsed_ms"`

	// Result is the evaluation result backing the response; in-process
	// callers (tests, the load harness) use it for bit-identical comparisons.
	// It is not serialized.  Result and Answers are shared with the answer
	// cache and every other response it serves: both are read-only.
	Result *core.Result `json:"-"`
}

// Typed sentinel errors of the request path.  The facade re-exports them;
// errors returned by Do wrap them, so callers classify failures with
// errors.Is instead of matching message strings or HTTP statuses.
var (
	// ErrOverloaded is returned (and mapped to 429) when no evaluation slot
	// frees up within Config.QueueWait.
	ErrOverloaded = errors.New("server overloaded: no evaluation slot available")
	// ErrUnknownScenario is returned (and mapped to 404) when the request
	// names a scenario the registry does not hold.
	ErrUnknownScenario = errors.New("unknown scenario")
	// ErrDraining is returned (and mapped to 503) once Drain has begun.
	ErrDraining = errors.New("server is draining")
	// ErrDeadlineTooShort is returned (and mapped to 504) when the request's
	// remaining deadline is below the scenario's observed median cold-eval
	// latency: the evaluation would more likely than not burn a slot and time
	// out anyway, so the server sheds it before admission.
	ErrDeadlineTooShort = errors.New("request deadline shorter than expected evaluation latency")
	// ErrQuarantined is returned (and mapped to 503) when the request names a
	// scenario whose on-disk state failed recovery validation.  The rest of
	// the node serves normally; this scenario needs operator attention.
	ErrQuarantined = errors.New("scenario is quarantined: on-disk state failed recovery")
	// ErrRecovering is returned (and mapped to 503) while the server is still
	// replaying the durable store at boot.
	ErrRecovering = errors.New("server is recovering from its durable store")
)

// apiError carries an HTTP status through the Do path while keeping the
// underlying error (and any sentinel it wraps) reachable through errors.Is.
// retryAfter, when positive, is the server's honest wait hint (the token
// bucket's exact next-token time, or the queue-wait budget) surfaced as the
// Retry-After header on 429 responses.
type apiError struct {
	status     int
	retryAfter time.Duration
	err        error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

// apiErr tags an error with an HTTP status.
func apiErr(status int, err error) error { return &apiError{status: status, err: err} }

// apiErrRetry tags an error with a status and a Retry-After hint.
func apiErrRetry(status int, retryAfter time.Duration, err error) error {
	return &apiError{status: status, retryAfter: retryAfter, err: err}
}

// RetryAfter extracts the Retry-After hint from an error returned by Do
// (zero when the error carries none) — the in-process mirror of the HTTP
// header, used by the load harness's backoff.
func RetryAfter(err error) time.Duration {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.retryAfter
	}
	return 0
}

func errBadRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// Do answers one request.  It is the transport-free request path: admission,
// parsing, cache lookup with singleflight, evaluation under the request
// deadline.  Returned errors are *apiError when they carry an HTTP status.
func (s *Server) Do(ctx context.Context, req Request) (*Response, error) {
	atomic.AddInt64(&s.counters.Requests, 1)
	if err := s.admit(); err != nil {
		return nil, err
	}
	defer s.leave()
	start := time.Now()
	resp, err := s.do(ctx, req)
	elapsed := time.Since(start)
	if t := s.cfg.SlowQueryThreshold; t > 0 && elapsed >= t {
		atomic.AddInt64(&s.counters.SlowQueries, 1)
	}
	if s.cfg.AfterQuery != nil {
		s.cfg.AfterQuery(&req, resp, err, elapsed)
	}
	if err != nil {
		var ae *apiError
		switch {
		case errors.As(err, &ae) && ae.status == http.StatusTooManyRequests:
			atomic.AddInt64(&s.counters.Rejected, 1)
		case errors.Is(err, ErrDeadlineTooShort):
			atomic.AddInt64(&s.counters.ShedDoomedDeadline, 1)
		case errors.Is(err, context.DeadlineExceeded):
			atomic.AddInt64(&s.counters.Timeouts, 1)
		case errors.As(err, &ae) && ae.status >= 400 && ae.status < 500:
			atomic.AddInt64(&s.counters.BadRequests, 1)
		}
	}
	return resp, err
}

func (s *Server) do(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	sc, err := s.resolve(req.Scenario, req.Query)
	if err != nil {
		return nil, err
	}
	opts, err := requestOptions(req)
	if err != nil {
		return nil, err
	}
	adm, err := s.admissionFor(req)
	if err != nil {
		return nil, err
	}
	tc := s.tenants.get(adm.tenant)
	atomic.AddInt64(&tc.Requests, 1)
	prep, canonical, err := s.prepare(sc, req.Query)
	if err != nil {
		return nil, err
	}
	ctx, cancel := withDeadline(ctx, s.cfg.RequestTimeout, req.TimeoutMS)
	defer cancel()

	// The epoch is read once per request: a mutation racing this request
	// either lands before the read (the request sees the new epoch and fresh
	// data) or after (the request caches under the old epoch, which the bump
	// just made unreachable).  Either way no stale answer is served under a
	// current key.
	key := CacheKey{
		Scenario: sc.Name(),
		Epoch:    sc.Epoch(),
		Query:    canonical,
		Method:   opts.Method,
		Strategy: opts.Strategy,
		TopK:     opts.TopK,
	}
	// queueWait is written by the compute callback, which GetOrCompute runs on
	// this goroutine (waiters coalesce; only the leader computes), so the
	// capture is race-free.
	var queueWait time.Duration
	ans, outcome, err := s.cache.GetOrCompute(ctx, key, func() (*CachedAnswer, error) {
		a, wait, err := s.evaluate(ctx, sc, prep, key, adm)
		queueWait = wait
		return a, err
	})
	if err != nil {
		if resp := s.tryStale(key, sc, adm, start, err); resp != nil {
			return resp, nil
		}
		return nil, err
	}
	if outcome == OutcomeHit {
		atomic.AddInt64(&tc.CacheHits, 1)
	}
	resp := response(key, key.Epoch, ans, start)
	resp.Cached, resp.Coalesced = outcome == OutcomeHit, outcome == OutcomeCoalesced
	resp.QueueWaitMS = float64(queueWait.Microseconds()) / 1000
	return resp, nil
}

// response is the body answering key's question with ans, an answer of the
// given epoch, for a request that started at start.
func response(key CacheKey, epoch uint64, ans *CachedAnswer, start time.Time) *Response {
	res := ans.Result
	return &Response{
		Scenario:  key.Scenario,
		Epoch:     epoch,
		Query:     key.Query,
		Method:    key.Method.String(),
		Strategy:  key.Strategy.String(),
		TopK:      key.TopK,
		Columns:   res.Columns,
		Answers:   ans.Wire(),
		EmptyProb: res.EmptyProb,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Result:    res,
	}
}

// tryStale is the last rung of the shed ladder: when the request was shed for
// capacity (429) or a doomed deadline, and stale serving is enabled, answer
// with the newest cached result for the same question from a previous epoch —
// provided every epoch since was an append (Scenario.StaleFloor).  The entry
// is an immutable, fully materialized result some earlier request was served
// fresh, so degradation never exposes a torn answer.
func (s *Server) tryStale(key CacheKey, sc *Scenario, adm admission, start time.Time, cause error) *Response {
	if s.cfg.DisableStaleServe {
		return nil
	}
	var ae *apiError
	if !errors.As(cause, &ae) {
		return nil
	}
	if ae.status != http.StatusTooManyRequests && !errors.Is(cause, ErrDeadlineTooShort) {
		return nil
	}
	ans, epoch, ok := s.cache.GetStale(key, sc.StaleFloor())
	if !ok {
		return nil
	}
	stale := epoch < key.Epoch
	if stale {
		atomic.AddInt64(&s.counters.StaleServed, 1)
		atomic.StoreInt64(&s.counters.StaleWindowEpochs, int64(key.Epoch-epoch))
		atomic.AddInt64(&s.tenants.get(adm.tenant).StaleServed, 1)
	}
	resp := response(key, epoch, ans, start)
	resp.Cached, resp.Stale = true, stale
	return resp
}

// evaluate runs one evaluation under the shed ladder, and reports the
// measured queue wait alongside the result:
//
//  1. the tenant's token bucket (429 with an exact Retry-After),
//  2. doomed-deadline rejection — remaining deadline below the scenario's
//     median cold latency means the evaluation would likely time out anyway
//     (504, ErrDeadlineTooShort),
//  3. the weighted-fair queue over the evaluation slots (429 after QueueWait).
//
// The ladder sits inside the cache's compute callback on purpose: cache hits
// and coalesced waiters consume no evaluation capacity, so they are admitted
// unconditionally and only actual evaluations spend tokens and slots.
func (s *Server) evaluate(ctx context.Context, sc *Scenario, prep *core.Prepared, key CacheKey, adm admission) (*CachedAnswer, time.Duration, error) {
	tc := s.tenants.get(adm.tenant)
	if s.limiter != nil {
		if ok, retryAfter := s.limiter.Admit(adm.tenant); !ok {
			atomic.AddInt64(&tc.ShedRateLimited, 1)
			return nil, 0, apiErrRetry(http.StatusTooManyRequests, retryAfter,
				fmt.Errorf("%w: tenant %q over its admission rate", ErrOverloaded, adm.tenant))
		}
	}
	// Deadlines live in wall time (context.WithTimeout), so this comparison
	// does too, whatever clock the QoS rungs run on.
	if deadline, ok := ctx.Deadline(); ok {
		if p50, have := s.latencyFor(sc.Name()).P50(); have {
			if remaining := time.Until(deadline); remaining < p50 {
				atomic.AddInt64(&tc.ShedDoomedDeadline, 1)
				return nil, 0, apiErr(http.StatusGatewayTimeout,
					fmt.Errorf("%w: %v remaining, median cold evaluation takes %v", ErrDeadlineTooShort, remaining.Round(time.Millisecond), p50.Round(time.Millisecond)))
			}
		}
	}
	wait, err := s.acquire(ctx, adm.tenant, adm.weight)
	tc.queueWait.Observe(wait)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			atomic.AddInt64(&tc.ShedQueueTimeout, 1)
		}
		return nil, wait, err
	}
	defer s.queue.Release()
	if f := s.cfg.Faults; f != nil && f.SlotStall != nil {
		f.SlotStall(adm.tenant)
	}

	atomic.AddInt64(&s.counters.Evaluations, 1)
	atomic.AddInt64(&tc.Evaluations, 1)
	if f := s.cfg.Faults; f != nil && f.SlowEvaluation != nil {
		f.SlowEvaluation(adm.tenant)
	}
	evalStart := s.clock.Now()
	opts := core.Options{Method: key.Method, Strategy: key.Strategy, Parallelism: s.cfg.Parallelism, TopK: key.TopK}
	var res *core.Result
	var st *core.DeltaState
	if s.maintainer != nil {
		// Delta-first: evaluate through the scatter form and keep the per-group
		// state in the cached answer, so later appends refresh it instead of
		// making it miss.  What the delta cannot maintain (non-SPJ plans,
		// self-joins, top-k) falls through to the ordinary evaluator and is
		// counted as a fallback.
		res, st, err = sc.EvaluateDelta(ctx, prep, opts)
		if errors.Is(err, core.ErrNotDeltaMaintainable) {
			atomic.AddInt64(&s.counters.DeltaFallbacks, 1)
			res, err = sc.EvaluatePrepared(ctx, prep, opts)
		}
	} else {
		res, err = sc.EvaluatePrepared(ctx, prep, opts)
	}
	if err != nil {
		atomic.AddInt64(&s.counters.EvalErrors, 1)
		return nil, wait, err
	}
	s.latencyFor(sc.Name()).Observe(s.clock.Now().Sub(evalStart))
	s.recordRun(res.Stats, res.ExecTime)
	s.stageReformulate.Observe(res.RewriteTime)
	s.stageMerge.Observe(res.AggregateTime)
	return &CachedAnswer{Result: res, State: st}, wait, nil
}

// decodeBody opens every POST route: 405 for any other method, before a body
// is read, then the JSON body (1 MiB at most, no unknown fields, untyped
// numbers as json.Number) into v, and nothing after it but white space.  It
// reports false after answering an error.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	err := dec.Decode(v)
	if err == nil {
		// Decode reads one value; whatever follows it must be end of input.
		if _, tail := dec.Token(); tail != io.EOF {
			err = fmt.Errorf("trailing data after the JSON value")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return false
	}
	return true
}

// readOnly opens every GET route: GET or HEAD runs answer, any other method
// is 405.
func readOnly(w http.ResponseWriter, r *http.Request, answer func()) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	answer()
}

// admit lets a request in unless the server is draining or still recovering
// (503 either way).  Every admitted request is tracked, so Drain can wait for
// it, until it calls leave.
func (s *Server) admit() error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	switch {
	case s.drainSet:
		atomic.AddInt64(&s.counters.Unavailable, 1)
		return apiErr(http.StatusServiceUnavailable, ErrDraining)
	case s.recovering.Load():
		atomic.AddInt64(&s.counters.Unavailable, 1)
		return apiErr(http.StatusServiceUnavailable, ErrRecovering)
	}
	s.wg.Add(1)
	atomic.AddInt64(&s.counters.Inflight, 1)
	return nil
}

// checkNames is what a query-shaped request must carry before anything reads
// it: a scenario name and a query that is not blank.
func checkNames(scenario, text string) error {
	if scenario == "" {
		return errBadRequest("missing scenario")
	}
	if strings.TrimSpace(text) == "" {
		return errBadRequest("%w: missing query", query.ErrBadQuery)
	}
	return nil
}

// scenario resolves a scenario by name: 503 when recovery quarantined it
// (counted as unavailable), 404 when no scenario has the name.
func (s *Server) scenario(name string) (*Scenario, error) {
	if sc, ok := s.registry.Get(name); ok {
		return sc, nil
	}
	if qerr, quarantined := s.registry.QuarantineReason(name); quarantined {
		atomic.AddInt64(&s.counters.Unavailable, 1)
		return nil, apiErr(http.StatusServiceUnavailable, fmt.Errorf("%w: %q: %v", ErrQuarantined, name, qerr))
	}
	return nil, apiErr(http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownScenario, name))
}

// resolve is checkNames on a node, which also looks a named scenario up —
// before the query is checked, so an unknown scenario is 404 whatever the
// query says.
func (s *Server) resolve(name, text string) (sc *Scenario, err error) {
	if name != "" {
		if sc, err = s.scenario(name); err != nil {
			return nil, err
		}
	}
	if err := checkNames(name, text); err != nil {
		return nil, err
	}
	return sc, nil
}

// requestOptions reads what a query request asks to evaluate: its method,
// strategy and top-k, each refused with 400 under core.ErrBadOptions.
func requestOptions(req Request) (core.Options, error) {
	method, err := parseMethod(req.Method)
	if err != nil {
		return core.Options{}, err
	}
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		return core.Options{}, err
	}
	if req.TopK < 0 {
		return core.Options{}, errBadRequest("%w: topk must be >= 0, got %d", core.ErrBadOptions, req.TopK)
	}
	return core.Options{Method: method, Strategy: strategy, TopK: req.TopK}, nil
}

// parseMethod reads a request's method name; none selects o-sharing.
func parseMethod(name string) (core.Method, error) {
	return parseOption(name, core.MethodOSharing, core.ParseMethod)
}

// parseStrategy reads a request's o-sharing strategy name; none selects SEF.
func parseStrategy(name string) (core.Strategy, error) {
	return parseOption(name, core.StrategySEF, core.ParseStrategy)
}

// parseOption reads one named evaluation option of a request: none selects
// def, a name parse refuses is 400 under core.ErrBadOptions.
func parseOption[T any](name string, def T, parse func(string) (T, error)) (T, error) {
	if name == "" {
		return def, nil
	}
	v, err := parse(name)
	if err != nil {
		return v, errBadRequest("%w: %v", core.ErrBadOptions, err)
	}
	return v, nil
}

// prepare is the prepared-query cache lookup and its accounting.  The cache
// makes answer-cache *misses* cheap too: the first sight of (epoch, query
// text) parses, reformulates through every mapping and compiles plans; every
// later request — even with a cold answer cache — skips straight to
// execution.
func (s *Server) prepare(sc *Scenario, text string) (*core.Prepared, string, error) {
	start := time.Now()
	prep, canonical, reused, err := sc.Prepare(text)
	if err != nil {
		return nil, "", apiErr(http.StatusBadRequest, err)
	}
	if reused {
		atomic.AddInt64(&s.counters.PreparedReuses, 1)
	} else {
		atomic.AddInt64(&s.counters.PreparedBuilds, 1)
		s.stageParse.Observe(time.Since(start))
	}
	return prep, canonical, nil
}

// acquire waits for an evaluation slot, the capacity /v1/query evaluations
// and scatters share; 429 with the queue-wait budget as Retry-After when none
// frees up in time.  The caller releases the slot it got.
func (s *Server) acquire(ctx context.Context, tenant string, weight float64) (time.Duration, error) {
	wait, err := s.queue.Acquire(ctx, tenant, weight, s.cfg.QueueWait)
	s.queueWait.Observe(wait)
	if errors.Is(err, qos.ErrSaturated) {
		err = apiErrRetry(http.StatusTooManyRequests, s.cfg.QueueWait,
			fmt.Errorf("%w: no evaluation slot within %v", ErrOverloaded, s.cfg.QueueWait))
	}
	return wait, err
}

// withDeadline bounds a request by limit, or by its timeout_ms when that is
// shorter: a request may ask for less time, never more.
func withDeadline(ctx context.Context, limit time.Duration, timeoutMS int) (context.Context, context.CancelFunc) {
	if d := time.Duration(timeoutMS) * time.Millisecond; timeoutMS > 0 && d < limit {
		limit = d
	}
	return context.WithTimeout(ctx, limit)
}

// recordRun adds one run's operator statistics and execution time to the
// counters.
func (s *Server) recordRun(stats *engine.Stats, exec time.Duration) {
	atomic.AddInt64(&s.counters.IndexBuilds, int64(stats.IndexBuilds()))
	atomic.AddInt64(&s.counters.IndexLookups, int64(stats.IndexLookups()))
	atomic.AddInt64(&s.counters.Operators, int64(stats.TotalOperators()))
	s.stageExecute.Observe(exec)
}

func (s *Server) leave() {
	atomic.AddInt64(&s.counters.Inflight, -1)
	s.wg.Done()
}

func (s *Server) draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.drainSet
}

// Drain stops admitting requests and waits for the in-flight ones to finish,
// or for the context to expire — whichever comes first.  It is idempotent;
// wiring it before http.Server.Shutdown gives a clean two-phase stop: refuse
// new work, finish accepted work, then close listeners.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.drainSet = true
	s.drainMu.Unlock()
	if s.maintainer != nil {
		// Stop background maintenance first: no new answers are published while
		// the accepted requests finish, and the maintenance goroutine is down
		// before the process exits.
		s.maintainer.halt()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %d request(s) still in flight: %w", atomic.LoadInt64(&s.counters.Inflight), ctx.Err())
	}
}

// ServeHTTP routes the JSON API:
//
//	POST /v1/query      evaluate (or serve from cache)
//	POST /v1/scatter    shard-side half of a coordinator fan-out (per-group rows)
//	POST /v1/append     append a row to a scenario relation (durable when a store is attached)
//	POST /v1/bump       bump a scenario's epoch (invalidate cached answers)
//	GET  /v1/scenarios  registered scenarios
//	GET  /healthz       readiness ("recovering" then "draining" beat "ok")
//	GET  /metrics       counters snapshot
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/query":
		s.handleQuery(w, r)
	case r.URL.Path == "/v1/scatter":
		s.handleScatter(w, r)
	case r.URL.Path == "/v1/append":
		s.handleAppend(w, r)
	case r.URL.Path == "/v1/bump":
		s.handleBump(w, r)
	case r.URL.Path == "/v1/scenarios":
		readOnly(w, r, func() { writeJSON(w, http.StatusOK, map[string]any{"scenarios": s.scenarioInfos()}) })
	case r.URL.Path == "/healthz":
		readOnly(w, r, func() { s.handleHealthz(w) })
	case r.URL.Path == "/metrics":
		readOnly(w, r, func() { writeJSON(w, http.StatusOK, s.snapshotMetrics()) })
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("no route %s %s", r.Method, r.URL.Path))
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, &req) {
		return
	}
	// Headers carry the QoS identity so callers can route without touching
	// the body; an explicit body field wins over the header.
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-URM-Tenant")
	}
	if req.Priority == "" {
		req.Priority = r.Header.Get("X-URM-Priority")
	}
	resp, err := s.Do(r.Context(), req)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter) {
	// "recovering" outranks "draining": a node still replaying its WAL has
	// not served anything yet, so balancers should treat it as not-yet-ready
	// rather than going-away.
	if s.recovering.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering"})
		return
	}
	if s.draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// AppendRequest is the body of POST /v1/append.  Values map JSON types onto
// engine values: strings stay strings, integral numbers become ints, other
// numbers become floats, null becomes the null value.  Exactly one of Values
// (a single row) and Rows (a batch) must be set; a batch commits as one epoch
// step and one WAL record — one fsync however many rows it carries.
type AppendRequest struct {
	Scenario string  `json:"scenario"`
	Relation string  `json:"relation"`
	Values   []any   `json:"values,omitempty"`
	Rows     [][]any `json:"rows,omitempty"`
}

// BumpRequest is the body of POST /v1/bump.
type BumpRequest struct {
	Scenario string `json:"scenario"`
}

// mutableScenario admits a mutation and resolves its scenario; the admitted
// caller leaves when done.
func (s *Server) mutableScenario(name string) (*Scenario, error) {
	if err := s.admit(); err != nil {
		return nil, err
	}
	sc, err := s.scenario(name)
	if err != nil {
		s.leave()
	}
	return sc, err
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if (req.Values != nil) == (req.Rows != nil) {
		writeError(w, http.StatusBadRequest, "exactly one of values and rows must be set")
		return
	}
	batch := req.Rows
	if req.Values != nil {
		batch = [][]any{req.Values}
	}
	rows := make([]engine.Tuple, len(batch))
	for i, values := range batch {
		row, err := tupleFromJSON(values)
		if err != nil {
			if req.Rows != nil {
				err = fmt.Errorf("rows[%d]: %v", i, err)
			}
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		rows[i] = row
	}
	sc, err := s.mutableScenario(req.Scenario)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	defer s.leave()
	if err = sc.AppendRows(req.Relation, rows); err != nil {
		// A persistence failure means the rows are live in memory but not on
		// disk — that is a server-side durability fault, not a bad request.
		status := http.StatusBadRequest
		if sc.PersistErr() != nil {
			status = http.StatusInternalServerError
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"scenario": sc.Name(),
		"relation": req.Relation,
		"epoch":    sc.Epoch(),
		"rows":     sc.NumRows(),
	})
}

func (s *Server) handleBump(w http.ResponseWriter, r *http.Request) {
	var req BumpRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sc, err := s.mutableScenario(req.Scenario)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	defer s.leave()
	epoch := sc.Bump()
	if err := sc.PersistErr(); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("epoch bumped in memory but not persisted: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenario": sc.Name(), "epoch": epoch})
}

// tupleFromJSON converts a decoded JSON value slice (with json.Number for
// numbers) into an engine tuple.
func tupleFromJSON(values []any) (engine.Tuple, error) {
	row := make(engine.Tuple, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case nil:
			row[i] = engine.Null()
		case string:
			row[i] = engine.S(x)
		case json.Number:
			if n, err := strconv.ParseInt(string(x), 10, 64); err == nil {
				row[i] = engine.I(n)
			} else if f, err := x.Float64(); err == nil {
				row[i] = engine.F(f)
			} else {
				return nil, fmt.Errorf("values[%d]: unparseable number %q", i, x)
			}
		case bool:
			return nil, fmt.Errorf("values[%d]: booleans are not supported", i)
		default:
			return nil, fmt.Errorf("values[%d]: unsupported JSON type %T", i, v)
		}
	}
	return row, nil
}

func (s *Server) scenarioInfos() []ScenarioInfo {
	names := s.registry.Names()
	out := make([]ScenarioInfo, 0, len(names))
	for _, name := range names {
		sc, ok := s.registry.Get(name)
		if !ok {
			continue
		}
		out = append(out, ScenarioInfo{
			Name:            sc.Name(),
			Target:          sc.TargetLabel(),
			Epoch:           sc.Epoch(),
			Mappings:        len(sc.Mappings()),
			Relations:       len(sc.DB().RelationNames()),
			Rows:            sc.NumRows(),
			WarmIndexBuilds: sc.WarmIndexBuilds(),
			Shard:           s.cfg.Shard,
		})
	}
	return out
}

func answersJSON(res *core.Result) []AnswerJSON {
	out := make([]AnswerJSON, len(res.Answers))
	for i, a := range res.Answers {
		values := make([]any, len(a.Tuple))
		for j, v := range a.Tuple {
			values[j] = valueJSON(v)
		}
		out[i] = AnswerJSON{Values: values, Prob: a.Prob}
	}
	return out
}

func valueJSON(v engine.Value) any {
	switch v.Kind {
	case engine.KindString:
		return v.Str
	case engine.KindInt:
		return v.Int
	case engine.KindFloat:
		return v.Float
	default:
		return nil
	}
}

// bodyPool recycles the buffers writeJSON encodes into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer returned to bodyPool: one large answer
// must not keep its memory alive for the life of the process.
const maxPooledBody = 1 << 20

// writeJSON answers every route: body as one compact JSON line, encoded whole
// before anything is written, so the response carries its Content-Length and
// goes out in one Write.  Because nothing is written before the encoding
// succeeds, a value JSON cannot carry (an infinite or NaN float) is a 500
// naming it, never a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encoding the response: %v", err))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client went away
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}

// writeAPIError answers a request whose core (Do, Scatter, the coordinator's
// Query) failed: the status an apiError carries, 504 for a deadline that
// passed, 500 otherwise, and a Retry-After hint when the error has one — the
// header in integer seconds (rounded up, HTTP cannot say less than 1), the
// body's retry_after_ms precise for clients that can use it.
func writeAPIError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		status = ae.status
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status code is for the log line only.
		status = 499
	}
	body := map[string]any{"error": err.Error(), "status": status}
	if retryAfter := RetryAfter(err); retryAfter > 0 {
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		body["retry_after_ms"] = float64(retryAfter.Microseconds()) / 1000
	}
	writeJSON(w, status, body)
}
