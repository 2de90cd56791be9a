package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/qos"
	"github.com/probdb/urm/internal/store"
)

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// Shards is the deployment's shard count; every query fans out to all of
	// them.
	Shards int
	// LeaseInterval is the heartbeat cadence handed to nodes (default 2s);
	// MissedIntervals is how many heartbeats a node may miss before its
	// leases expire (default 3).
	LeaseInterval   time.Duration
	MissedIntervals int
	// RequestTimeout caps one coordinated query end to end, fan-out retries
	// included (0 = 30s).
	RequestTimeout time.Duration
	// Client issues the shard HTTP requests (nil = a client of the
	// coordinator's own, keeping shardIdleConns idle connections per node).
	Client *http.Client
	// Retry shapes the per-shard retry loop.  Its zero value gets the qos
	// defaults (4 attempts, 50ms base, 2s cap).
	Retry qos.Backoff
	// Clock is the injected time source for leases and backoff (nil = wall).
	Clock qos.Clock
	// Store, when non-nil, persists the lease table so a restarted
	// coordinator keeps routing without waiting out a heartbeat round.
	Store *store.Store
}

// Coordinator is the multi-node half of sharded evaluation: an http.Handler
// that owns the shard map and no data.  Shard nodes register by heartbeating
// POST /v1/lease; queries arriving at POST /v1/query fan out as /v1/scatter
// requests to each shard's current lease owner, and the per-group answer
// sets are merged by core.ScatterPlan.Merge — the same float-addition
// sequence as unsharded evaluation, so coordinated answers are bit-identical
// to a single node holding all the data.
//
// Failure modes are explicit rather than silent: a shard with no live owner
// (after retries) is 503 with the lease interval as Retry-After — never a
// partial answer; shard responses that disagree on the deterministic front
// half (epoch, canonical query, group probabilities and subtrees), or whose
// group list the merge could not walk, are 502 — merging them could fabricate
// answers; plans that cannot distribute, which the shards refuse, are 422,
// because unlike a single sharded process the coordinator holds no
// unpartitioned instance to fall back to.  A top-k request is o-sharing's
// walk with another consumer, so it scatters o-sharing under its strategy and
// the merge feeds the merged leaves to the top-k bounds.
type Coordinator struct {
	counters CoordinatorCounters // first, so the atomic adds are 64-bit aligned

	cfg    CoordinatorConfig
	leases *LeaseTable
	client *http.Client
}

// shardIdleConns is how many idle connections the coordinator's own client
// keeps per shard node.  Every coordinated query holds one connection to each
// shard for its whole fan-out, so the pool has to cover the concurrent
// queries or each burst dials afresh: net/http's default of 2 made 8
// concurrent callers open three times the connections they needed.
const shardIdleConns = 64

// maxScatterBody caps one shard's scatter response; a larger body fails the
// query with 502 instead of being cut short.
const maxScatterBody = 16 << 20

// NewCoordinator builds a coordinator, restoring persisted leases when the
// config carries a store.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	lt, err := NewLeaseTable(LeaseConfig{
		Shards:          cfg.Shards,
		Interval:        cfg.LeaseInterval,
		MissedIntervals: cfg.MissedIntervals,
		Clock:           cfg.Clock,
		Store:           cfg.Store,
	})
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			MaxIdleConnsPerHost: shardIdleConns,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if cfg.Retry.Clock == nil {
		cfg.Retry.Clock = cfg.Clock
	}
	return &Coordinator{cfg: cfg, leases: lt, client: client}, nil
}

// Leases exposes the coordinator's lease table (tests and metrics).
func (c *Coordinator) Leases() *LeaseTable { return c.leases }

// LeaseRequest is the body of POST /v1/lease — one shard node's heartbeat.
type LeaseRequest struct {
	Node   string `json:"node"`
	Addr   string `json:"addr"`
	Shards []int  `json:"shards"`
}

// LeaseResponse acknowledges a heartbeat and tells the node the cadence the
// coordinator expects, so interval configuration lives in one place.
type LeaseResponse struct {
	IntervalMS float64               `json:"interval_ms"`
	TTLMS      float64               `json:"ttl_ms"`
	Owners     map[string]LeaseOwner `json:"owners"`
}

// CoordinatorCounters are the coordinator's counters, declared once: the
// coordinator adds to a live copy atomically, and CoordinatorMetrics embeds a
// snapshot.
type CoordinatorCounters struct {
	Requests int64 `json:"requests"`
	// Merged counts queries answered by a full fan-out merge.
	Merged int64 `json:"merged"`
	// Unowned counts 503s of a shard with no live owner, NotShardable the
	// 422s of a plan that cannot distribute, and Mismatches the 502s of
	// shards that disagreed on the front half.
	Unowned      int64 `json:"unowned"`
	NotShardable int64 `json:"not_shardable"`
	// UpstreamErrors counts shard responses that failed or were 5xx.
	UpstreamErrors int64 `json:"upstream_errors"`
	Mismatches     int64 `json:"mismatches"`
	Heartbeats     int64 `json:"heartbeats"`
	// ScatterRows/ScatterBytes count what the scatter hop moved: rows and
	// body bytes received from shard nodes on successful attempts.
	ScatterRows  int64 `json:"scatter_rows"`
	ScatterBytes int64 `json:"scatter_bytes"`
}

// CoordinatorMetrics is the JSON body of the coordinator's GET /metrics.
type CoordinatorMetrics struct {
	CoordinatorCounters
	LeasePersistErrors int64         `json:"lease_persist_errors"`
	Leases             LeaseSnapshot `json:"leases"`
}

// Metrics returns a snapshot of the coordinator counters.
func (c *Coordinator) Metrics() CoordinatorMetrics {
	return CoordinatorMetrics{
		CoordinatorCounters: loadCounters(&c.counters),
		LeasePersistErrors:  c.leases.PersistErrors(),
		Leases:              c.leases.Snapshot(),
	}
}

// ServeHTTP routes the coordinator API:
//
//	POST /v1/query      fan out to shard owners, merge, answer
//	POST /v1/lease      shard-node heartbeat
//	GET  /v1/scenarios  aggregated per-shard scenario placement
//	GET  /healthz       ok once every shard has a live owner
//	GET  /metrics       coordinator counters + lease table
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/query":
		c.handleQuery(w, r)
	case r.URL.Path == "/v1/lease":
		c.handleLease(w, r)
	case r.URL.Path == "/v1/scenarios":
		readOnly(w, r, func() { c.handleScenarios(w, r) })
	case r.URL.Path == "/healthz":
		readOnly(w, r, func() { c.handleHealthz(w) })
	case r.URL.Path == "/metrics":
		readOnly(w, r, func() { writeJSON(w, http.StatusOK, c.Metrics()) })
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("no route %s %s", r.Method, r.URL.Path))
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := c.leases.Heartbeat(req.Node, req.Addr, req.Shards); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	atomic.AddInt64(&c.counters.Heartbeats, 1)
	snap := c.leases.Snapshot()
	writeJSON(w, http.StatusOK, LeaseResponse{
		IntervalMS: snap.IntervalMS,
		TTLMS:      snap.TTLMS,
		Owners:     snap.Owners,
	})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter) {
	snap := c.leases.Snapshot()
	if len(snap.Unowned) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":  "waiting-for-shards",
			"unowned": snap.Unowned,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// ErrShardUnowned is returned (and mapped to 503 with the lease interval as
// Retry-After) when a shard has no live lease owner: the coordinator cannot
// answer without it and refuses to fabricate a partial answer.
var ErrShardUnowned = errors.New("shard has no live owner")

// ErrShardMismatch is returned (and mapped to 502) when shard responses
// disagree on the deterministic front half — different epochs, canonical
// queries or group probabilities.  Merging disagreeing shards could fabricate
// an answer distribution no instance ever held, so the coordinator refuses.
var ErrShardMismatch = errors.New("shard responses disagree")

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := c.Query(r.Context(), req)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Query answers one request by scatter fan-out and merge.  It is the
// transport-free core handleQuery wraps, like Server.Do.
func (c *Coordinator) Query(ctx context.Context, req Request) (*Response, error) {
	atomic.AddInt64(&c.counters.Requests, 1)
	start := time.Now()
	if err := checkNames(req.Scenario, req.Query); err != nil {
		return nil, err
	}
	opts, err := requestOptions(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := withDeadline(ctx, c.cfg.RequestTimeout, req.TimeoutMS)
	defer cancel()

	// One body serves every shard and every retry.
	front := opts.FrontMethod()
	body, err := json.Marshal(ScatterRequest{Scenario: req.Scenario, Query: req.Query, Method: front.String(), Strategy: opts.Strategy.String()})
	if err != nil {
		return nil, err
	}
	parts := make([]*shardReply, c.cfg.Shards)
	errs := make([]error, c.cfg.Shards)
	var wg sync.WaitGroup
	for i := 0; i < c.cfg.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = c.scatterShard(ctx, i, body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	res, err := c.mergeParts(front, opts.TopK, parts)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&c.counters.Merged, 1)
	key := CacheKey{Scenario: req.Scenario, Query: parts[0].Query, Method: opts.Method, Strategy: opts.Strategy, TopK: opts.TopK}
	return response(key, parts[0].Epoch, &CachedAnswer{Result: res}, start), nil
}

// shardReply is one shard's accepted scatter response and the run its packed
// rows unpacked to.
type shardReply struct {
	*ScatterResponse
	run *core.ShardRun
}

// scatterShard runs one shard's scatter with per-attempt owner resolution:
// the lease table is consulted on every retry, so a lease expiring mid-query
// re-routes the next attempt to the promoted standby instead of hammering the
// dead owner.
func (c *Coordinator) scatterShard(ctx context.Context, index int, body []byte) (*shardReply, error) {
	var resp *shardReply
	err := qos.Retry(ctx, c.cfg.Retry, func(ctx context.Context) (time.Duration, bool, error) {
		owner, ok := c.leases.Owner(index)
		if !ok {
			// Unowned is retryable: the standby's next heartbeat may promote
			// it within the backoff budget.
			return c.leases.Interval(), true, apiErrRetry(http.StatusServiceUnavailable, c.leases.Interval(),
				fmt.Errorf("%w: shard %d", ErrShardUnowned, index))
		}
		r, retryAfter, retryable, err := c.scatterOnce(ctx, owner, index, body)
		if err != nil {
			return retryAfter, retryable, err
		}
		resp = r
		return 0, false, nil
	})
	if err != nil {
		if errors.Is(err, ErrShardUnowned) {
			atomic.AddInt64(&c.counters.Unowned, 1)
		}
		return nil, err
	}
	return resp, nil
}

// scatterOnce issues one POST /v1/scatter to a shard owner and classifies the
// outcome: network errors and 429/503/504 are retryable (with the server's
// Retry-After hint when it sent one), 400, 404 and 422 are relayed as the
// request's fault, other statuses, a body over maxScatterBody and a 200 body
// acceptScatter refuses fail the query with 502.
func (c *Coordinator) scatterOnce(ctx context.Context, owner LeaseOwner, index int, body []byte) (*shardReply, time.Duration, bool, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner.Addr+"/v1/scatter", bytes.NewReader(body))
	if err != nil {
		return nil, 0, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.client.Do(hreq)
	if err != nil {
		// The transport failed (connection refused, reset, timeout): the node
		// may be mid-crash with its lease not yet expired, so retry — the
		// per-attempt owner resolution picks up a standby once promoted.
		atomic.AddInt64(&c.counters.UpstreamErrors, 1)
		return nil, 0, true, fmt.Errorf("node %q: %w", owner.Node, err)
	}
	defer hresp.Body.Close()
	data, err := readScatterBody(hresp)
	if err != nil {
		atomic.AddInt64(&c.counters.UpstreamErrors, 1)
		if errors.Is(err, errScatterBodyTooLarge) {
			return nil, 0, false, apiErr(http.StatusBadGateway, fmt.Errorf("node %q: %w", owner.Node, err))
		}
		return nil, 0, true, fmt.Errorf("node %q: reading response: %w", owner.Node, err)
	}
	switch hresp.StatusCode {
	case http.StatusOK:
		r, err := c.acceptScatter(owner, index, data)
		return r, 0, false, err
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		atomic.AddInt64(&c.counters.UpstreamErrors, 1)
		hint := retryAfterHint(hresp, data)
		return nil, hint, true,
			apiErrRetry(hresp.StatusCode, hint, fmt.Errorf("node %q: %s", owner.Node, upstreamMessage(hresp.StatusCode, data)))
	case http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity:
		// The request's own fault, which every node answers alike: relayed,
		// never retried nor counted against the node.  The sentinel a node's
		// message opens with is wrapped around the rest, so its sentence is
		// said once, and the status is not repeated.
		if hresp.StatusCode == http.StatusUnprocessableEntity {
			atomic.AddInt64(&c.counters.NotShardable, 1)
		}
		msg := strings.TrimPrefix(upstreamMessage(hresp.StatusCode, data), fmt.Sprintf("%d: ", hresp.StatusCode))
		err := fmt.Errorf("node %q: %s", owner.Node, msg)
		if sentinel := relayedSentinels[hresp.StatusCode]; sentinel != nil {
			err = fmt.Errorf("%w: node %q: %s", sentinel, owner.Node, strings.TrimPrefix(msg, sentinel.Error()+": "))
		}
		return nil, 0, false, apiErr(hresp.StatusCode, err)
	default:
		atomic.AddInt64(&c.counters.UpstreamErrors, 1)
		return nil, 0, false, apiErr(http.StatusBadGateway,
			fmt.Errorf("node %q: %s", owner.Node, upstreamMessage(hresp.StatusCode, data)))
	}
}

// acceptScatter decodes a shard's 200 body and unpacks its rows on that
// shard's fan-out goroutine, so the shards' bodies unpack in parallel.  It
// refuses with a 502 naming the node, never retried: a body that is not the
// response's JSON (a node of an older wire schema sends one), packed rows
// that do not unpack (a mismatch, naming the group too), and a node that
// answered for another slice than shard index.
func (c *Coordinator) acceptScatter(owner LeaseOwner, index int, data []byte) (*shardReply, error) {
	var sr ScatterResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		atomic.AddInt64(&c.counters.UpstreamErrors, 1)
		return nil, apiErr(http.StatusBadGateway, fmt.Errorf("node %q: undecodable scatter response: %w", owner.Node, err))
	}
	run, err := unpackRun(&sr)
	if err != nil {
		return nil, c.mismatch("node %q: %v", owner.Node, err)
	}
	rows := 0
	for _, g := range run.Groups {
		rows += len(g.Rows)
	}
	atomic.AddInt64(&c.counters.ScatterRows, int64(rows))
	atomic.AddInt64(&c.counters.ScatterBytes, int64(len(data)))
	if sr.Shard == nil || sr.Shard.Index != index || sr.Shard.Count != c.cfg.Shards {
		// The node answered for the wrong slice (misconfigured boot).
		got := "no shard identity"
		if sr.Shard != nil {
			got = fmt.Sprintf("shard %d of %d", sr.Shard.Index, sr.Shard.Count)
		}
		return nil, c.mismatch("node %q answered as %s, want shard %d of %d", owner.Node, got, index, c.cfg.Shards)
	}
	return &shardReply{&sr, run}, nil
}

// relayedSentinels are the sentinels a relayed status's error wraps.
var relayedSentinels = map[int]error{
	http.StatusNotFound:            ErrUnknownScenario,
	http.StatusUnprocessableEntity: ErrNotDistributable,
}

// errScatterBodyTooLarge marks a scatter response over maxScatterBody.
var errScatterBodyTooLarge = fmt.Errorf("scatter response exceeds the %d MiB limit", maxScatterBody>>20)

// readScatterBody reads a shard's response whole.  A node that declares its
// Content-Length (every successful scatter does) is read into a buffer of
// exactly that size; a body of undeclared length is read one byte past the
// limit, so that an oversized one is reported as such instead of surfacing
// as truncated JSON.
func readScatterBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n > maxScatterBody {
		return nil, errScatterBodyTooLarge
	}
	if n >= 0 {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxScatterBody+1))
	if err == nil && len(data) > maxScatterBody {
		return nil, errScatterBodyTooLarge
	}
	return data, err
}

// retryAfterHint extracts the server's wait hint from a shard error response:
// the precise retry_after_ms body field when present, else the Retry-After
// header, else zero (the backoff's own schedule applies).
func retryAfterHint(resp *http.Response, body []byte) time.Duration {
	var parsed struct {
		RetryAfterMS float64 `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(body, &parsed); err == nil && parsed.RetryAfterMS > 0 {
		return time.Duration(parsed.RetryAfterMS * float64(time.Millisecond))
	}
	if h := resp.Header.Get("Retry-After"); h != "" {
		if secs, err := strconv.Atoi(h); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// upstreamMessage renders a shard error body for wrapping: the JSON error
// field when decodable, else the status text.
func upstreamMessage(status int, body []byte) string {
	var parsed struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &parsed); err == nil && parsed.Error != "" {
		return fmt.Sprintf("%d: %s", status, parsed.Error)
	}
	return fmt.Sprintf("%d %s", status, http.StatusText(status))
}

// mismatch counts and reports shard responses it refuses to merge: 502.
func (c *Coordinator) mismatch(format string, args ...any) error {
	atomic.AddInt64(&c.counters.Mismatches, 1)
	return apiErr(http.StatusBadGateway, fmt.Errorf("%w: %s", ErrShardMismatch, fmt.Sprintf(format, args...)))
}

// mergeParts checks every shard response's group list and deterministic front
// half, then merges their unpacked runs as the shards' runs of one plan: into
// the whole distribution, or the top k answers when k is positive.
func (c *Coordinator) mergeParts(method core.Method, k int, parts []*shardReply) (*core.Result, error) {
	first := parts[0]
	sp := &core.ScatterPlan{Method: method, PreEmptyProb: first.PreEmptyProb, Groups: make([]core.ScatterGroup, len(first.Groups))}
	runs := make([]*core.ShardRun, len(parts))
	for i, p := range parts {
		if err := groupsWellFormed(p.Groups); err != nil {
			return nil, c.mismatch("shard %d (node %q): %v", i, p.Shard.Node, err)
		}
		if err := scatterConsistent(first.ScatterResponse, p.ScatterResponse); err != nil {
			return nil, c.mismatch("shard 0 (node %q) vs shard %d (node %q): %v", first.Shard.Node, i, p.Shard.Node, err)
		}
		runs[i] = p.run
	}
	for gi, g := range first.Groups {
		sp.Groups[gi] = core.ScatterGroup{Prob: g.Prob, Below: g.Below} // every part's, by scatterConsistent
	}
	answers, emptyProb := sp.Merge(k, runs...)
	if k > 0 {
		method = core.MethodTopK
	}
	return &core.Result{
		Method:    method,
		Answers:   answers,
		EmptyProb: emptyProb,
		Columns:   first.Columns,
	}, nil
}

// groupsWellFormed checks a shard's group list as outside input, for what the
// merge reads: every subtree ends inside the list, only an internal node
// carries a prune mark, and only a covered group carries rows.
func groupsWellFormed(groups []ScatterGroupJSON) error {
	for gi, g := range groups {
		switch {
		case g.Below < 0 || g.Below >= len(groups)-gi:
			return fmt.Errorf("group %d's subtree of %d runs past the %d groups", gi, g.Below, len(groups))
		case g.Pruned && g.Below == 0:
			return fmt.Errorf("group %d is a leaf marked pruned", gi)
		case !g.Covered && len(g.Rows) > 0:
			return fmt.Errorf("group %d does not cover the query but carries rows", gi)
		}
	}
	return nil
}

// scatterConsistent verifies two shard responses share the deterministic
// front half: same epoch, canonical query, method, columns, pre-group empty
// mass and group sequence (count, probabilities, coverage, subtrees).  Shard nodes
// regenerate the scenario from the same seed, so any disagreement means a
// node is running different data or code and merging would be unsound.
func scatterConsistent(a, b *ScatterResponse) error {
	if a.Epoch != b.Epoch {
		return fmt.Errorf("epoch %d vs %d", a.Epoch, b.Epoch)
	}
	if a.Query != b.Query {
		return fmt.Errorf("canonical query %q vs %q", a.Query, b.Query)
	}
	if a.Method != b.Method {
		return fmt.Errorf("method %q vs %q", a.Method, b.Method)
	}
	if !slices.Equal(a.Columns, b.Columns) {
		return fmt.Errorf("columns %q vs %q", a.Columns, b.Columns)
	}
	if a.PreEmptyProb != b.PreEmptyProb {
		return fmt.Errorf("pre-group empty mass %v vs %v", a.PreEmptyProb, b.PreEmptyProb)
	}
	if len(a.Groups) != len(b.Groups) {
		return fmt.Errorf("%d groups vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if ga.Prob != gb.Prob || ga.Covered != gb.Covered || ga.Below != gb.Below {
			return fmt.Errorf("group %d (prob %v covered %v below %d) vs (prob %v covered %v below %d)",
				i, ga.Prob, ga.Covered, ga.Below, gb.Prob, gb.Covered, gb.Below)
		}
	}
	return nil
}

// ScenarioShardInfo is one shard's placement of a scenario in the
// coordinator's GET /v1/scenarios.
type ScenarioShardInfo struct {
	Shard int    `json:"shard"`
	Node  string `json:"node"`
	Addr  string `json:"addr"`
	Epoch uint64 `json:"epoch"`
	Rows  int    `json:"rows"`
}

// CoordinatorScenario aggregates one scenario's per-shard placement.  Rows
// are reported per shard rather than summed: replicated relations appear on
// every shard, so a sum would double-count them.
type CoordinatorScenario struct {
	Name     string              `json:"name"`
	Target   string              `json:"target"`
	Mappings int                 `json:"mappings"`
	Shards   []ScenarioShardInfo `json:"shards"`
}

func (c *Coordinator) handleScenarios(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	defer cancel()
	owners := c.leases.Owners()
	type shardList struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}
	lists := make(map[int]*shardList, len(owners))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for index, owner := range owners {
		wg.Add(1)
		go func(index int, owner LeaseOwner) {
			defer wg.Done()
			hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, owner.Addr+"/v1/scenarios", nil)
			if err != nil {
				return
			}
			hresp, err := c.client.Do(hreq)
			if err != nil {
				atomic.AddInt64(&c.counters.UpstreamErrors, 1)
				return
			}
			defer hresp.Body.Close()
			if hresp.StatusCode != http.StatusOK {
				atomic.AddInt64(&c.counters.UpstreamErrors, 1)
				return
			}
			var sl shardList
			if err := json.NewDecoder(io.LimitReader(hresp.Body, 16<<20)).Decode(&sl); err != nil {
				atomic.AddInt64(&c.counters.UpstreamErrors, 1)
				return
			}
			mu.Lock()
			lists[index] = &sl
			mu.Unlock()
		}(index, owner)
	}
	wg.Wait()
	byName := make(map[string]*CoordinatorScenario)
	for index, sl := range lists {
		owner := owners[index]
		for _, info := range sl.Scenarios {
			cs := byName[info.Name]
			if cs == nil {
				cs = &CoordinatorScenario{Name: info.Name, Target: info.Target, Mappings: info.Mappings}
				byName[info.Name] = cs
			}
			cs.Shards = append(cs.Shards, ScenarioShardInfo{
				Shard: index,
				Node:  owner.Node,
				Addr:  owner.Addr,
				Epoch: info.Epoch,
				Rows:  info.Rows,
			})
		}
	}
	out := make([]*CoordinatorScenario, 0, len(byName))
	for _, cs := range byName {
		sort.Slice(cs.Shards, func(i, j int) bool { return cs.Shards[i].Shard < cs.Shards[j].Shard })
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": out})
}
