package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
)

// ShardIdentity declares that this server holds one shard slice of a
// partitioned deployment: shard Index of Count, where the named relation was
// split on Column by the given partitioner kind and every other relation is
// replicated.  Shard nodes regenerate the same scenario deterministically
// (same seed) and keep only their slice, so their prepared front halves — and
// therefore their scatter-group orders and probabilities — are identical,
// which is what lets a coordinator merge their per-group answer streams
// without holding any data itself.
type ShardIdentity struct {
	// Node names this server in the coordinator's lease table.
	Node string `json:"node"`
	// Index/Count place this node in the partition: shard Index of Count.
	Index int `json:"index"`
	Count int `json:"count"`
	// Relation/Column/Kind describe the partitioning function, matching
	// shard.Spec (Kind is "hash" or "range").
	Relation string `json:"relation"`
	Column   string `json:"column"`
	Kind     string `json:"kind"`
}

// ErrNotDistributable is returned (and mapped to 422) when a request's
// evaluation does not distribute over the shards' partitioned relation: a
// front half that scans the partitioned relation more than once on one
// group's path (a self-join) or aggregates.  Per-shard
// evaluation of such a plan would silently drop cross-shard row pairs, so the
// node refuses instead.
var ErrNotDistributable = errors.New("query is not distributable over this node's shard partition")

// ScatterRequest is the body of POST /v1/scatter — the shard half of a
// coordinator's fan-out.  Unlike /v1/query it returns per-group answer
// relations instead of an aggregated distribution: a tuple produced by the
// same group on several shards must be deduplicated per group across shards,
// which only the coordinator can do.
type ScatterRequest struct {
	Scenario  string `json:"scenario"`
	Query     string `json:"query"`
	Method    string `json:"method,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// WireValue is one typed datum on the scatter wire.  Exactly one field is
// set; the zero value is NULL.  Values are typed explicitly rather than as
// bare JSON values because bit-identity requires kinds to round-trip: a float
// 3.0 encoded as the JSON number 3 would decode as an int, changing the
// tuple's hash, key and sort position.  Go's float64 JSON encoding is
// shortest-round-trip, so probabilities and float data survive the wire
// bit-exactly.
type WireValue struct {
	S *string  `json:"s,omitempty"`
	I *int64   `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
}

// ScatterGroupJSON is one scatter group's slice of the answer stream on this
// shard: the group's probability mass, whether its mappings cover the query
// (uncovered groups carry mass for the empty answer and no rows), and the
// distinct rows this shard produced for it, in first-seen order —
// core.ScatterPlan.ExecuteOn deduplicates within the group before anything
// reaches the wire.  An o-sharing group is a u-trace node: Below is the size
// of its subtree and, on an internal node, Pruned says this shard's walk
// pruned it or an ancestor.  Across shards nothing is deduplicated here: the
// same tuple may arrive from several nodes, and the coordinator, which trusts
// no node to have sent a set, collapses both in core.ScatterPlan.Merge.
type ScatterGroupJSON struct {
	Prob    float64       `json:"prob"`
	Covered bool          `json:"covered"`
	Below   int           `json:"below,omitempty"`
	Pruned  bool          `json:"pruned,omitempty"`
	Rows    [][]WireValue `json:"rows,omitempty"`
}

// ScatterResponse is the body of a successful POST /v1/scatter.
type ScatterResponse struct {
	Scenario string `json:"scenario"`
	Epoch    uint64 `json:"epoch"`
	// Query is the canonical text, identical across shards for one request.
	Query   string   `json:"query"`
	Method  string   `json:"method"`
	Columns []string `json:"columns,omitempty"`
	// PreEmptyProb and Groups mirror core.ScatterPlan: the merge adds
	// PreEmptyProb to the empty answer first, then walks the groups in order.
	PreEmptyProb float64            `json:"pre_empty_prob"`
	Groups       []ScatterGroupJSON `json:"groups"`
	// Shard echoes the node's placement so the coordinator can detect a node
	// booted with the wrong index or count before merging anything.
	Shard     *ShardIdentity `json:"shard,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

// wireValues encodes a tuple for the scatter wire.
func wireValues(t engine.Tuple) []WireValue {
	out := make([]WireValue, len(t))
	for i, v := range t {
		switch v.Kind {
		case engine.KindString:
			s := v.Str
			out[i].S = &s
		case engine.KindInt:
			n := v.Int
			out[i].I = &n
		case engine.KindFloat:
			f := v.Float
			out[i].F = &f
		}
	}
	return out
}

// wireTuple decodes a scatter-wire row.
func wireTuple(vals []WireValue) engine.Tuple {
	row := make(engine.Tuple, len(vals))
	for i, v := range vals {
		switch {
		case v.S != nil:
			row[i] = engine.S(*v.S)
		case v.I != nil:
			row[i] = engine.I(*v.I)
		case v.F != nil:
			row[i] = engine.F(*v.F)
		default:
			row[i] = engine.Null()
		}
	}
	return row
}

// Scatter answers one scatter request in-process: it prepares the query on
// the named scenario, takes the method's front half, verifies its shape
// distributes over this node's partition, runs it against the node's (sliced)
// instance and returns the per-group rows.  It is the transport-free core
// handleScatter wraps, like Do for /v1/query.
func (s *Server) Scatter(ctx context.Context, req ScatterRequest) (*ScatterResponse, error) {
	atomic.AddInt64(&s.counters.Scatters, 1)
	if err := s.admit(); err != nil {
		return nil, err
	}
	defer s.leave()
	start := time.Now()
	sc, err := s.resolve(req.Scenario, req.Query)
	if err != nil {
		return nil, err
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		return nil, err
	}
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		return nil, err
	}
	prep, canonical, err := s.prepare(sc, req.Query)
	if err != nil {
		return nil, err
	}
	ctx, cancel := withDeadline(ctx, s.cfg.RequestTimeout, req.TimeoutMS)
	defer cancel()

	// Scatter executions spend the same evaluation capacity as /v1/query
	// evaluations, so they queue for the same slots; a saturated node answers
	// 429 and the coordinator's backoff takes it from there.
	if _, err := s.acquire(ctx, "scatter", 1); err != nil {
		return nil, err
	}
	defer s.queue.Release()

	epoch := sc.Epoch()
	opts := core.Options{Method: method, Strategy: strategy, Parallelism: s.cfg.Parallelism}
	ec := opts.Context(ctx)
	sp, _, err := prep.FrontHalf(ec, opts)
	if err != nil {
		atomic.AddInt64(&s.counters.EvalErrors, 1)
		return nil, err
	}
	if sh := s.cfg.Shard; sh != nil && sh.Count > 1 && !sp.DistributesOver(sh.Relation) {
		return nil, apiErr(http.StatusUnprocessableEntity,
			fmt.Errorf("%w: a reformulated plan self-joins or aggregates the partitioned relation %q", ErrNotDistributable, sh.Relation))
	}
	run, err := sp.ExecuteOn(ec, sc.DB())
	if err != nil {
		atomic.AddInt64(&s.counters.EvalErrors, 1)
		return nil, err
	}
	s.recordRun(run.Stats, run.ExecTime)

	resp := &ScatterResponse{
		Scenario:     sc.Name(),
		Epoch:        epoch,
		Query:        canonical,
		Method:       method.String(),
		Columns:      core.OutputColumns(prep.Query()),
		PreEmptyProb: sp.PreEmptyProb,
		Groups:       make([]ScatterGroupJSON, len(sp.Groups)),
		Shard:        s.cfg.Shard,
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1000,
	}
	for i, g := range sp.Groups {
		gj := ScatterGroupJSON{Prob: g.Prob, Covered: sp.Covers(i), Below: g.Below, Pruned: run.Pruned[i] && g.Below > 0}
		if rows := run.Groups[i].Rows; len(rows) > 0 {
			gj.Rows = make([][]WireValue, len(rows))
			for ri, row := range rows {
				gj.Rows[ri] = wireValues(row)
			}
		}
		resp.Groups[i] = gj
	}
	return resp, nil
}

func (s *Server) handleScatter(w http.ResponseWriter, r *http.Request) {
	var req ScatterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.Scatter(r.Context(), req)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	// The Content-Length writeJSON sets is what the coordinator sizes its
	// read buffer by.
	writeJSON(w, http.StatusOK, resp)
}
