package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
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

// ScatterGroupJSON is one scatter group's slice of the answer stream on this
// shard: the group's probability mass, whether its mappings cover the query
// (uncovered groups carry mass for the empty answer and no rows), and the
// distinct rows this shard produced for it, in first-seen order —
// core.ScatterPlan.ExecuteOn deduplicates within the group before anything
// reaches the wire.  Rows holds those rows packed back to back (appendPacked;
// encoding/json carries the field as base64), ScatterResponse.Width values
// to a row.  An o-sharing group is a u-trace node: Below is the size of its
// subtree and, on an internal node, Pruned says this shard's walk pruned it
// or an ancestor.  Across shards nothing is deduplicated here: the same tuple
// may arrive from several nodes, and the coordinator, which trusts no node to
// have sent a set, collapses both in core.ScatterPlan.Merge.
type ScatterGroupJSON struct {
	Prob    float64 `json:"prob"`
	Covered bool    `json:"covered"`
	Below   int     `json:"below,omitempty"`
	Pruned  bool    `json:"pruned,omitempty"`
	Rows    []byte  `json:"rows,omitempty"`
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
	// Width is the number of values in each packed row, set whenever a group
	// carries rows: len(Columns).
	Width int `json:"width,omitempty"`
	// Shard echoes the node's placement so the coordinator can detect a node
	// booted with the wrong index or count before merging anything.
	Shard     *ShardIdentity `json:"shard,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

// The tags of packed values.  They are the wire's own, numbered here, so
// that renumbering engine.Kind cannot change what crosses the hop.
const (
	packedNull   byte = 0 // nothing follows
	packedString byte = 1 // a uvarint byte length, then the raw bytes
	packedInt    byte = 2 // a zigzag varint
	packedFloat  byte = 3 // 8 little-endian bytes of the IEEE bits
)

// appendPacked appends one row to a group's packed rows: per value its tag,
// then the value.  Strings cross byte for byte and floats bit for bit, so
// the coordinator unpacks the shard's tuple exactly: as JSON text a string
// would lose its invalid UTF-8, and a float 3.0 would come back an int 3.
func appendPacked(dst []byte, row engine.Tuple) []byte {
	for _, v := range row {
		switch v.Kind {
		case engine.KindString:
			dst = binary.AppendUvarint(append(dst, packedString), uint64(len(v.Str)))
			dst = append(dst, v.Str...)
		case engine.KindInt:
			dst = binary.AppendVarint(append(dst, packedInt), v.Int)
		case engine.KindFloat:
			dst = binary.LittleEndian.AppendUint64(append(dst, packedFloat), math.Float64bits(v.Float))
		default:
			dst = append(dst, packedNull)
		}
	}
	return dst
}

// unpackValues decodes the packed values in b, checking each length against
// the bytes left before using it, and returns how many there are.  With vals
// non-nil it also stores them there, their strings substrings of s, which
// holds b's bytes.
func unpackValues(b []byte, s string, vals []engine.Value) (int, error) {
	n := 0
	for i := 0; i < len(b); n++ {
		tag, at := b[i], i
		i++
		var v engine.Value
		switch tag {
		case packedNull:
		case packedInt:
			x, k := binary.Varint(b[i:])
			if k <= 0 {
				return n, fmt.Errorf("the int at byte %d is cut short or overflows", at)
			}
			v, i = engine.I(x), i+k
		case packedFloat:
			if len(b)-i < 8 {
				return n, fmt.Errorf("the float at byte %d is cut short", at)
			}
			v, i = engine.F(math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))), i+8
		case packedString:
			l, k := binary.Uvarint(b[i:])
			if k <= 0 || l > uint64(len(b)-i-k) {
				return n, fmt.Errorf("the string at byte %d runs past the %d bytes left", at, len(b)-i)
			}
			i += k
			if vals != nil {
				v = engine.S(s[i : i+int(l)])
			}
			i += int(l)
		default:
			return n, fmt.Errorf("unknown tag %d at byte %d", tag, at)
		}
		if vals != nil {
			vals[n] = v
		}
	}
	return n, nil
}

// unpackRun unpacks a scatter response's groups into the run the merge
// reads.  Packed rows are outside input: an unknown tag, a value cut short or
// values that do not fill whole rows is an error naming the group.  One
// string holds every group's bytes and backs every string value, and one
// slice holds every value.
func unpackRun(sr *ScatterResponse) (*core.ShardRun, error) {
	values, size := 0, 0
	for gi, g := range sr.Groups {
		if len(g.Rows) == 0 {
			continue
		}
		n, err := unpackValues(g.Rows, "", nil)
		if err == nil && (sr.Width <= 0 || n%sr.Width != 0) {
			err = fmt.Errorf("%d values do not fill rows of width %d", n, sr.Width)
		}
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", gi, err)
		}
		values, size = values+n, size+len(g.Rows)
	}
	var all strings.Builder
	all.Grow(size)
	for _, g := range sr.Groups {
		all.Write(g.Rows)
	}
	str := all.String()
	vals := make([]engine.Value, values)
	var rows []engine.Tuple
	if values > 0 {
		rows = make([]engine.Tuple, values/sr.Width)
	}
	run := &core.ShardRun{Groups: make([]core.GroupRows, len(sr.Groups)), Pruned: make([]bool, len(sr.Groups))}
	for gi, g := range sr.Groups {
		run.Pruned[gi] = g.Pruned
		if len(g.Rows) == 0 {
			continue
		}
		n, _ := unpackValues(g.Rows, str[:len(g.Rows)], vals) // checked above
		group := rows[: n/sr.Width : n/sr.Width]
		for ri := range group {
			group[ri] = vals[ri*sr.Width : (ri+1)*sr.Width : (ri+1)*sr.Width]
		}
		run.Groups[gi].Rows = group
		str, vals, rows = str[len(g.Rows):], vals[n:], rows[len(group):]
	}
	return run, nil
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

	opts := core.Options{Method: method, Strategy: strategy, Parallelism: s.cfg.Parallelism}
	ec := opts.Context(ctx)
	sp, err := prep.FrontHalf(ec, opts)
	if err != nil {
		atomic.AddInt64(&s.counters.EvalErrors, 1)
		return nil, err
	}
	if sh := s.cfg.Shard; sh != nil && sh.Count > 1 && !sp.DistributesOver(sh.Relation) {
		return nil, apiErr(http.StatusUnprocessableEntity,
			fmt.Errorf("%w: a reformulated plan self-joins or aggregates the partitioned relation %q", ErrNotDistributable, sh.Relation))
	}
	// The scan holds the evaluation lock as Scenario.Evaluate does, since a
	// shard node takes appends directly, and the epoch is the locked one
	// its rows are from.
	var (
		run   *core.ShardRun
		epoch uint64
	)
	err = sc.View(func(db *engine.Instance, e uint64) (err error) {
		epoch = e
		run, err = sp.ExecuteOn(ec, db)
		return err
	})
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
	var packed []byte // every group's rows, each group a capped window
	for i, g := range sp.Groups {
		gj := ScatterGroupJSON{Prob: g.Prob, Covered: sp.Covers(i), Below: g.Below, Pruned: run.Pruned[i] && g.Below > 0}
		if rows := run.Groups[i].Rows; len(rows) > 0 {
			start := len(packed)
			for _, row := range rows {
				packed = appendPacked(packed, row)
			}
			gj.Rows, resp.Width = packed[start:len(packed):len(packed)], len(rows[0])
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
