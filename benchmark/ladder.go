package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	urm "github.com/probdb/urm"
)

// The replay ladder: the same request is issued at successive depths — over
// HTTP, into Server.ServeHTTP on an in-memory recorder, into Server.Do, into
// the library — and each depth is recorded as a span whose parent is the
// depth above.  The replays run one after another on one goroutine, so a
// layer's self time is its span's duration minus its children's durations,
// not an overlap of intervals.  Everything is timed from outside, through
// public functions.

// rung is one timed call of a pending trace.
type rung struct {
	name       string
	parent     int // index of the enclosing rung in the trace, -1 for a root
	start, end time.Time
}

// replay is the rungs of one replayed request, held back until the whole
// trace is known to be consistent.
type replay struct{ rungs []rung }

func (r *replay) run(name string, parent int, f func() error) (int, error) {
	start := time.Now()
	err := f()
	r.rungs = append(r.rungs, rung{name: name, parent: parent, start: start, end: time.Now()})
	return len(r.rungs) - 1, err
}

func (r *replay) self(i int) time.Duration {
	d := r.rungs[i].end.Sub(r.rungs[i].start)
	for _, c := range r.rungs {
		if c.parent == i {
			d -= c.end.Sub(c.start)
		}
	}
	return d
}

// consistent reports whether every rung took at least as long as the rungs
// below it.  A replay that is not was disturbed between rungs (a collection,
// a descheduled goroutine) and is measured again.
func (r *replay) consistent() bool {
	for i := range r.rungs {
		if r.self(i) < 0 {
			return false
		}
	}
	return true
}

// ladder accumulates, per rung name and per cell, the durations and self
// times of the committed replays, in microseconds.
type ladder struct {
	tr   *tracer
	dur  map[string]map[string][]float64
	self map[string]map[string][]float64
}

func newLadder(tr *tracer) *ladder {
	return &ladder{tr: tr, dur: map[string]map[string][]float64{}, self: map[string]map[string][]float64{}}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// commit records the replay's rungs as the spans of one trace.
func (l *ladder) commit(r *replay, label string) {
	trace := l.tr.newID()
	ids := make([]uint64, len(r.rungs))
	for i, g := range r.rungs {
		ids[i] = trace
		if i > 0 {
			ids[i] = l.tr.newID()
		}
		var parent uint64
		if g.parent >= 0 {
			parent = ids[g.parent]
		}
		l.tr.record(trace, ids[i], parent, g.name, g.start, g.end)
		add(l.dur, g.name, label, us(g.end.Sub(g.start)))
		add(l.self, g.name, label, us(r.self(i)))
	}
}

func add(m map[string]map[string][]float64, name, label string, v float64) {
	if m[name] == nil {
		m[name] = map[string][]float64{}
	}
	m[name][label] = append(m[name][label], v)
}

// meanOfMedians is the mean over cells of each cell's median: one number for
// "a typical request", with every cell weighing the same.
func meanOfMedians(byCell map[string][]float64) float64 {
	var meds []float64
	for _, xs := range byCell {
		meds = append(meds, median(xs))
	}
	return mean(meds)
}

// maxReplayTries bounds how often a disturbed replay is measured again.
const maxReplayTries = 20

// replayConsistent runs build until it yields a consistent replay.
func (l *ladder) replayConsistent(label string, build func() (*replay, error)) error {
	for try := 0; try < maxReplayTries; try++ {
		r, err := build()
		if err != nil {
			return fmt.Errorf("ladder %s: %w", label, err)
		}
		if r.consistent() {
			l.commit(r, label)
			return nil
		}
	}
	return fmt.Errorf("ladder %s: a rung stayed faster than the rung below it in %d replays", label, maxReplayTries)
}

// cellTimes is one row of the "where the time goes" table, milliseconds.
type cellTimes struct {
	cell                         cell
	prepare, exec, aggregate     float64
	execute                      float64
	operators, rowsRead, answers int
	allocKB                      float64
}

// ladderPlan sizes the ladder.  Replays are repeated per cell: hits are cheap
// and get many, evaluations cost up to 120 ms each and get few.
type ladderPlan struct {
	mappings         int
	hit, miss, micro int
	// grid are the queries of the (query, method) grid; scatter those issued
	// through shards; parallel the one run at Parallelism 1 and 2.
	grid, scatter []int
	parallel      int
	// q4 adds Q4 under the three shared methods, for the time table only:
	// basic and o-sharing take seconds on it.
	q4 bool
}

var fullLadder = ladderPlan{mappings: fixtureMappings, hit: 30, miss: 3, micro: 40, grid: []int{1, 2, 3, 5}, scatter: []int{1, 2, 3}, parallel: 2, q4: true}

// smokeLadder touches every rung once on the cheapest queries.
var smokeLadder = ladderPlan{mappings: smokeMappings, hit: 2, miss: 1, micro: 2, grid: []int{1, 5}, scatter: []int{1}, parallel: 1}

// runLadder measures every workload-independent per-layer metric into out
// and returns the per-cell evaluation times.
func runLadder(tr *tracer, out map[string]metric, reps ladderPlan, dir string) ([]cellTimes, error) {
	ctx := context.Background()
	l := newLadder(tr)

	// Generation and warm registration, three times each.
	var gens, regs []float64
	var sc *urm.Scenario
	var reg *urm.Registry
	builds := 0
	for i := 0; i < 3; i++ {
		start := time.Now()
		s, err := newScenario(reps.mappings)
		if err != nil {
			return nil, err
		}
		gens = append(gens, time.Since(start).Seconds())
		r := urm.NewRegistry()
		start = time.Now()
		rs, err := s.Register(ctx, r, "excel", urm.RegisterOptions{WarmIndexes: true})
		if err != nil {
			return nil, err
		}
		regs = append(regs, time.Since(start).Seconds())
		builds = rs.WarmIndexBuilds()
		sc, reg = s, r
	}
	out["datagen.generate_s"] = metric{median(gens), "s"}
	out["server.register_warm_s"] = metric{median(regs), "s"}
	out["server.warm_index_builds"] = metric{float64(builds), "count"}

	// A caching server for the hit rungs and, over the same instance, the
	// -cache-mb 0 server for the miss rungs.
	hot := urm.NewServer(reg, serverConfig())
	hotNode, err := startNode(hot, nil)
	if err != nil {
		return nil, err
	}
	defer hotNode.close()
	coldReg := urm.NewRegistry()
	if _, err := sc.Register(ctx, coldReg, "excel", urm.RegisterOptions{WarmIndexes: true}); err != nil {
		return nil, err
	}
	coldCfg := serverConfig()
	coldCfg.CacheBytes = -1
	cold := urm.NewServer(coldReg, coldCfg)
	defer func() {
		dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		_ = cold.Drain(dctx) // nothing is in flight; this stops the maintainer
	}()
	hc := newHTTPClient(1)
	defer closeClient(hc)

	texts, err := queryTexts(sc)
	if err != nil {
		return nil, err
	}
	warm, err := newSession(sc)
	if err != nil {
		return nil, err
	}

	var cells []cell
	for _, m := range allMethods {
		for _, q := range reps.grid {
			cells = append(cells, cell{q, m})
		}
	}
	if reps.q4 {
		for _, m := range sharedMethods {
			cells = append(cells, cell{4, m})
		}
	}

	var table []cellTimes
	for _, c := range cells {
		label := c.String()
		req := urm.QueryRequest{Scenario: "excel", Query: texts[c.query], Method: c.method.String()}
		body, err := queryBody(req.Scenario, req.Query, c.method)
		if err != nil {
			return nil, err
		}
		inGrid := c.query != 4

		// Hit chain: round trip ⊃ handler ⊃ {Do, encode}.
		if inGrid {
			if _, err := hot.Do(ctx, req); err != nil {
				return nil, fmt.Errorf("ladder %s: priming: %w", label, err)
			}
			for i := 0; i < reps.hit; i++ {
				err := l.replayConsistent(label, func() (*replay, error) {
					return replayHit(ctx, hc, hotNode.ep.url+"/v1/query", hot, req, body)
				})
				if err != nil {
					return nil, err
				}
			}
		}

		// Miss chain and library rungs.
		ct, err := l.replayMisses(ctx, sc, warm, cold, c, req, reps.miss)
		if err != nil {
			return nil, err
		}
		table = append(table, *ct)
	}

	out["http.roundtrip_us"] = metric{meanOfMedians(l.dur["http.roundtrip"]), "us"}
	out["http.transport_self_us"] = metric{meanOfMedians(l.self["http.roundtrip"]), "us"}
	out["server.handler_us"] = metric{meanOfMedians(l.dur["server.handler"]), "us"}
	out["server.codec_self_us"] = metric{meanOfMedians(l.self["server.handler"]), "us"}
	out["server.do_hit_us"] = metric{meanOfMedians(l.dur["server.do_hit"]), "us"}
	out["server.encode_us"] = metric{meanOfMedians(l.dur["server.encode"]), "us"}
	out["server.do_miss_overhead_us"] = metric{missOverheadUS(l), "us"}
	out["query.parse_us"] = metric{meanOfMedians(l.dur["query.parse"]), "us"}
	out["query.canonical_us"] = metric{meanOfMedians(l.dur["query.canonical"]), "us"}
	coreMetrics(out, table, len(reps.grid))

	if err := engineMetrics(ctx, out, reps.micro); err != nil {
		return nil, err
	}
	if err := parallelMetric(ctx, out, sc, texts[reps.parallel], reps.miss); err != nil {
		return nil, err
	}
	if err := storeMetrics(ctx, out, dir, reps.mappings, reps.micro); err != nil {
		return nil, err
	}
	if err := deltaMetric(ctx, out, texts, reps.mappings, reps.micro); err != nil {
		return nil, err
	}
	if err := shardMetrics(ctx, out, l, sc, texts, reps.mappings, reps.scatter, reps.miss); err != nil {
		return nil, err
	}
	return table, nil
}

// replayHit replays one cached request at four depths.
func replayHit(ctx context.Context, hc *http.Client, url string, srv *urm.Server, req urm.QueryRequest, body []byte) (*replay, error) {
	r := &replay{}
	rt, err := r.run("http.roundtrip", -1, func() error {
		status, data, err := post(hc, url, body, 0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, data)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	hreq := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h, err := r.run("server.handler", rt, func() error {
		srv.ServeHTTP(rec, hreq)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler status %d", rec.Code)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var resp *urm.QueryResponse
	if _, err := r.run("server.do_hit", h, func() error {
		var err error
		resp, err = srv.Do(ctx, req)
		if err == nil && !resp.Cached {
			err = fmt.Errorf("primed request missed the cache")
		}
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := r.run("server.encode", h, func() error {
		_, err := json.Marshal(resp)
		return err
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// replayMisses replays one evaluated request n times at the depths below the
// cache — Server.Do on the cache-less server, PreparedQuery.Execute on a warm
// session — and the first-sight path on a fresh session, whose premium over a
// warm execution is what parsing, reformulating through every mapping and
// compiling plans cost.
func (l *ladder) replayMisses(ctx context.Context, sc *urm.Scenario, warm *urm.Session, cold *urm.Server, c cell, req urm.QueryRequest, n int) (*cellTimes, error) {
	label := c.String()
	if _, err := cold.Do(ctx, req); err != nil {
		return nil, fmt.Errorf("ladder %s: priming the prepared cache: %w", label, err)
	}
	pq, err := warm.Prepare(req.Query)
	if err != nil {
		return nil, err
	}
	if _, err := pq.Execute(ctx, urm.WithMethod(c.method)); err != nil {
		return nil, err
	}
	ct := &cellTimes{cell: c}
	var allocs []float64
	for i := 0; i < n; i++ {
		r := &replay{}
		_, err := r.run("server.do_miss", -1, func() error {
			resp, err := cold.Do(ctx, req)
			if err == nil && (resp.Cached || resp.Coalesced) {
				err = fmt.Errorf("cache-less server answered cached=%v coalesced=%v", resp.Cached, resp.Coalesced)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", label, err)
		}
		var res *urm.Result
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		// Not a child of do_miss: with delta maintenance on, the server's miss
		// path evaluates through the scatter form, not through this call.
		if _, err := r.run("core.execute", -1, func() error {
			var err error
			res, err = pq.Execute(ctx, urm.WithMethod(c.method))
			return err
		}); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", label, err)
		}
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)

		fe, err := r.run("core.first_execute", -1, func() error {
			sess, err := newSession(sc)
			if err != nil {
				return err
			}
			fresh, err := sess.Prepare(req.Query)
			if err != nil {
				return err
			}
			_, err = fresh.Execute(ctx, urm.WithMethod(c.method))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", label, err)
		}
		var q *urm.Query
		if _, err := r.run("query.parse", fe, func() error {
			var err error
			q, err = sc.Query("q", req.Query)
			return err
		}); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", label, err)
		}
		if _, err := r.run("query.canonical", fe, func() error {
			if q.Fingerprint() == "" {
				return fmt.Errorf("empty fingerprint")
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", label, err)
		}
		l.commit(r, label)

		ct.exec += ms(res.ExecTime) / float64(n)
		ct.aggregate += ms(res.AggregateTime) / float64(n)
		ct.operators = res.Stats.TotalOperators()
		ct.rowsRead = res.Stats.RowsRead()
		ct.answers = len(res.Answers)
	}
	ct.execute = median(l.dur["core.execute"][label]) / 1e3
	if premium := median(l.dur["core.first_execute"][label])/1e3 - ct.execute; premium > 0 {
		ct.prepare = premium
	}
	ct.allocKB = median(allocs)
	return ct, nil
}

// missOverheadUS is what Server.Do adds to a library execution on a cache
// miss: the mean over the grid's cells of median Do minus median Execute.
func missOverheadUS(l *ladder) float64 {
	var over []float64
	for label, dos := range l.dur["server.do_miss"] {
		if strings.HasPrefix(label, "Q4/") { // Q4 is in the time table, not in the grid
			continue
		}
		over = append(over, median(dos)-median(l.dur["core.execute"][label]))
	}
	return mean(over)
}

// coreMetrics folds the grid's cells (Q1, Q2, Q3, Q5) into the per-method
// metrics: times are summed over the grid's queries — the time to answer the
// sweep — and counts are exact.
func coreMetrics(out map[string]metric, table []cellTimes, queries int) {
	for _, m := range allMethods {
		var sum cellTimes
		for _, ct := range table {
			if ct.cell.method != m || ct.cell.query == 4 {
				continue
			}
			sum.prepare += ct.prepare
			sum.execute += ct.execute
			sum.exec += ct.exec
			sum.aggregate += ct.aggregate
			sum.operators += ct.operators
			sum.rowsRead += ct.rowsRead
			sum.answers += ct.answers
			sum.allocKB += ct.allocKB
		}
		p := "core." + m.String() + "."
		out[p+"prepare_ms"] = metric{sum.prepare, "ms"}
		out[p+"execute_ms"] = metric{sum.execute, "ms"}
		out[p+"exec_phase_ms"] = metric{sum.exec, "ms"}
		out[p+"aggregate_phase_ms"] = metric{sum.aggregate, "ms"}
		out[p+"operators_per_eval"] = metric{float64(sum.operators) / float64(queries), "count"}
		out[p+"rows_read_per_answer"] = metric{float64(sum.rowsRead) / float64(sum.answers), "count"}
		out[p+"alloc_kb_per_eval"] = metric{sum.allocKB / float64(queries), "KiB"}
	}
}

// parallelMetric is basic/Q2 at Parallelism 1 over Parallelism 2.  Nothing
// end to end moves with it today: the server runs Parallelism 1.
func parallelMetric(ctx context.Context, out map[string]metric, sc *urm.Scenario, q2 string, n int) error {
	sess, err := newSession(sc)
	if err != nil {
		return err
	}
	pq, err := sess.Prepare(q2)
	if err != nil {
		return err
	}
	times := map[int][]float64{}
	for i := 0; i <= n; i++ {
		for _, par := range []int{1, 2} {
			start := time.Now()
			if _, err := pq.Execute(ctx, urm.WithMethod(urm.Basic), urm.WithParallelism(par)); err != nil {
				return err
			}
			if i > 0 { // the first round builds the front half
				times[par] = append(times[par], ms(time.Since(start)))
			}
		}
	}
	out["exec.parallel2_speedup"] = metric{median(times[1]) / median(times[2]), "ratio"}
	return nil
}

// shardMetrics measures in-process two-shard evaluation against unsharded,
// and a coordinator with two shard nodes against a single node's cold Do.
func shardMetrics(ctx context.Context, out map[string]metric, l *ladder, sc *urm.Scenario, texts []string, h int, queries []int, n int) error {
	sess, err := newSession(sc)
	if err != nil {
		return err
	}
	var sharded, plain float64
	for _, q := range queries {
		pq, err := sess.Prepare(texts[q])
		if err != nil {
			return err
		}
		var with, without []float64
		for i := 0; i <= n; i++ {
			start := time.Now()
			if _, err := pq.Execute(ctx, urm.WithMethod(urm.EBasic), urm.WithShards(scatterSpec)); err != nil {
				return err
			}
			mid := time.Now()
			if _, err := pq.Execute(ctx, urm.WithMethod(urm.EBasic)); err != nil {
				return err
			}
			if i > 0 { // the first round partitions the instance and builds the front half
				with = append(with, ms(mid.Sub(start)))
				without = append(without, ms(time.Since(mid)))
			}
		}
		sharded += median(with)
		plain += median(without)
	}
	out["shard.inprocess2_ms"] = metric{sharded, "ms"}
	out["shard.inprocess2_overhead_ratio"] = metric{sharded / plain, "ratio"}

	sd, err := startScatter(nil, h)
	if err != nil {
		return err
	}
	defer sd.close()
	hc := newHTTPClient(1)
	defer closeClient(hc)
	var coord, single []float64
	for _, m := range sharedMethods {
		for _, q := range queries {
			c := cell{q, m}
			body, err := queryBody("excel", texts[q], m)
			if err != nil {
				return err
			}
			var times []float64
			for i := 0; i <= n; i++ {
				start := time.Now()
				status, data, err := post(hc, sd.url+"/v1/query", body, 0)
				if err != nil || status != http.StatusOK {
					return fmt.Errorf("coordinator %s: status %d: %s: %v", c, status, data, err)
				}
				if i > 0 {
					times = append(times, ms(time.Since(start)))
				}
			}
			coord = append(coord, median(times))
			single = append(single, median(l.dur["server.do_miss"][c.String()])/1e3)
		}
	}
	out["coordinator.query_ms"] = metric{mean(coord), "ms"}
	out["coordinator.overhead_ms"] = metric{mean(coord) - mean(single), "ms"}
	return nil
}
