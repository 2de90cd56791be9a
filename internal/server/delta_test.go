package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/store"
)

// deltaQuery is maintainable under every clustered method (e-basic here) —
// a selection the fixture mappings reformulate into single-relation scans.
const deltaQuery = "SELECT a FROM T WHERE b = 7"

// doQuery runs one e-basic request and returns the response.
func doQuery(t *testing.T, srv *Server, text string) *Response {
	t.Helper()
	resp, err := srv.Do(context.Background(), Request{Scenario: "test", Query: text, Method: "e-basic"})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	return resp
}

// TestDeltaMaintainsCachedAnswers is the serving-layer maintenance loop: a
// served answer enrolls; appends (single and batched) mark the scenario; a
// convergence pass republishes at the new epoch so the next request is a cache
// hit; and the maintained answer is bit-identical to cold evaluation.
func TestDeltaMaintainsCachedAnswers(t *testing.T) {
	srv, sc := newTestServer(t, 40, Config{})
	first := doQuery(t, srv, deltaQuery)
	if first.Cached {
		t.Fatal("first request unexpectedly cached")
	}
	if n := srv.DeltaEntries("test"); n != 1 {
		t.Fatalf("enrolled entries = %d, want 1", n)
	}

	if err := sc.AppendRow("S", tuple("fresh", 7, 7)); err != nil {
		t.Fatal(err)
	}
	batch := []engine.Tuple{tuple("fresh2", 7, 3), tuple("fresh3", 1, 7), tuple("cold", 2, 2)}
	if err := sc.AppendRows("S", batch); err != nil {
		t.Fatal(err)
	}
	// The background loop may already have converged (OnAppend marks the
	// scenario dirty); the explicit pass makes convergence deterministic
	// either way.
	srv.ConvergeDelta("test")

	evalsBefore := srv.Metrics().Evaluations
	second := doQuery(t, srv, deltaQuery)
	if !second.Cached {
		t.Fatal("request after convergence missed the cache: the maintained answer was not republished at the new epoch")
	}
	if second.Epoch != sc.Epoch() {
		t.Fatalf("served epoch %d, want current %d", second.Epoch, sc.Epoch())
	}
	if got := srv.Metrics().Evaluations; got != evalsBefore {
		t.Fatalf("cache hit ran %d new evaluations", got-evalsBefore)
	}

	cold, _, err := sc.Evaluate(context.Background(), mustPrepare(t, sc, deltaQuery), core.Options{Method: core.MethodEBasic}, false)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "maintained vs cold", cold, second.Result)

	m := srv.Metrics()
	if m.DeltaApplied == 0 {
		t.Fatalf("delta_applied = 0 after a convergence publish")
	}
	if m.EpochInvalidations != 0 {
		t.Fatalf("epoch_invalidations = %d under append-only traffic, want 0", m.EpochInvalidations)
	}
	if m.IndexInplaceAppends == 0 {
		t.Fatalf("index_inplace_appends = 0 with warmed indexes")
	}
	if m.Appends != 4 {
		t.Fatalf("appends metric = %d, want 4 (1 single + 3 batched)", m.Appends)
	}
}

func mustPrepare(t *testing.T, sc *Scenario, text string) *core.Prepared {
	t.Helper()
	prep, _, _, err := sc.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestDeltaFallbackPaths: o-sharing enrolls like the plan methods; Maintain
// refuses top-k, so a top-k request answers through the ordinary evaluator,
// enrolls nothing and counts one delta fallback; an explicit Bump leaves no
// answer maintained and counts as an epoch invalidation.
func TestDeltaFallbackPaths(t *testing.T) {
	srv, sc := newTestServer(t, 30, Config{})

	resp, err := srv.Do(context.Background(), Request{Scenario: "test", Query: deltaQuery}) // default o-sharing
	if err != nil {
		t.Fatalf("o-sharing query: %v", err)
	}
	if resp.Cached {
		t.Fatal("first o-sharing request cached")
	}
	if n := srv.Metrics().DeltaFallbacks; n != 0 {
		t.Fatalf("delta_fallbacks = %d after an o-sharing evaluation, want 0", n)
	}
	if n := srv.DeltaEntries("test"); n != 1 {
		t.Fatalf("o-sharing enrolled %d entries, want 1", n)
	}

	if _, err := srv.Do(context.Background(), Request{Scenario: "test", Query: deltaQuery, Method: "e-basic", TopK: 2}); err != nil {
		t.Fatalf("top-k query: %v", err)
	}
	if n := srv.DeltaEntries("test"); n != 1 {
		t.Fatalf("top-k enrolled an entry: %d entries, want 1", n)
	}
	if n := srv.Metrics().DeltaFallbacks; n != 1 {
		t.Fatalf("delta_fallbacks = %d after a top-k evaluation, want 1", n)
	}

	doQuery(t, srv, deltaQuery)
	if n := srv.DeltaEntries("test"); n != 2 {
		t.Fatalf("e-basic enrolled %d entries beside o-sharing's, want 2 in all", n)
	}
	sc.Bump()
	if n := srv.DeltaEntries("test"); n != 0 {
		t.Fatalf("bump left %d maintained entries, want 0", n)
	}
	if n := srv.Metrics().EpochInvalidations; n != 1 {
		t.Fatalf("epoch_invalidations = %d after one bump, want 1", n)
	}
}

// TestCacheOffMaintainsNothing: a server with the answer cache disabled has
// nowhere to republish a maintained answer, so its misses take the plain
// evaluator — nothing enrolls, nothing counts as a delta fallback, appends
// reconcile nothing — and
// every answer is bit-identical to the caching server's.
func TestCacheOffMaintainsNothing(t *testing.T) {
	off, sc := newTestServer(t, 40, Config{CacheBytes: -1})
	on, _ := newTestServer(t, 40, Config{})
	for _, method := range []string{"basic", "e-basic", "e-mqo", "q-sharing", "o-sharing"} {
		req := Request{Scenario: "test", Query: deltaQuery, Method: method}
		for round := 0; round < 2; round++ {
			got, err := off.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			if got.Cached {
				t.Fatalf("%s: a cache-less server served a cached answer", method)
			}
			want, err := on.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			sameResult(t, method+" cache off vs on", want.Result, got.Result)
		}
	}
	if err := sc.AppendRow("S", tuple("fresh", 7, 7)); err != nil {
		t.Fatal(err)
	}
	if n := off.ConvergeDelta("test"); n != 0 {
		t.Fatalf("cache-less server republished %d answers", n)
	}
	m := off.Metrics()
	if n := off.DeltaEntries("test"); n != 0 || m.DeltaFallbacks != 0 || m.DeltaApplied != 0 {
		t.Fatalf("cache-less server: %d maintained entries, %d fallbacks, %d applied, want none", n, m.DeltaFallbacks, m.DeltaApplied)
	}
	if m.Evaluations != 10 {
		t.Fatalf("cache-less server ran %d evaluations for 10 requests", m.Evaluations)
	}
	if n := on.DeltaEntries("test"); n == 0 {
		t.Fatal("caching server enrolled nothing: the comparison no longer exercises the delta path")
	}
}

// TestBatchAppendEndpoint: the rows form of POST /v1/append applies the whole
// batch as one epoch step, and exactly one of values/rows is required.
func TestBatchAppendEndpoint(t *testing.T) {
	srv, sc := newTestServer(t, 10, Config{})
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/append", strings.NewReader(body))
		srv.ServeHTTP(rec, req)
		return rec
	}

	epoch0 := sc.Epoch()
	rec := post(`{"scenario":"test","relation":"S","rows":[["b1",1,2],["b2",3,4],["b3",5,6]]}`)
	if rec.Code != 200 {
		t.Fatalf("batch append = %d %q", rec.Code, rec.Body.String())
	}
	var resp struct {
		Epoch uint64 `json:"epoch"`
		Rows  int    `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != epoch0+1 || resp.Rows != 13 {
		t.Fatalf("batch response epoch=%d rows=%d, want epoch=%d rows=13 (one epoch step for the whole batch)",
			resp.Epoch, resp.Rows, epoch0+1)
	}

	if rec := post(`{"scenario":"test","relation":"S"}`); rec.Code != 400 {
		t.Fatalf("neither values nor rows = %d, want 400", rec.Code)
	}
	if rec := post(`{"scenario":"test","relation":"S","values":["x",1,2],"rows":[["y",3,4]]}`); rec.Code != 400 {
		t.Fatalf("both values and rows = %d, want 400", rec.Code)
	}
	if rec := post(`{"scenario":"test","relation":"S","rows":[["short",1]]}`); rec.Code != 400 {
		t.Fatalf("bad arity in batch = %d, want 400", rec.Code)
	}
	if rec := post(`{"scenario":"test","relation":"S","rows":[]}`); rec.Code != 400 {
		t.Fatalf("empty batch = %d, want 400", rec.Code)
	}

	if m := srv.Metrics().Appends; m != 3 {
		t.Fatalf("appends metric = %d, want 3 (rows, not requests)", m)
	}
}

// TestDeltaMaintainedAnswersSurviveRestart: batched appends land in the WAL as
// single records; after maintenance publishes refreshed answers, a cold
// restart replaying the store must reach the same epoch and serve bit-identical
// answers to the maintained ones.
func TestDeltaMaintainedAnswersSurviveRestart(t *testing.T) {
	ctx := context.Background()
	fs := store.NewMemFS()
	reg := openStoreRegistry(t, fs, -1)
	if _, err := reg.Register(ctx, "test", serveTargetSchema(), serveInstance(25), serveMappings(),
		RegisterOptions{TargetLabel: "Test", WarmIndexes: true}); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Config{})
	sc, _ := reg.Get("test")

	doQuery(t, srv, deltaQuery)
	for round := 0; round < 5; round++ {
		batch := []engine.Tuple{
			tuple(fmt.Sprintf("r%d-a", round), 7, int64(round)),
			tuple(fmt.Sprintf("r%d-b", round), int64(round%9), 7),
		}
		if err := sc.AppendRows("S", batch); err != nil {
			t.Fatal(err)
		}
		srv.ConvergeDelta("test")
	}
	maintained := doQuery(t, srv, deltaQuery)
	if !maintained.Cached {
		t.Fatal("final answer was not served from maintained cache")
	}

	reg2 := openStoreRegistry(t, fs.Clone(), -1)
	if _, err := reg2.Recover(ctx, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	sc2, ok := reg2.Get("test")
	if !ok {
		t.Fatal("scenario missing after recovery")
	}
	if sc2.Epoch() != sc.Epoch() {
		t.Fatalf("recovered epoch %d, want %d", sc2.Epoch(), sc.Epoch())
	}
	cold, _, err := sc2.Evaluate(ctx, mustPrepare(t, sc2, deltaQuery), core.Options{Method: core.MethodEBasic}, false)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "restart replay vs maintained", cold, maintained.Result)
}

// TestDeltaConcurrentAppendQuery races batched appends, queries and
// convergence passes (plus the background maintainer) and then checks the
// final converged answer against cold evaluation — run under -race this is
// the subsystem's thread-safety test.
func TestDeltaConcurrentAppendQuery(t *testing.T) {
	srv, sc := newTestServer(t, 30, Config{Parallelism: 2})
	doQuery(t, srv, deltaQuery)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				batch := []engine.Tuple{
					tuple(fmt.Sprintf("w%d-%d", w, i), int64(i%23), 7),
					tuple(fmt.Sprintf("w%d-%d-b", w, i), 7, int64(i%17)),
				}
				if err := sc.AppendRows("S", batch); err != nil {
					t.Error(err)
					return
				}
				if _, err := srv.Do(context.Background(), Request{Scenario: "test", Query: deltaQuery, Method: "e-basic"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	srv.ConvergeDelta("test")
	final := doQuery(t, srv, deltaQuery)
	cold, _, err := sc.Evaluate(context.Background(), mustPrepare(t, sc, deltaQuery), core.Options{Method: core.MethodEBasic}, false)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "converged vs cold", cold, final.Result)
	if m := srv.Metrics().EpochInvalidations; m != 0 {
		t.Fatalf("epoch_invalidations = %d under append-only traffic, want 0", m)
	}
}
