package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/probdb/urm/internal/core"
)

// coldEBasic evaluates the query cold over the scenario's current instance,
// with a prepared query of its own.
func coldEBasic(t *testing.T, sc *Scenario, text string) *core.Result {
	t.Helper()
	q, err := sc.Parse("q", text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluateFresh(context.Background(), sc, q, 0, core.Options{Method: core.MethodEBasic})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cachedAnswer reads the answer the cache holds for the response's question,
// and its epoch, without touching the LRU or the counters.
func cachedAnswer(c *AnswerCache, resp *Response) (*CachedAnswer, uint64, bool) {
	key := CacheKey{Scenario: resp.Scenario, Query: resp.Query, Method: core.MethodEBasic, Strategy: core.StrategySEF}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key.question()]
	if !ok {
		return nil, 0, false
	}
	e := el.Value.(*cacheEntry)
	return e.ans, e.key.Epoch, true
}

// TestConvergePublishesAtNewEpoch: a pass over an unchanged scenario
// publishes nothing; after appends, one pass publishes once at the viewed
// epoch with the cold answer's bits, and a second pass publishes nothing.
func TestConvergePublishesAtNewEpoch(t *testing.T) {
	srv, sc := newTestServer(t, 40, Config{})
	first := doQuery(t, srv, deltaQuery)
	srv.maintainer.halt() // the test runs every pass itself
	if n := srv.ConvergeDelta("test"); n != 0 {
		t.Fatalf("pass over an unchanged scenario published %d, want 0", n)
	}
	if err := sc.AppendRow("S", tuple("fresh", 7, 7)); err != nil {
		t.Fatal(err)
	}
	if err := sc.AppendRow("S", tuple("fresh2", 2, 7)); err != nil {
		t.Fatal(err)
	}
	if n := srv.ConvergeDelta("test"); n != 1 {
		t.Fatalf("pass after two appends published %d, want 1", n)
	}
	ans, epoch, ok := cachedAnswer(srv.Cache(), first)
	if !ok || epoch != sc.Epoch() {
		t.Fatalf("cached answer at epoch %d (present %v), want %d", epoch, ok, sc.Epoch())
	}
	sameResult(t, "published", coldEBasic(t, sc, deltaQuery), ans.Result)
	if n := srv.ConvergeDelta("test"); n != 0 {
		t.Fatalf("second pass published %d, want 0", n)
	}
}

// TestBackgroundLoopCoalesces: a burst of appends while the loop runs
// converges to the final state — the answer published last matches a cold
// evaluation over everything appended — in at most one publish per append.
func TestBackgroundLoopCoalesces(t *testing.T) {
	srv, sc := newTestServer(t, 40, Config{})
	first := doQuery(t, srv, deltaQuery)
	for i := 0; i < 30; i++ {
		if err := sc.AppendRow("S", tuple(fmt.Sprintf("burst%d", i), int64(i%9), 7)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ans, epoch, ok := cachedAnswer(srv.Cache(), first); ok && epoch == sc.Epoch() {
			sameResult(t, "converged", coldEBasic(t, sc, deltaQuery), ans.Result)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loop never converged to epoch %d", sc.Epoch())
		}
		time.Sleep(time.Millisecond)
	}
	if n := srv.Metrics().DeltaApplied; n < 1 || n > 30 {
		t.Fatalf("delta_applied = %d for 30 appends, want 1 to 30", n)
	}
}

// TestBumpSuppressesPublish: a Bump between the first evaluation and a pass
// suppresses the publish — a bumped epoch's answers may only come from fresh
// evaluation — whether the pass starts after the Bump or the Bump lands
// between the pass's listing and its floor check.
func TestBumpSuppressesPublish(t *testing.T) {
	srv, sc := newTestServer(t, 40, Config{DisableStaleServe: true})
	doQuery(t, srv, deltaQuery)
	srv.maintainer.halt() // the test runs every pass itself
	if err := sc.AppendRow("S", tuple("pre-bump", 7, 7)); err != nil {
		t.Fatal(err)
	}
	listed := sc.StaleFloor()
	sc.Bump()
	if n := srv.ConvergeDelta("test"); n != 0 {
		t.Fatalf("pass after a bump published %d, want 0", n)
	}
	// The racing Bump: the pass lists at the floor before it.
	if n := srv.maintainer.pass(sc, listed); n != 0 {
		t.Fatalf("pass racing a bump published %d, want 0", n)
	}
	if n := srv.Metrics().DeltaApplied; n != 0 {
		t.Fatalf("delta_applied = %d across a bump, want 0", n)
	}
	if resp := doQuery(t, srv, deltaQuery); resp.Cached {
		t.Fatal("answer after a bump served from the cache")
	}
}

// TestFailedDeltaDropsEntry: a state whose relations shrank (something other
// than an append) under a new epoch is dropped, not published: the pass
// publishes nothing, counts the drop, and the cache holds no answer at the
// new epoch.
func TestFailedDeltaDropsEntry(t *testing.T) {
	srv, sc := newTestServer(t, 40, Config{})
	first := doQuery(t, srv, deltaQuery)
	srv.maintainer.halt() // the test runs every pass itself
	sc.mu.Lock()
	rel := sc.db.Relation("S")
	rel.Rows = rel.Rows[:len(rel.Rows)-1]
	sc.epoch.Add(1)
	sc.mu.Unlock()
	if n := srv.ConvergeDelta("test"); n != 0 {
		t.Fatalf("converge over a shrunk relation published %d, want 0", n)
	}
	if n := srv.Metrics().DeltaDropped; n != 1 {
		t.Fatalf("delta_dropped = %d, want 1", n)
	}
	if n := srv.DeltaEntries("test"); n != 0 {
		t.Fatalf("%d maintained entries survived a failed delta, want 0", n)
	}
	if _, epoch, ok := cachedAnswer(srv.Cache(), first); ok && epoch == sc.Epoch() {
		t.Fatalf("failed delta published an answer at epoch %d", epoch)
	}
}

// TestEvictedAnswerNotMaintained: with room for one answer, the answer the
// LRU evicted is not maintained — a pass refreshes only the cached one and
// evicts nothing.
func TestEvictedAnswerNotMaintained(t *testing.T) {
	const a, b = "SELECT a FROM T WHERE b = 7", "SELECT a FROM T WHERE b = 8"
	probe, _ := newTestServer(t, 40, Config{})
	doQuery(t, probe, a)
	sizeA := probe.Cache().Bytes()
	doQuery(t, probe, b)
	sizeB := probe.Cache().Bytes() - sizeA

	srv, sc := newTestServer(t, 40, Config{CacheBytes: sizeA + sizeB - 1})
	doQuery(t, srv, a)
	doQuery(t, srv, b)
	if n := srv.Cache().Len(); n != 1 {
		t.Fatalf("cache holds %d answers, want 1", n)
	}
	evictions := srv.Cache().Metrics().Evictions
	if err := sc.AppendRow("S", tuple("fresh", 8, 8)); err != nil {
		t.Fatal(err)
	}
	srv.ConvergeDelta("test")
	if n := srv.Metrics().DeltaApplied; n != 1 {
		t.Fatalf("delta_applied = %d, want 1: only the cached answer is maintained", n)
	}
	if n := srv.Cache().Metrics().Evictions - evictions; n != 0 {
		t.Fatalf("the pass evicted %d answers, want 0", n)
	}
}

// TestOneEntryPerQuestion: append-and-converge cycles on one question leave
// one cache entry, the newest.
func TestOneEntryPerQuestion(t *testing.T) {
	srv, sc := newTestServer(t, 40, Config{})
	doQuery(t, srv, deltaQuery)
	for i := 0; i < 20; i++ {
		if err := sc.AppendRow("S", tuple(fmt.Sprintf("cycle%d", i), 7, int64(i%17))); err != nil {
			t.Fatal(err)
		}
		srv.ConvergeDelta("test")
	}
	if n := srv.Cache().Len(); n != 1 {
		t.Fatalf("cache holds %d entries for one question, want 1", n)
	}
	if resp := doQuery(t, srv, deltaQuery); !resp.Cached || resp.Epoch != sc.Epoch() {
		t.Fatalf("answer cached %v at epoch %d, want a hit at %d", resp.Cached, resp.Epoch, sc.Epoch())
	}
}

// TestDropThenRegisterServesNoOldAnswer: a scenario registered again under a
// dropped name starts above the dropped one's epoch, so none of the dropped
// scenario's cached answers is served for it.
func TestDropThenRegisterServesNoOldAnswer(t *testing.T) {
	srv, _ := newTestServer(t, 40, Config{})
	doQuery(t, srv, deltaQuery)
	reg := srv.Registry()
	if err := reg.Drop("test"); err != nil {
		t.Fatal(err)
	}
	sc, err := reg.Register(context.Background(), "test", serveTargetSchema(), serveInstance(5), serveMappings(),
		RegisterOptions{TargetLabel: "Test", WarmIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	resp := doQuery(t, srv, deltaQuery)
	if resp.Cached {
		t.Fatalf("re-registered scenario served the dropped one's cached answer at epoch %d", resp.Epoch)
	}
	sameResult(t, "re-registered vs fresh", coldEBasic(t, sc, deltaQuery), resp.Result)
}
