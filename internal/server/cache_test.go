package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
)

func testKey(q string) CacheKey {
	return CacheKey{Scenario: "s", Epoch: 1, Query: q, Method: core.MethodOSharing}
}

// fakeResult builds a result whose estimated size is dominated by one string
// payload of the given length.
func fakeResult(payload int) *core.Result {
	return &core.Result{Answers: []core.Answer{
		{Tuple: engine.Tuple{engine.S(string(make([]byte, payload)))}, Prob: 1},
	}}
}

func TestAnswerCacheLRUEviction(t *testing.T) {
	one := resultSize(fakeResult(1000))
	c := NewAnswerCache(3 * one) // room for three entries
	for i := 0; i < 4; i++ {
		key := testKey(fmt.Sprintf("q%d", i))
		if _, out, err := c.GetOrCompute(context.Background(), key, func() (*CachedAnswer, error) {
			return &CachedAnswer{Result: fakeResult(1000)}, nil
		}); err != nil || out != OutcomeMiss {
			t.Fatalf("insert %d: outcome %v err %v", i, out, err)
		}
		if i == 1 {
			// Touch q0 so q1 becomes the LRU entry.
			if _, out, _ := c.GetOrCompute(context.Background(), testKey("q0"), nil); out != OutcomeHit {
				t.Fatal("q0 should be cached")
			}
		}
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("entries = %d, want 3", n)
	}
	if _, out, _ := c.GetOrCompute(context.Background(), testKey("q0"), nil); out != OutcomeHit {
		t.Error("recently touched q0 should have survived eviction")
	}
	if _, out, _ := c.GetOrCompute(context.Background(), testKey("q1"), func() (*CachedAnswer, error) {
		return &CachedAnswer{Result: fakeResult(1000)}, nil
	}); out != OutcomeMiss {
		t.Error("q1 should have been evicted as least recently used")
	}
	if m := c.Metrics(); m.Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

// TestAnswerCacheNewestEpochWins: the cache holds one answer per question.
// A lookup at an older epoch than the cached answer's misses, and inserting
// its answer never replaces the newer one.
func TestAnswerCacheNewestEpochWins(t *testing.T) {
	c := NewAnswerCache(1 << 20)
	newer, older := testKey("q"), testKey("q")
	newer.Epoch, older.Epoch = 2, 1
	compute := func() (*CachedAnswer, error) { return &CachedAnswer{Result: fakeResult(10)}, nil }
	if _, out, err := c.GetOrCompute(context.Background(), newer, compute); err != nil || out != OutcomeMiss {
		t.Fatalf("insert at epoch 2: outcome %v err %v", out, err)
	}
	if _, out, err := c.GetOrCompute(context.Background(), older, compute); err != nil || out != OutcomeMiss {
		t.Fatalf("lookup at epoch 1: outcome %v err %v, want a miss", out, err)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("entries = %d for one question, want 1", n)
	}
	if _, out, _ := c.GetOrCompute(context.Background(), newer, nil); out != OutcomeHit {
		t.Fatal("the older epoch's insert replaced the newer answer")
	}
	if _, epoch, ok := c.GetStale(older, 0); !ok || epoch != 2 {
		t.Fatalf("stale lookup found epoch %d (ok %v), want 2", epoch, ok)
	}
}

func TestAnswerCacheOversizeEntryNotStored(t *testing.T) {
	c := NewAnswerCache(64) // smaller than any result estimate
	if _, _, err := c.GetOrCompute(context.Background(), testKey("big"), func() (*CachedAnswer, error) {
		return &CachedAnswer{Result: fakeResult(10000)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversize entry stored: len %d bytes %d", c.Len(), c.Bytes())
	}
}

func TestAnswerCacheErrorsNotCached(t *testing.T) {
	c := NewAnswerCache(1 << 20)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(context.Background(), testKey("q"), func() (*CachedAnswer, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	calls := 0
	if _, out, err := c.GetOrCompute(context.Background(), testKey("q"), func() (*CachedAnswer, error) {
		calls++
		return &CachedAnswer{Result: fakeResult(10)}, nil
	}); err != nil || out != OutcomeMiss || calls != 1 {
		t.Fatalf("retry after error: outcome %v err %v calls %d", out, err, calls)
	}
}

// TestAnswerCacheWaiterSurvivesLeaderCancellation mirrors the PlanCache
// contract: a waiter whose leader died of the *leader's* context takes over
// instead of failing.
func TestAnswerCacheWaiterSurvivesLeaderCancellation(t *testing.T) {
	c := NewAnswerCache(1 << 20)
	key := testKey("q")
	leaderStarted := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.GetOrCompute(context.Background(), key, func() (*CachedAnswer, error) {
			close(leaderStarted)
			<-release
			return nil, context.Canceled // the leader's own context died
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v", err)
		}
	}()

	<-leaderStarted
	waiterComputed := false
	var waiterErr error
	var waiterOut Outcome
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, waiterOut, waiterErr = c.GetOrCompute(context.Background(), key, func() (*CachedAnswer, error) {
			waiterComputed = true
			return &CachedAnswer{Result: fakeResult(10)}, nil
		})
	}()
	close(release)
	wg.Wait()
	if waiterErr != nil || !waiterComputed || waiterOut != OutcomeMiss {
		t.Fatalf("waiter: computed %v outcome %v err %v; want retry as leader", waiterComputed, waiterOut, waiterErr)
	}
}

func TestAnswerCacheWaiterHonoursOwnContext(t *testing.T) {
	c := NewAnswerCache(1 << 20)
	key := testKey("q")
	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	go c.GetOrCompute(context.Background(), key, func() (*CachedAnswer, error) {
		close(leaderStarted)
		<-release
		return &CachedAnswer{Result: fakeResult(10)}, nil
	})
	<-leaderStarted
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, key, nil)
	close(release)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want its own cancellation", err)
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	ctx := context.Background()
	tgt, db, maps := serveTargetSchema(), serveInstance(10), serveMappings()
	if _, err := reg.Register(ctx, "", tgt, db, maps, RegisterOptions{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := reg.Register(ctx, "s", nil, db, maps, RegisterOptions{}); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := reg.Register(ctx, "s", tgt, nil, maps, RegisterOptions{}); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := reg.Register(ctx, "s", tgt, db, nil, RegisterOptions{}); err == nil {
		t.Error("empty mappings accepted")
	}
	sc, err := reg.Register(ctx, "s", tgt, db, maps, RegisterOptions{WarmIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(ctx, "s", tgt, db, maps, RegisterOptions{}); err == nil {
		t.Error("duplicate name accepted")
	}
	if sc.WarmIndexBuilds() != 3 {
		t.Errorf("warm builds = %d, want 3 (one per S column)", sc.WarmIndexBuilds())
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "s" || reg.Len() != 1 {
		t.Errorf("names = %v", got)
	}
	if _, ok := reg.Get("nope"); ok {
		t.Error("Get returned a missing scenario")
	}
}
