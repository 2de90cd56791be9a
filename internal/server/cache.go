package server

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
)

// CacheKey identifies one cacheable request exactly.  The query text is the
// canonical form (query.Query.Fingerprint): the parser round-trip property
// guarantees two requests with the same canonical text evaluate the same AST.
// Epoch is part of the key, so a scenario mutation makes every older entry
// unreachable without any synchronous sweep; stale entries age out through
// the LRU.  Parallelism is deliberately absent — answers are bit-identical at
// every setting (the runtime's determinism contract), so it must not split
// the cache.
type CacheKey struct {
	Scenario string
	Epoch    uint64
	Query    string
	Method   core.Method
	Strategy core.Strategy
	TopK     int
}

// AnswerCache is a byte-budgeted LRU of evaluation results with singleflight
// semantics mirroring engine.PlanCache: when several requests need the same
// missing key at once, exactly one evaluates and the rest block for its
// result, so N concurrent identical requests cost one evaluation.  Unlike
// PlanCache it never caches errors — a failed evaluation releases the key so
// the next request retries — and it evicts least-recently-used entries once
// the byte budget is exceeded.
type AnswerCache struct {
	counters CacheCounters // first, so the atomic adds are 64-bit aligned

	mu       sync.Mutex
	budget   int64
	bytes    int64
	entries  map[CacheKey]*list.Element
	lru      *list.List // front = most recently used
	inflight map[CacheKey]*inflightCall
	// byQuery indexes the newest-epoch entry per epoch-stripped key: the
	// stale-answer degradation path asks "what is the freshest answer we ever
	// served for this question", which the epoch-keyed primary map cannot
	// answer without a scan.
	byQuery map[CacheKey]*list.Element
}

type cacheEntry struct {
	key  CacheKey
	ans  *CachedAnswer
	size int64
}

// CachedAnswer is the answer cache's unit: an evaluation result and its
// answers in wire form.  The wire answers are built at most once, by the first
// read that asks for them, so an entry nobody reads — a maintainer republish
// the next one overtakes — never pays for them, and every later hit, coalesced
// waiter and stale serve shares them.  Both are read-only once handed out.
type CachedAnswer struct {
	Result *core.Result

	wireOnce sync.Once
	wire     []AnswerJSON
}

// Wire returns the result's answers in their JSON form, building them on the
// first call.
func (a *CachedAnswer) Wire() []AnswerJSON {
	a.wireOnce.Do(func() { a.wire = answersJSON(a.Result) })
	return a.wire
}

// inflightCall is one in-progress evaluation other requests can wait on.
type inflightCall struct {
	done chan struct{}
	ans  *CachedAnswer
	err  error
}

// NewAnswerCache returns a cache that holds at most budget bytes of results
// (estimated; see resultSize).  A budget <= 0 disables storage but keeps the
// singleflight coalescing: concurrent identical requests still share one
// evaluation even with caching off.
func NewAnswerCache(budget int64) *AnswerCache {
	return &AnswerCache{
		budget:   budget,
		entries:  make(map[CacheKey]*list.Element),
		lru:      list.New(),
		inflight: make(map[CacheKey]*inflightCall),
		byQuery:  make(map[CacheKey]*list.Element),
	}
}

// Outcome says how GetOrCompute satisfied a request.
type Outcome int

// Outcomes.
const (
	// OutcomeMiss: this request ran the evaluation.
	OutcomeMiss Outcome = iota
	// OutcomeHit: served from the cache without any evaluation.
	OutcomeHit
	// OutcomeCoalesced: waited on another request's in-flight evaluation.
	OutcomeCoalesced
)

// GetOrCompute returns the answer for the key, evaluating with compute on a
// miss.  Concurrent callers with the same key share one compute call.  The
// returned answer is shared across callers and must be treated as immutable.
//
// Error handling follows engine.PlanCache's cancellation rule, tightened for
// a serving context: no error is ever cached, and a waiter whose leader died
// of *the leader's* context (cancellation or deadline) retries with its own
// live context rather than inheriting the failure.
func (c *AnswerCache) GetOrCompute(ctx context.Context, key CacheKey, compute func() (*core.Result, error)) (*CachedAnswer, Outcome, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			ans := el.Value.(*cacheEntry).ans
			c.mu.Unlock()
			atomic.AddInt64(&c.counters.Hits, 1)
			return ans, OutcomeHit, nil
		}
		if call, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return nil, OutcomeCoalesced, ctx.Err()
			}
			if call.err == nil {
				atomic.AddInt64(&c.counters.Coalesced, 1)
				return call.ans, OutcomeCoalesced, nil
			}
			if errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded) {
				// The leader's context died, not necessarily ours.  If ours is
				// live, take another turn (possibly becoming the leader).
				if err := ctx.Err(); err != nil {
					return nil, OutcomeCoalesced, err
				}
				continue
			}
			return nil, OutcomeCoalesced, call.err
		}
		call := &inflightCall{done: make(chan struct{})}
		c.inflight[key] = call
		c.mu.Unlock()

		res, err := compute()
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			call.ans = &CachedAnswer{Result: res}
			c.insertLocked(key, call.ans)
		}
		call.err = err
		c.mu.Unlock()
		close(call.done)
		if err != nil {
			return nil, OutcomeMiss, err
		}
		atomic.AddInt64(&c.counters.Misses, 1)
		return call.ans, OutcomeMiss, nil
	}
}

// Put stores a computed result directly — the delta maintainer's publish path,
// which refreshes answers outside any request (no singleflight involved; a
// concurrent GetOrCompute for the same key simply finds the entry).  The new
// entry builds its own wire answers, on its first read.
func (c *AnswerCache) Put(key CacheKey, res *core.Result) {
	c.mu.Lock()
	c.insertLocked(key, &CachedAnswer{Result: res})
	c.mu.Unlock()
}

// stripEpoch is the byQuery index key: the request identity with the epoch
// zeroed, so entries for the same question at different epochs collide.
func stripEpoch(key CacheKey) CacheKey {
	key.Epoch = 0
	return key
}

// insertLocked stores the answer and evicts from the LRU tail until the
// budget holds.  An entry larger than the whole budget is not stored at all.
func (c *AnswerCache) insertLocked(key CacheKey, ans *CachedAnswer) {
	size := resultSize(ans.Result)
	if size > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		// A concurrent computation for the same key can finish twice only via
		// epoch races; keep the newer result.
		c.removeLocked(el)
	}
	el := c.lru.PushFront(&cacheEntry{key: key, ans: ans, size: size})
	c.entries[key] = el
	c.bytes += size
	// The stale index tracks the newest epoch per question; never step it back.
	sk := stripEpoch(key)
	if prev, ok := c.byQuery[sk]; !ok || prev.Value.(*cacheEntry).key.Epoch <= key.Epoch {
		c.byQuery[sk] = el
	}
	for c.bytes > c.budget {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
		atomic.AddInt64(&c.counters.Evictions, 1)
	}
}

// removeLocked unlinks one entry from every structure that references it.
func (c *AnswerCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
	if sk := stripEpoch(e.key); c.byQuery[sk] == el {
		delete(c.byQuery, sk)
	}
}

// GetStale returns the newest cached answer for the request regardless of
// epoch, provided its epoch is at or above floor — the degradation path of an
// overloaded server.  Everything it can return was stored by a completed
// evaluation and is immutable, so a stale answer is always a bit-identical
// replay of an answer some earlier request was served fresh, never a torn or
// partially updated one.
func (c *AnswerCache) GetStale(key CacheKey, floor uint64) (*CachedAnswer, uint64, bool) {
	c.mu.Lock()
	el, ok := c.byQuery[stripEpoch(key)]
	if !ok {
		c.mu.Unlock()
		return nil, 0, false
	}
	e := el.Value.(*cacheEntry)
	if e.key.Epoch < floor {
		c.mu.Unlock()
		return nil, 0, false
	}
	// Serving it under pressure is a reason to keep it around.
	c.lru.MoveToFront(el)
	ans, epoch := e.ans, e.key.Epoch
	c.mu.Unlock()
	atomic.AddInt64(&c.counters.StaleHits, 1)
	return ans, epoch, true
}

// Len returns the number of cached entries.
func (c *AnswerCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the estimated size of the cached results.
func (c *AnswerCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// CacheCounters are the answer cache's counters, declared once: the cache
// adds to a live copy atomically, and CacheMetrics embeds a snapshot.
type CacheCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	// StaleHits counts GetStale successes: answers served from a previous
	// epoch as overload degradation.
	StaleHits int64 `json:"stale_hits"`
}

// CacheMetrics is a snapshot of the cache counters and occupancy.
type CacheMetrics struct {
	CacheCounters
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}

// Metrics returns a snapshot of the cache counters and occupancy.
func (c *AnswerCache) Metrics() CacheMetrics {
	c.mu.Lock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.Unlock()
	return CacheMetrics{
		CacheCounters: loadCounters(&c.counters),
		Entries:       entries,
		Bytes:         bytes,
		BudgetBytes:   c.budget,
	}
}

// resultSize estimates the retained footprint of a cached answer: answer
// tuples dominate, at slice/struct overhead plus string payloads, and each
// answer's wire form adds its AnswerJSON and one boxed value per column
// (strings share their bytes with the tuple).  The wire answers are counted
// from the start, built or not, so an entry's size never changes while it is
// cached.  The estimate only needs to be proportional — the budget is a
// pressure valve, not an accounting system.
func resultSize(res *core.Result) int64 {
	const entryOverhead = 256
	size := int64(entryOverhead)
	for _, a := range res.Answers {
		size += 24 + 32 + int64(len(a.Tuple))*(48+32)
		for _, v := range a.Tuple {
			if v.Kind == engine.KindString {
				size += int64(len(v.Str))
			}
		}
	}
	for _, c := range res.Columns {
		size += int64(len(c)) + 16
	}
	return size
}
