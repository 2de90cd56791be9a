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
// The key without its epoch is the *question*; the cache holds one answer per
// question, the newest, and a lookup hits only when that answer is of the
// lookup's own epoch.  A scenario mutation therefore makes an answer miss
// without any synchronous sweep, and the next answer to the same question
// replaces it.  Parallelism is deliberately absent — answers are bit-identical
// at every setting (the runtime's determinism contract), so it must not split
// the cache.
type CacheKey struct {
	Scenario string
	Epoch    uint64
	Query    string
	Method   core.Method
	Strategy core.Strategy
	TopK     int
}

// question is the key with its epoch zeroed: what the cache holds one answer
// for.
func (k CacheKey) question() CacheKey {
	k.Epoch = 0
	return k
}

// AnswerCache is a byte-budgeted LRU of evaluation results with singleflight
// semantics mirroring engine.PlanCache: when several requests need the same
// missing key at once, exactly one evaluates and the rest block for its
// result, so N concurrent identical requests cost one evaluation.  Unlike
// PlanCache it never caches errors — a failed evaluation releases the key so
// the next request retries — and it evicts least-recently-used entries once
// the byte budget is exceeded.  It is also the maintainer's only table: an
// answer that carries a delta state is maintained while it is cached, and
// eviction is what stops maintaining it.
type AnswerCache struct {
	counters CacheCounters // first, so the atomic adds are 64-bit aligned

	mu       sync.Mutex
	budget   int64
	bytes    int64
	entries  map[CacheKey]*list.Element // question -> its newest answer
	lru      *list.List                 // front = most recently used
	inflight map[CacheKey]*inflightCall
	// maintained indexes, per scenario, the questions whose answer carries a
	// delta state, so a maintenance pass reads its scenario's entries without
	// walking the whole cache.
	maintained map[string]map[CacheKey]struct{}
}

type cacheEntry struct {
	key  CacheKey
	ans  *CachedAnswer
	size int64
}

// CachedAnswer is the answer cache's unit: an evaluation result, its answers
// in wire form, and the delta state the result was computed from (nil when
// the delta cannot maintain it).  The wire answers are built at most once, by
// the first read that asks for them, so an entry nobody reads — a maintainer
// republish the next one overtakes — never pays for them, and every later
// hit, coalesced waiter and stale serve shares them.  Result and the wire
// answers are read-only once handed out; State belongs to the maintainer.
type CachedAnswer struct {
	Result *core.Result
	State  *core.DeltaState

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

// NewAnswerCache returns a cache that holds at most budget bytes of answers
// and their delta states (estimated; see entrySize).  A budget <= 0 disables
// storage but keeps the singleflight coalescing: concurrent identical
// requests still share one evaluation even with caching off.
func NewAnswerCache(budget int64) *AnswerCache {
	return &AnswerCache{
		budget:     budget,
		entries:    make(map[CacheKey]*list.Element),
		lru:        list.New(),
		inflight:   make(map[CacheKey]*inflightCall),
		maintained: make(map[string]map[CacheKey]struct{}),
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
func (c *AnswerCache) GetOrCompute(ctx context.Context, key CacheKey, compute func() (*CachedAnswer, error)) (*CachedAnswer, Outcome, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key.question()]; ok && el.Value.(*cacheEntry).key.Epoch == key.Epoch {
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

		ans, err := compute()
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			call.ans = ans
			c.insertLocked(key, ans)
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

// insertLocked stores the answer as its question's, unless the question
// already holds a newer epoch's, and evicts from the LRU tail until the budget
// holds.  An entry larger than the whole budget is not stored at all.  It
// reports whether the answer was stored.
func (c *AnswerCache) insertLocked(key CacheKey, ans *CachedAnswer) bool {
	size := entrySize(ans)
	if size > c.budget {
		return false
	}
	q := key.question()
	if el, ok := c.entries[q]; ok {
		if el.Value.(*cacheEntry).key.Epoch > key.Epoch {
			return false
		}
		c.removeLocked(el)
	}
	c.entries[q] = c.lru.PushFront(&cacheEntry{key: key, ans: ans, size: size})
	c.bytes += size
	if ans.State != nil {
		set := c.maintained[key.Scenario]
		if set == nil {
			set = make(map[CacheKey]struct{})
			c.maintained[key.Scenario] = set
		}
		set[q] = struct{}{}
	}
	for c.bytes > c.budget {
		c.removeLocked(c.lru.Back())
		atomic.AddInt64(&c.counters.Evictions, 1)
	}
	return true
}

// removeLocked unlinks one entry from every structure that references it.
func (c *AnswerCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	q := e.key.question()
	delete(c.entries, q)
	c.bytes -= e.size
	if set := c.maintained[e.key.Scenario]; set != nil {
		delete(set, q)
		if len(set) == 0 {
			delete(c.maintained, e.key.Scenario)
		}
	}
}

// maintainedEntries returns the scenario's cached entries that carry a delta
// state at an epoch at or above floor — the answers a maintenance pass keeps
// current.  The work under the lock is proportional to the scenario's
// maintained entries, not to the whole cache.
func (c *AnswerCache) maintainedEntries(scenario string, floor uint64) []*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*cacheEntry
	for q := range c.maintained[scenario] {
		if e := c.entries[q].Value.(*cacheEntry); e.key.Epoch >= floor {
			out = append(out, e)
		}
	}
	return out
}

// republish stores a maintenance pass's refreshed answer for the entry's
// question at epoch, provided the question is still cached: an answer the LRU
// evicted stays evicted, and an insert never replaces a newer epoch.  It
// reports whether the answer was stored.
func (c *AnswerCache) republish(e *cacheEntry, epoch uint64, ans *CachedAnswer) bool {
	key := e.key
	key.Epoch = epoch
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key.question()]; !ok {
		return false
	}
	return c.insertLocked(key, ans)
}

// drop removes the entry if it is still its question's answer — the
// maintainer's way out for an answer whose delta failed.
func (c *AnswerCache) drop(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key.question()]; ok && el.Value == e {
		c.removeLocked(el)
	}
}

// GetStale returns the cached answer for the request's question whatever its
// epoch, provided the epoch is at or above floor — the degradation path of an
// overloaded server.  Everything it can return was stored by a completed
// evaluation or maintenance pass and is immutable, so a stale answer is always
// a bit-identical replay of an answer served fresh at its epoch, never a torn
// or partially updated one.
func (c *AnswerCache) GetStale(key CacheKey, floor uint64) (*CachedAnswer, uint64, bool) {
	c.mu.Lock()
	el, ok := c.entries[key.question()]
	if !ok || el.Value.(*cacheEntry).key.Epoch < floor {
		c.mu.Unlock()
		return nil, 0, false
	}
	// Serving it under pressure is a reason to keep it around.
	c.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
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

// entrySize estimates the retained footprint of a cached answer: its result
// (resultSize) plus the delta state it carries.  Both estimates only need to
// be proportional — the budget is a pressure valve, not an accounting system.
func entrySize(ans *CachedAnswer) int64 {
	size := resultSize(ans.Result)
	if ans.State != nil {
		size += ans.State.Bytes()
	}
	return size
}

// resultSize estimates the retained footprint of a result: answer tuples
// dominate, at slice/struct overhead plus string payloads, and each answer's
// wire form adds its AnswerJSON and one boxed value per column (strings share
// their bytes with the tuple).  The wire answers are counted from the start,
// built or not, so an entry's size never changes while it is cached.
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
