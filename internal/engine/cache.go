package engine

import (
	"context"
	"errors"
	"sync"
)

// PlanCache memoizes the materialized results of sharing points — plan nodes
// whose result has more than one consumer — by canonical signature.  It is the
// shared-subexpression store of the MQO substrate and is safe for concurrent
// use: when several executors request the same signature at once, exactly one
// computes it and the others block until the result is ready (singleflight),
// so every distinct subexpression is executed exactly once no matter how the
// queries sharing it are scheduled across workers.
//
// One materialization serves every consumer of a signature, so it has to carry
// the union of the columns they read: a cache made by LiveColumns.NewPlanCache
// builds exactly that, materializes only the analysed sharing points, and may
// only run the plans that analysis covered; a cache made by NewPlanCache knows
// nothing about its consumers, so every node is a sharing point and keeps
// every column.
type PlanCache struct {
	live    *LiveColumns
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

// planResult is one materialized sharing point: the relation built for it,
// which carries the columns its consumers read, and the node's logical columns
// located in that relation's tuples.
type planResult struct {
	rel *Relation
	lay colLayout
}

type cacheEntry struct {
	once sync.Once
	res  *planResult
	err  error
}

// NewPlanCache returns an empty cache that shares every node's result and
// keeps every column.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[string]*cacheEntry)}
}

// NewPlanCache returns an empty cache for executing the analysed plans: each
// sharing point materializes the columns some analysed plan reads from it.
func (l *LiveColumns) NewPlanCache() *PlanCache {
	return &PlanCache{live: l, entries: make(map[string]*cacheEntry)}
}

// sharingPoint reports whether the node's result is shared, and if so under
// which signature and carrying which columns.  With an analysis that is one
// lookup by node identity, and a node it never saw fuses into its consumer like
// any unshared one; without, the signature is formatted here and every column
// kept.
func (c *PlanCache) sharingPoint(p Plan) (sig string, need colNeed, ok bool) {
	if c.live == nil {
		return p.Signature(), needAll, true
	}
	info := c.live.nodes[p]
	if info == nil || len(info.consumers) < 2 {
		return "", colNeed{}, false
	}
	return info.sig, info.need, true
}

// getOrCompute returns the cached result for the signature, computing it with
// compute on first request.  A compute error is cached too, so a failing
// subexpression fails every query sharing it without being retried — except
// context cancellation/deadline errors, whose entry is evicted so a later run
// with a live context can recompute the subexpression.
func (c *PlanCache) getOrCompute(sig string, compute func() (*planResult, error)) (*planResult, error) {
	c.mu.Lock()
	e, ok := c.entries[sig]
	if !ok {
		e = &cacheEntry{}
		c.entries[sig] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = compute()
		if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
			c.mu.Lock()
			if c.entries[sig] == e {
				delete(c.entries, sig)
			}
			c.mu.Unlock()
		}
	})
	return e.res, e.err
}

// Len returns the number of cached signatures.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
