package qos

import (
	"sync"
	"time"
)

// LimiterConfig tunes a Limiter.
type LimiterConfig struct {
	// Rate is the global admission rate in tokens/sec, shared by every active
	// tenant in proportion to its weight.  Must be positive.
	Rate float64
	// Burst is the global token allowance, split like Rate.  0 selects one
	// second's worth of Rate.  Each tenant's share is floored at one token, or
	// a tenant whose share rounded below one could never be admitted at all.
	Burst float64
	// DefaultWeight is the weight of tenants absent from Weights (0 = 1).
	DefaultWeight float64
	// Weights overrides per-tenant weights.  A weight of 2 earns twice the
	// rate and burst share of a weight-1 tenant while both are active.
	Weights map[string]float64
	// IdleAfter is how long a tenant may go without a request before its
	// share is rebalanced to the remaining active tenants (0 = 10s).  Buckets
	// idle for 10×IdleAfter are deleted outright, bounding the tenant map.
	IdleAfter time.Duration
	// Clock is the time source (nil = wall clock).
	Clock Clock
}

func (c LimiterConfig) withDefaults() LimiterConfig {
	if c.Burst <= 0 {
		c.Burst = c.Rate
	}
	if c.DefaultWeight <= 0 {
		c.DefaultWeight = 1
	}
	if c.IdleAfter <= 0 {
		c.IdleAfter = 10 * time.Second
	}
	if c.Clock == nil {
		c.Clock = Wall()
	}
	return c
}

// Limiter is a set of per-tenant token buckets over one shared capacity: the
// global Rate is divided among the currently active tenants in proportion to
// their weights, and the division is recomputed on every admission, so a
// tenant going idle hands its share back and a tenant waking up reclaims one.
// The shared pie is what makes the bucket math a tenant-isolation invariant:
// however hard one tenant floods, another tenant's refill rate never drops
// below Rate×w/Σw over the active set — flooding inflates the flooder's
// rejection count, not its share.
type Limiter struct {
	mu      sync.Mutex
	cfg     LimiterConfig
	tenants map[string]*tokenBucket
}

type tokenBucket struct {
	weight   float64
	tokens   float64
	refilled time.Time // last refill instant
	lastSeen time.Time // last Admit call; drives the active set
}

// NewLimiter builds a limiter; cfg.Rate must be positive.
func NewLimiter(cfg LimiterConfig) *Limiter {
	return &Limiter{cfg: cfg.withDefaults(), tenants: make(map[string]*tokenBucket)}
}

// Admit spends one token from the tenant's bucket.  When the bucket is empty
// it reports false along with the exact time until the next token accrues at
// the tenant's current share — the honest Retry-After for a 429.
func (l *Limiter) Admit(tenant string) (ok bool, retryAfter time.Duration) {
	now := l.cfg.Clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()

	b := l.tenants[tenant]
	if b == nil {
		// A new bucket starts full (at its share of the burst, computed below)
		// so a tenant's first requests are never penalised for being first.
		b = &tokenBucket{weight: l.weight(tenant), refilled: now}
		l.tenants[tenant] = b
		b.tokens = l.cfg.Burst // clamped to the share before use
	}
	b.lastSeen = now

	// The active set and the resulting share are recomputed on every
	// admission: O(tenants), which the 10×IdleAfter deletion keeps small.
	sumWeights := 0.0
	for name, t := range l.tenants {
		idle := now.Sub(t.lastSeen)
		switch {
		case idle > 10*l.cfg.IdleAfter:
			delete(l.tenants, name)
		case idle <= l.cfg.IdleAfter:
			sumWeights += t.weight
		}
	}
	if sumWeights <= 0 {
		sumWeights = b.weight
	}
	rate := l.cfg.Rate * b.weight / sumWeights
	burst := l.cfg.Burst * b.weight / sumWeights
	if burst < 1 {
		burst = 1
	}

	// Refill at the current share.  Negative elapsed time is clock skew (a
	// backwards Set on a fake clock, NTP in production): clamp, never drain.
	elapsed := now.Sub(b.refilled)
	if elapsed < 0 {
		elapsed = 0
	}
	b.refilled = now
	b.tokens += rate * elapsed.Seconds()
	if b.tokens > burst {
		b.tokens = burst
	}

	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / rate
	return false, time.Duration(need * float64(time.Second))
}

func (l *Limiter) weight(tenant string) float64 {
	if w, ok := l.cfg.Weights[tenant]; ok && w > 0 {
		return w
	}
	return l.cfg.DefaultWeight
}
