package qos

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Backoff computes capped, jittered exponential retry delays — the client
// half of the 429 contract.  The server's Retry-After is honoured as a floor:
// backing off *less* than the server asked would re-shed the request, while
// the exponential growth above it keeps a fleet of retrying clients from
// re-synchronising into waves.
//
// The zero value is usable; every field has a serving-appropriate default.
type Backoff struct {
	// Base is the delay before the first retry (0 = 50ms).
	Base time.Duration
	// Max caps the grown delay, before the Retry-After floor (0 = 2s).
	Max time.Duration
	// Factor is the per-retry growth multiplier (0 = 2).
	Factor float64
	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter] (0 = 0.2;
	// negative = no jitter).
	Jitter float64
	// Attempts caps the total number of attempts, the first included (0 = 4).
	Attempts int
	// Seed makes the jitter sequence reproducible (0 = 1).
	Seed uint64
	// Clock is the time source (nil = wall clock).
	Clock Clock
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Factor <= 1 {
		b.Factor = 2
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	if b.Attempts <= 0 {
		b.Attempts = 4
	}
	if b.Seed == 0 {
		b.Seed = 1
	}
	if b.Clock == nil {
		b.Clock = Wall()
	}
	return b
}

// delay computes the pause before retry number `retry` (1-based), honouring
// the server-provided Retry-After hint as a floor.
func (b Backoff) delay(rng *rand.Rand, retry int, retryAfter time.Duration) time.Duration {
	d := float64(b.Base)
	for i := 1; i < retry; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			break
		}
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 {
		d *= 1 - b.Jitter + 2*b.Jitter*rng.Float64()
	}
	out := time.Duration(d)
	if retryAfter > out {
		out = retryAfter
	}
	return out
}

// Retry runs attempt until it succeeds, fails non-retryably, exhausts the
// attempt budget, or the context can no longer fit the next delay.  attempt
// reports the server's Retry-After hint (0 when none) and whether its error
// is retryable; a nil error ends the loop immediately.
func Retry(ctx context.Context, b Backoff, attempt func(ctx context.Context) (retryAfter time.Duration, retryable bool, err error)) error {
	b = b.withDefaults()
	// The jitter source is seeded at the first retry, so a call that
	// succeeds at once pays for no seeding; the sequence is the same.
	var rng *rand.Rand
	for try := 1; ; try++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		retryAfter, retryable, err := attempt(ctx)
		if err == nil || !retryable {
			return err
		}
		if try >= b.Attempts {
			return fmt.Errorf("giving up after %d attempts: %w", try, err)
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(int64(b.Seed)))
		}
		d := b.delay(rng, try, retryAfter)
		if deadline, ok := ctx.Deadline(); ok && b.Clock.Now().Add(d).After(deadline) {
			return fmt.Errorf("deadline cannot fit the next %v retry pause: %w", d, err)
		}
		timer := b.Clock.NewTimer(d)
		select {
		case <-timer.C():
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
}
