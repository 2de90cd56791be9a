package qos

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Jitter: -1}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second,
	}
	for i, w := range want {
		if d := b.delay(rng, i+1, 0); d != w {
			t.Fatalf("delay(retry=%d) = %v, want %v", i+1, d, w)
		}
	}
}

func TestBackoffHonorsRetryAfterFloor(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Jitter: -1}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	// The server asked for 500ms: early retries are floored up to it...
	if d := b.delay(rng, 1, 500*time.Millisecond); d != 500*time.Millisecond {
		t.Fatalf("floored delay = %v, want 500ms", d)
	}
	// ...but growth above the floor is kept.
	if d := b.delay(rng, 4, 500*time.Millisecond); d != 800*time.Millisecond {
		t.Fatalf("grown delay = %v, want 800ms", d)
	}
}

func TestBackoffJitterBoundsAndDeterminism(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Hour}.withDefaults() // Jitter defaults to 0.2
	seq := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = b.delay(rng, 1, 0)
		}
		return out
	}
	a := seq(7)
	varied := false
	for i, d := range a {
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered delay %v outside [80ms, 120ms]", d)
		}
		if i > 0 && d != a[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter produced a constant sequence")
	}
	b2 := seq(7)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatal("same seed produced different jitter sequences")
		}
	}
}

func TestRetryStopsOnSuccessAndNonRetryable(t *testing.T) {
	// Nanosecond delays keep the loop fast without a fake clock; nothing here
	// asserts on elapsed time.
	fast := Backoff{Base: 1, Max: 1, Jitter: -1, Attempts: 10}

	calls := 0
	err := Retry(context.Background(), fast, func(context.Context) (time.Duration, bool, error) {
		calls++
		if calls < 3 {
			return 0, true, errors.New("transient")
		}
		return 0, false, nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("success path: calls=%d err=%v, want 3 attempts and nil", calls, err)
	}

	calls = 0
	permanent := errors.New("permanent")
	err = Retry(context.Background(), fast, func(context.Context) (time.Duration, bool, error) {
		calls++
		return 0, false, permanent
	})
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("non-retryable path: calls=%d err=%v, want 1 attempt", calls, err)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	fast := Backoff{Base: 1, Max: 1, Jitter: -1, Attempts: 4}
	calls := 0
	transient := errors.New("transient")
	err := Retry(context.Background(), fast, func(context.Context) (time.Duration, bool, error) {
		calls++
		return 0, true, transient
	})
	if calls != 4 {
		t.Fatalf("made %d attempts, want 4", calls)
	}
	if !errors.Is(err, transient) || !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("exhaustion error = %v", err)
	}
}

func TestRetryRefusesDelayBeyondDeadline(t *testing.T) {
	// An hour-long pause can never fit a 50ms deadline: Retry must return the
	// attempt's error immediately instead of sleeping into a timeout.
	slow := Backoff{Base: time.Hour, Max: time.Hour, Jitter: -1, Attempts: 4}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	calls := 0
	transient := errors.New("transient")
	err := Retry(ctx, slow, func(context.Context) (time.Duration, bool, error) {
		calls++
		return 0, true, transient
	})
	if calls != 1 {
		t.Fatalf("made %d attempts, want 1", calls)
	}
	if !errors.Is(err, transient) || !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("deadline error = %v", err)
	}
}

func TestRetryObservesCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Retry(ctx, Backoff{}, func(context.Context) (time.Duration, bool, error) {
		t.Fatal("attempt ran under a dead context")
		return 0, false, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRetryFirstSuccessBuildsNoJitterSource: the coordinator calls Retry once
// per shard per query and nearly every call succeeds at once, so seeding the
// jitter source (a 607-word table and a few KB of garbage) waits for the
// first retry.
func TestRetryFirstSuccessBuildsNoJitterSource(t *testing.T) {
	ctx := context.Background()
	ok := func(context.Context) (time.Duration, bool, error) { return 0, false, nil }
	if allocs := testing.AllocsPerRun(100, func() { _ = Retry(ctx, Backoff{}, ok) }); allocs != 0 {
		t.Errorf("Retry whose first attempt succeeds allocates %.0f objects, want 0", allocs)
	}
}
