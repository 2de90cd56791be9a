package qos

import (
	"testing"
	"time"
)

func TestLimiterSingleTenantGetsFullRate(t *testing.T) {
	clk := NewFakeClock()
	l := NewLimiter(LimiterConfig{Rate: 10, Burst: 5, Clock: clk})

	// A fresh bucket starts at its burst share: 5 admits, then empty.
	for i := 0; i < 5; i++ {
		if ok, _ := l.Admit("a"); !ok {
			t.Fatalf("admit %d rejected within burst", i)
		}
	}
	ok, retry := l.Admit("a")
	if ok {
		t.Fatal("admitted past the burst with no time elapsed")
	}
	// Empty bucket at 10 tokens/sec: the next token is exactly 100ms away.
	if retry != 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 100ms", retry)
	}

	// Refill at the full rate while alone: 1s restores the full burst.
	clk.Advance(time.Second)
	for i := 0; i < 5; i++ {
		if ok, _ := l.Admit("a"); !ok {
			t.Fatalf("post-refill admit %d rejected", i)
		}
	}
}

func TestLimiterActiveTenantsSplitTheRate(t *testing.T) {
	clk := NewFakeClock()
	l := NewLimiter(LimiterConfig{Rate: 10, Burst: 2, IdleAfter: 10 * time.Second, Clock: clk})

	// Both tenants present: each holds half the rate.
	drain := func(tenant string) {
		for {
			if ok, _ := l.Admit(tenant); !ok {
				return
			}
		}
	}
	drain("a")
	drain("b")

	// With two active tenants at 5 tokens/sec each, 200ms accrues one token.
	clk.Advance(200 * time.Millisecond)
	if ok, _ := l.Admit("a"); !ok {
		t.Fatal("tenant a denied its half share")
	}
	if ok, _ := l.Admit("a"); ok {
		t.Fatal("tenant a got more than its half share")
	}
	if ok, _ := l.Admit("b"); !ok {
		t.Fatal("tenant b denied its half share")
	}

	// After b idles past IdleAfter, a's share rebalances to the full rate:
	// the same 200ms now accrues two tokens.
	drain("a")
	clk.Advance(11 * time.Second) // b idle; a's bucket caps at burst share
	drain("a")
	clk.Advance(200 * time.Millisecond)
	admitted := 0
	for {
		ok, _ := l.Admit("a")
		if !ok {
			break
		}
		admitted++
	}
	if admitted != 2 {
		t.Fatalf("sole active tenant accrued %d tokens over 200ms, want 2 (full 10/s rate)", admitted)
	}
}

func TestLimiterWeightsSkewTheSplit(t *testing.T) {
	clk := NewFakeClock()
	l := NewLimiter(LimiterConfig{
		Rate: 12, Burst: 3, Clock: clk,
		Weights: map[string]float64{"gold": 3},
	})
	for _, tenant := range []string{"gold", "bronze"} {
		for {
			if ok, _ := l.Admit(tenant); !ok {
				break
			}
		}
	}
	// gold w=3, bronze w=1: gold refills at 9/s, bronze at 3/s.
	clk.Advance(time.Second)
	count := func(tenant string) int {
		n := 0
		for {
			if ok, _ := l.Admit(tenant); !ok {
				return n
			}
			n++
		}
	}
	// Burst shares cap the accrual: gold 3×3/4=2.25, bronze capped up to 1.
	if g := count("gold"); g != 2 {
		t.Fatalf("gold admitted %d, want 2 (burst share 2.25)", g)
	}
	if b := count("bronze"); b != 1 {
		t.Fatalf("bronze admitted %d, want 1 (burst share floored at 1)", b)
	}
}

func TestLimiterToleratesClockSkew(t *testing.T) {
	clk := NewFakeClock()
	l := NewLimiter(LimiterConfig{Rate: 10, Burst: 1, Clock: clk})
	if ok, _ := l.Admit("a"); !ok {
		t.Fatal("first admit rejected")
	}
	// Jump the clock backwards a full minute: the bucket must neither panic
	// nor mint tokens, and a subsequent forward step refills normally.
	clk.Set(clk.Now().Add(-time.Minute))
	if ok, _ := l.Admit("a"); ok {
		t.Fatal("backwards clock skew minted a token")
	}
	clk.Advance(time.Minute + 100*time.Millisecond)
	if ok, _ := l.Admit("a"); !ok {
		t.Fatal("forward progress after skew did not refill")
	}
}

func TestLatencyTrackerMedian(t *testing.T) {
	var lt LatencyTracker
	if _, ok := lt.P50(); ok {
		t.Fatal("empty tracker reported a median")
	}
	for i := 1; i <= latencyMinSamples-1; i++ {
		lt.Observe(time.Duration(i) * time.Millisecond)
	}
	if _, ok := lt.P50(); ok {
		t.Fatal("tracker reported a median below the minimum sample count")
	}
	lt.Observe(latencyMinSamples * time.Millisecond)
	p50, ok := lt.P50()
	if !ok {
		t.Fatal("tracker withheld the median at the minimum sample count")
	}
	if p50 != 5*time.Millisecond {
		t.Fatalf("p50 = %v, want 5ms over 1..8ms", p50)
	}
	lt.Observe(-time.Second) // skew: dropped
	if got, _ := lt.P50(); got != p50 {
		t.Fatalf("negative observation shifted the median to %v", got)
	}
}

// TestLatencyTrackerMedianAllocatesNothing: the shed ladder asks for the
// median on every cold evaluation, so sorting the window must not copy it to
// the heap.
func TestLatencyTrackerMedianAllocatesNothing(t *testing.T) {
	var lt LatencyTracker
	for i := latencyWindow; i > 0; i-- {
		lt.Observe(time.Duration(i) * time.Millisecond)
	}
	var p50 time.Duration
	if allocs := testing.AllocsPerRun(100, func() { p50, _ = lt.P50() }); allocs != 0 {
		t.Errorf("P50 on a full window allocates %.0f objects, want 0", allocs)
	}
	if want := time.Duration(latencyWindow/2+1) * time.Millisecond; p50 != want {
		t.Errorf("p50 = %v, want %v over 1..%dms", p50, want, latencyWindow)
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(0)                    // bucket 0 (<= 0.25ms)
	h.Observe(7 * time.Millisecond) // <= 8ms
	h.Observe(-time.Second)         // skew: counted as zero
	h.Observe(10 * time.Second)     // overflow bucket
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	// Cumulative: bucket 0 holds the two zeros, the 8ms bound holds three,
	// the final catch-all holds all four.
	if s.Counts[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2", s.Counts[0])
	}
	idx8 := -1
	for i, le := range s.LeMS {
		if le == 8 {
			idx8 = i
		}
	}
	if s.Counts[idx8] != 3 {
		t.Fatalf("<=8ms cumulative = %d, want 3", s.Counts[idx8])
	}
	if last := s.Counts[len(s.Counts)-1]; last != 4 {
		t.Fatalf("+Inf cumulative = %d, want 4", last)
	}
	if want := 7.0 + 10_000.0; s.SumMS != want {
		t.Fatalf("sum = %v ms, want %v", s.SumMS, want)
	}
}
