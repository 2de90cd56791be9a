package server

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestHooksStagesAndSlowQueries covers the request-path observability seams:
// AfterQuery fires after every Do (errors included), a request
// over the slow-query threshold is counted, and the per-stage histograms
// record parse/reformulate/execute/merge timings.
func TestHooksStagesAndSlowQueries(t *testing.T) {
	var after, failed atomic.Int64
	srv, _ := newTestServer(t, 60, Config{
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		AfterQuery: func(req *Request, resp *Response, err error, elapsed time.Duration) {
			after.Add(1)
			if err != nil {
				failed.Add(1)
			}
			if elapsed < 0 {
				t.Errorf("AfterQuery elapsed = %v", elapsed)
			}
		},
	})
	if _, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: "e-basic"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Do(context.Background(), Request{Scenario: "missing", Query: fastQueryText}); err == nil {
		t.Fatal("unknown scenario did not error")
	}
	if after.Load() != 2 || failed.Load() != 1 {
		t.Fatalf("hooks: after=%d failed=%d, want 2/1", after.Load(), failed.Load())
	}
	m := srv.Metrics()
	if m.SlowQueries < 1 {
		t.Fatalf("slow_queries = %d, want >= 1", m.SlowQueries)
	}
	for _, stage := range []string{"parse", "reformulate", "execute", "merge"} {
		if m.Stages[stage].Count != 1 {
			t.Fatalf("stage %q count = %d, want 1 (one built prepared query, one evaluation)", stage, m.Stages[stage].Count)
		}
	}
	// The evaluation built the method's front half (here through the
	// delta-first path), so the stage recorded time, not just an observation.
	reformulate := m.Stages["reformulate"].SumMS
	if reformulate <= 0 {
		t.Fatalf("stage reformulate sum = %v ms after the evaluation that built the front half, want > 0", reformulate)
	}
	// A second identical request reuses the prepared query and the answer
	// cache: no new parse, no new evaluation stages.
	if _, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: "e-basic"}); err != nil {
		t.Fatal(err)
	}
	m = srv.Metrics()
	for _, stage := range []string{"parse", "reformulate", "execute", "merge"} {
		if m.Stages[stage].Count != 1 {
			t.Fatalf("stage %q count after cache hit = %d, want still 1", stage, m.Stages[stage].Count)
		}
	}
	if got := m.Stages["reformulate"].SumMS; got != reformulate {
		t.Fatalf("stage reformulate sum moved from %v to %v ms on a cache hit", reformulate, got)
	}
}

// TestReformulateStageOnDeltaFallback is the same observation for a plan the
// maintainer cannot keep: an aggregate on a server whose maintainer runs.  The
// delta-first path builds the front half and refuses it, and the evaluation
// it falls back to finds the front half memoized; the build time must still
// reach the stage, once.
func TestReformulateStageOnDeltaFallback(t *testing.T) {
	srv, _ := newTestServer(t, 60, Config{})
	req := Request{Scenario: "test", Query: "SELECT COUNT(*) FROM T", Method: "e-basic"}
	if _, err := srv.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.DeltaFallbacks != 1 {
		t.Fatalf("delta_fallbacks = %d, want 1: the aggregate should have been refused by the maintainer", m.DeltaFallbacks)
	}
	if r := m.Stages["reformulate"]; r.Count != 1 || r.SumMS <= 0 {
		t.Fatalf("stage reformulate after the first evaluation: count %d sum %v ms, want 1 and > 0", r.Count, r.SumMS)
	}
}

// TestReformulateStageWithoutCache is the same observation on a server with
// the answer cache off, where no maintainer runs and every request evaluates
// without a delta state: the first evaluation builds the front half and
// records its time, the second reuses the memoized plan and records none.
func TestReformulateStageWithoutCache(t *testing.T) {
	srv, _ := newTestServer(t, 60, Config{CacheBytes: -1})
	req := Request{Scenario: "test", Query: fastQueryText, Method: "e-basic"}
	if _, err := srv.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	first := srv.Metrics().Stages["reformulate"]
	if first.Count != 1 || first.SumMS <= 0 {
		t.Fatalf("stage reformulate after the first evaluation: count %d sum %v ms, want 1 and > 0", first.Count, first.SumMS)
	}
	if _, err := srv.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	second := srv.Metrics().Stages["reformulate"]
	if second.Count != 2 || second.SumMS != first.SumMS {
		t.Fatalf("stage reformulate after a second evaluation: count %d sum %v ms, want 2 and still %v", second.Count, second.SumMS, first.SumMS)
	}
}
