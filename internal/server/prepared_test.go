package server

import (
	"context"
	"errors"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/query"
)

// TestPreparedCacheReuse pins the prepared-query satellite: repeated requests
// for the same text — including answer-cache misses under different methods —
// reuse one compiled entry, and a differently spelled but canonically equal
// text reuses it too (paying only the parse).
func TestPreparedCacheReuse(t *testing.T) {
	srv, _ := newTestServer(t, 300, Config{MaxConcurrent: 2})
	ctx := context.Background()

	if _, err := srv.Do(ctx, Request{Scenario: "test", Query: fastQueryText}); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.PreparedBuilds != 1 || m.PreparedReuses != 0 {
		t.Fatalf("after first request: builds=%d reuses=%d, want 1/0", m.PreparedBuilds, m.PreparedReuses)
	}

	// Same text, different method: answer cache misses, prepared cache hits.
	if _, err := srv.Do(ctx, Request{Scenario: "test", Query: fastQueryText, Method: "basic"}); err != nil {
		t.Fatal(err)
	}
	// Same text again: answer cache hit, still a prepared reuse.
	if _, err := srv.Do(ctx, Request{Scenario: "test", Query: fastQueryText}); err != nil {
		t.Fatal(err)
	}
	// Different spelling, same canonical SQL.
	if _, err := srv.Do(ctx, Request{Scenario: "test", Query: "SELECT  a  FROM T WHERE b=7"}); err != nil {
		t.Fatal(err)
	}
	m = srv.Metrics()
	if m.PreparedBuilds != 1 {
		t.Errorf("prepared builds = %d, want 1 (everything after the first request must reuse)", m.PreparedBuilds)
	}
	if m.PreparedReuses != 3 {
		t.Errorf("prepared reuses = %d, want 3", m.PreparedReuses)
	}
}

// TestPreparedCacheEpochInvalidation: an AppendRow bumps the epoch, so the
// next request misses the answer cache and sees the new data — through the
// same prepared entry, whose front half reads no rows.  A Bump (an
// out-of-band change) raises the stale floor, and only that rebuilds it.
func TestPreparedCacheEpochInvalidation(t *testing.T) {
	// Delta maintenance is off: it would republish the answer at the new
	// epoch before the second request could miss.
	srv, sc := newTestServer(t, 100, Config{MaxConcurrent: 2, DisableDelta: true})
	ctx := context.Background()

	first, err := srv.Do(ctx, Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.AppendRow("S", tuple("fresh", 7, 7)); err != nil {
		t.Fatal(err)
	}
	second, err := srv.Do(ctx, Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Error("request after epoch bump served from answer cache")
	}
	m := srv.Metrics()
	if m.PreparedBuilds != 1 {
		t.Errorf("prepared builds = %d, want 1 (an append keeps the prepared query)", m.PreparedBuilds)
	}
	find := func(r *Response, label string) bool {
		for _, a := range r.Answers {
			if len(a.Values) == 1 && a.Values[0] == label {
				return true
			}
		}
		return false
	}
	if find(first, "fresh") {
		t.Error("first response already contains the appended row")
	}
	if !find(second, "fresh") {
		t.Error("response after AppendRow does not see the new row")
	}

	// The prepared result must equal a from-scratch evaluation on the new data.
	q, err := sc.Parse("verify", fastQueryText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := evaluateFresh(ctx, sc, q, 0, core.Options{Method: core.MethodOSharing})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "prepared-after-append", want, second.Result)

	sc.Bump()
	third, err := srv.Do(ctx, Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("request after Bump served from answer cache")
	}
	if m := srv.Metrics(); m.PreparedBuilds != 2 {
		t.Errorf("prepared builds = %d, want 2 (a Bump must rebuild)", m.PreparedBuilds)
	}
	sameResult(t, "prepared-after-bump", want, third.Result)
}

// TestTypedSentinelErrors pins the error-classification satellite: the Do
// path's failures are distinguishable with errors.Is.
func TestTypedSentinelErrors(t *testing.T) {
	srv, _ := newTestServer(t, 50, Config{MaxConcurrent: 1})
	ctx := context.Background()

	if _, err := srv.Do(ctx, Request{Scenario: "nope", Query: fastQueryText}); !errors.Is(err, ErrUnknownScenario) {
		t.Errorf("unknown scenario: err = %v, want ErrUnknownScenario", err)
	}
	if _, err := srv.Do(ctx, Request{Scenario: "test", Query: "SELECT FROM WHERE"}); !errors.Is(err, query.ErrBadQuery) {
		t.Errorf("unparsable query: err = %v, want ErrBadQuery", err)
	}
	if _, err := srv.Do(ctx, Request{Scenario: "test", Query: ""}); !errors.Is(err, query.ErrBadQuery) {
		t.Errorf("missing query: err = %v, want ErrBadQuery", err)
	}
	if _, err := srv.Do(ctx, Request{Scenario: "test", Query: fastQueryText, Method: "bogus"}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("bogus method: err = %v, want ErrBadOptions", err)
	}
	if _, err := srv.Do(ctx, Request{Scenario: "test", Query: fastQueryText, TopK: -1}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("negative topk: err = %v, want ErrBadOptions", err)
	}
}
