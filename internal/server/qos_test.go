package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/qos"
)

// distinctQuery returns the i-th member of an unbounded family of distinct
// fast queries: QoS tests need cache *misses* (the ladder sits inside the
// compute path), so every request must be a question the cache has not seen.
func distinctQuery(i int) string {
	return fmt.Sprintf("SELECT a FROM T WHERE b = %d", i)
}

// TestTenantIsolationUnderFlood is the tenant-isolation property test: a
// tenant flooding far past its share must not push a compliant tenant's
// rejection rate above the token-bucket prediction (here: zero, since the
// compliant tenant paces below its guaranteed share), and the compliant
// tenant's answers must stay bit-identical to direct evaluation.  The fake
// clock makes the token math exact; requests are driven sequentially so the
// only nondeterminism left is inside the engine, which its own determinism
// contract covers.
func TestTenantIsolationUnderFlood(t *testing.T) {
	for _, parallelism := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			clk := qos.NewFakeClock()
			// Rate 10, equal weights, two active tenants: 5/s and burst 2 each.
			// The compliant tenant sends one request per 250ms = 4/s < 5/s, so
			// bucket math predicts zero rejections for it, whatever the other
			// tenant does.
			s, sc := newTestServer(t, 200, Config{
				TenantRate:  10,
				TenantBurst: 4,
				Parallelism: parallelism,
				Faults:      &qos.Faults{Clock: clk},
			})
			ctx := context.Background()

			const rounds = 20
			const floodPerRound = 5
			hostileAdmitted, hostileRejected := 0, 0
			q := 0
			for round := 0; round < rounds; round++ {
				clk.Advance(250 * time.Millisecond)

				goodQuery := distinctQuery(q)
				q++
				resp, err := s.Do(ctx, Request{Scenario: "test", Query: goodQuery, Tenant: "good"})
				if err != nil {
					t.Fatalf("round %d: compliant tenant rejected: %v", round, err)
				}
				if resp.Stale {
					t.Fatalf("round %d: compliant tenant served stale without pressure", round)
				}
				// Bit-identical to a direct evaluation outside the server.
				pq, err := sc.Parse("direct", goodQuery)
				if err != nil {
					t.Fatal(err)
				}
				want, err := evaluateFresh(ctx, sc, pq, 0, core.Options{Parallelism: parallelism})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("round %d", round), want, resp.Result)

				for f := 0; f < floodPerRound; f++ {
					_, err := s.Do(ctx, Request{Scenario: "test", Query: distinctQuery(q), Tenant: "hostile"})
					q++
					switch {
					case err == nil:
						hostileAdmitted++
					case errors.Is(err, ErrOverloaded):
						hostileRejected++
						if RetryAfter(err) <= 0 {
							t.Fatal("rate-limit rejection carried no Retry-After hint")
						}
					default:
						t.Fatalf("unexpected hostile error: %v", err)
					}
				}
			}

			// The flood sent 100 requests over 5s.  Its bucket-math ceiling is
			// burst (2) + share×time (5/s × 5s) = 27 admissions.
			if hostileAdmitted > 27 {
				t.Fatalf("hostile tenant admitted %d times, bucket math allows 27", hostileAdmitted)
			}
			if hostileRejected == 0 {
				t.Fatal("hostile flood was never rejected")
			}
			tm := s.Metrics().Tenants
			if got := tm["good"].ShedRateLimited; got != 0 {
				t.Fatalf("compliant tenant shed %d times, want 0", got)
			}
			if got := tm["hostile"].ShedRateLimited; got != int64(hostileRejected) {
				t.Fatalf("hostile shed counter = %d, want %d", got, hostileRejected)
			}
		})
	}
}

// TestStaleDegradation is the stale-serve correctness test: under rate
// pressure the server answers from the previous epoch — bit-identically to
// what that epoch served fresh — but only while the scenario has seen nothing
// except appends; fresh answers resume once pressure drops; Bump (a
// destructive change) makes degradation refuse.
func TestStaleDegradation(t *testing.T) {
	clk := qos.NewFakeClock()
	// One token per second, burst one: the second request in any one-second
	// window is shed, which is all the pressure the test needs.  Delta
	// maintenance is off: it would republish the answer at the new epoch
	// before the shed request arrives, leaving nothing stale to degrade to.
	s, sc := newTestServer(t, 200, Config{
		TenantRate:   1,
		DisableDelta: true,
		Faults:       &qos.Faults{Clock: clk},
	})
	ctx := context.Background()
	const queryText = fastQueryText

	// Epoch 0: served fresh, cached.
	fresh, err := s.Do(ctx, Request{Scenario: "test", Query: queryText})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stale || fresh.Epoch != 0 {
		t.Fatalf("first response: stale=%v epoch=%d", fresh.Stale, fresh.Epoch)
	}

	// Append-only change: epoch moves, stale floor does not.
	if err := sc.AppendRow("S", tuple("zz", 7, 7)); err != nil {
		t.Fatal(err)
	}

	// Same question at the new epoch with an empty bucket: degraded to the
	// epoch-0 answer, bit-identical to what was served fresh.
	stale, err := s.Do(ctx, Request{Scenario: "test", Query: queryText})
	if err != nil {
		t.Fatalf("expected stale degradation, got error: %v", err)
	}
	if !stale.Stale || stale.Epoch != 0 || !stale.Cached {
		t.Fatalf("degraded response: stale=%v epoch=%d cached=%v, want stale epoch-0 cache entry", stale.Stale, stale.Epoch, stale.Cached)
	}
	sameResult(t, "stale replay", fresh.Result, stale.Result)
	if got := s.Metrics().StaleServed; got != 1 {
		t.Fatalf("stale_served = %d, want 1", got)
	}
	if got := s.Cache().Metrics().StaleHits; got != 1 {
		t.Fatalf("cache stale_hits = %d, want 1", got)
	}

	// Pressure drops (a token accrues): fresh answers resume at the new epoch.
	clk.Advance(1100 * time.Millisecond)
	resumed, err := s.Do(ctx, Request{Scenario: "test", Query: queryText})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stale || resumed.Epoch != 1 {
		t.Fatalf("post-pressure response: stale=%v epoch=%d, want fresh epoch 1", resumed.Stale, resumed.Epoch)
	}

	// Destructive change: Bump raises the stale floor, so the epoch-1 entry
	// is no longer servable and the shed becomes an honest 429.
	sc.Bump()
	_, err = s.Do(ctx, Request{Scenario: "test", Query: queryText})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("post-Bump shed returned %v, want ErrOverloaded (stale refused)", err)
	}

	t.Run("disabled", func(t *testing.T) {
		clk := qos.NewFakeClock()
		s, sc := newTestServer(t, 200, Config{
			TenantRate:        1,
			DisableStaleServe: true,
			DisableDelta:      true,
			Faults:            &qos.Faults{Clock: clk},
		})
		if _, err := s.Do(ctx, Request{Scenario: "test", Query: queryText}); err != nil {
			t.Fatal(err)
		}
		if err := sc.AppendRow("S", tuple("zz", 7, 7)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Do(ctx, Request{Scenario: "test", Query: queryText}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("with stale serving disabled, got %v, want ErrOverloaded", err)
		}
	})
}

// TestDoomedDeadlineShed seeds the scenario's cold-latency tracker with long
// observations and asserts that a request whose deadline cannot cover the
// median is rejected before admission — and that a cached previous-epoch
// answer turns even that rejection into a stale response.
func TestDoomedDeadlineShed(t *testing.T) {
	// Delta maintenance is off, as in TestStaleDegradation.
	s, sc := newTestServer(t, 200, Config{DisableDelta: true})
	ctx := context.Background()

	// Prime the cache at epoch 0 before the tracker is poisoned.
	fresh, err := s.Do(ctx, Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}

	// Eight one-second observations: the median cold latency is now 1s.
	tracker := s.latencyFor("test")
	for i := 0; i < 8; i++ {
		tracker.Observe(time.Second)
	}

	// A 50ms deadline on an uncached question is doomed; no evaluation slot
	// should be burned on it.
	_, err = s.Do(ctx, Request{Scenario: "test", Query: distinctQuery(999), TimeoutMS: 50})
	if !errors.Is(err, ErrDeadlineTooShort) {
		t.Fatalf("doomed request returned %v, want ErrDeadlineTooShort", err)
	}
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusGatewayTimeout {
		t.Fatalf("doomed request status = %v, want 504", err)
	}
	m := s.Metrics()
	if m.ShedDoomedDeadline != 1 {
		t.Fatalf("shed_doomed_deadline = %d, want 1", m.ShedDoomedDeadline)
	}
	if m.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want 1 (the doomed request must not evaluate)", m.Evaluations)
	}

	// The same doomed deadline on the *cached* question, after an append,
	// degrades to the epoch-0 answer instead of erroring.
	if err := sc.AppendRow("S", tuple("zz", 7, 7)); err != nil {
		t.Fatal(err)
	}
	stale, err := s.Do(ctx, Request{Scenario: "test", Query: fastQueryText, TimeoutMS: 50})
	if err != nil {
		t.Fatalf("doomed request with stale answer available errored: %v", err)
	}
	if !stale.Stale || stale.Epoch != 0 {
		t.Fatalf("degraded doomed request: stale=%v epoch=%d", stale.Stale, stale.Epoch)
	}
	sameResult(t, "doomed stale replay", fresh.Result, stale.Result)
}

// TestMeasuredQueueWait pins the satellite fix: the queue wait reported by a
// response (and recorded in the histograms) is the wait actually measured on
// the clock, not an inferred or zero value.  A fault hook holds the only
// evaluation slot while the fake clock advances exactly 7ms under a second
// request.
func TestMeasuredQueueWait(t *testing.T) {
	clk := qos.NewFakeClock()
	stallEntered := make(chan struct{})
	stallRelease := make(chan struct{})
	first := true
	s, _ := newTestServer(t, 200, Config{
		MaxConcurrent: 1,
		QueueWait:     time.Hour,
		Faults: &qos.Faults{
			Clock: clk,
			SlotStall: func(string) {
				if first {
					first = false
					close(stallEntered)
					<-stallRelease
				}
			},
		},
	})
	ctx := context.Background()

	type outcome struct {
		resp *Response
		err  error
	}
	firstDone := make(chan outcome, 1)
	go func() {
		resp, err := s.Do(ctx, Request{Scenario: "test", Query: distinctQuery(0), Tenant: "a"})
		firstDone <- outcome{resp, err}
	}()
	<-stallEntered // the slot is now held

	secondDone := make(chan outcome, 1)
	go func() {
		resp, err := s.Do(ctx, Request{Scenario: "test", Query: distinctQuery(1), Tenant: "a"})
		secondDone <- outcome{resp, err}
	}()
	waitFor(t, "second request queued", func() bool { return s.queue.Depth() == 1 })

	clk.Advance(7 * time.Millisecond)
	close(stallRelease)

	if r := <-firstDone; r.err != nil {
		t.Fatal(r.err)
	} else if r.resp.QueueWaitMS != 0 {
		t.Fatalf("unqueued request reported wait %vms", r.resp.QueueWaitMS)
	}
	r := <-secondDone
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.resp.QueueWaitMS != 7 {
		t.Fatalf("queued request reported wait %vms, want exactly 7 (fake clock)", r.resp.QueueWaitMS)
	}

	m := s.Metrics()
	if m.QueueWait.Count != 2 {
		t.Fatalf("aggregate queue-wait histogram count = %d, want 2", m.QueueWait.Count)
	}
	if m.QueueWait.SumMS != 7 {
		t.Fatalf("aggregate queue-wait sum = %vms, want 7", m.QueueWait.SumMS)
	}
	if tm := m.Tenants["a"]; tm.QueueWait.Count != 2 || tm.QueueWait.SumMS != 7 {
		t.Fatalf("tenant histogram = %+v, want count 2 sum 7ms", tm.QueueWait)
	}
}

// TestQoSHTTPSurface exercises the HTTP contract: X-URM-Tenant routes QoS
// accounting, 429s carry Retry-After (header and precise body hint), and
// /metrics exposes the per-tenant counters.
func TestQoSHTTPSurface(t *testing.T) {
	clk := qos.NewFakeClock()
	s, _ := newTestServer(t, 200, Config{
		TenantRate: 1, // burst 1: the second uncached request is shed
		Faults:     &qos.Faults{Clock: clk},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(tenant, priority, query string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(Request{Scenario: "test", Query: query})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
		req.Header.Set("X-URM-Tenant", tenant)
		if priority != "" {
			req.Header.Set("X-URM-Priority", priority)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("alice", "interactive", distinctQuery(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = post("alice", "", distinctQuery(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carried no Retry-After header")
	}
	var errBody struct {
		RetryAfterMS float64 `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if errBody.RetryAfterMS <= 0 {
		t.Fatalf("429 body retry_after_ms = %v, want > 0", errBody.RetryAfterMS)
	}

	resp = post("alice", "bogus", distinctQuery(2))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus priority: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	alice := metrics.Tenants["alice"]
	if alice.Requests != 2 || alice.ShedRateLimited != 1 || alice.Evaluations != 1 {
		t.Fatalf("alice metrics = %+v, want 2 requests, 1 shed, 1 evaluation", alice)
	}
}

func TestAdmissionFor(t *testing.T) {
	s, _ := newTestServer(t, 10, Config{
		Tenants: map[string]TenantQoS{
			"gold":   {Weight: 3},
			"batchy": {Weight: 2, Priority: PriorityBatch},
		},
	})
	cases := []struct {
		req    Request
		tenant string
		weight float64
	}{
		{Request{}, "default", 4},                                         // anonymous, interactive default
		{Request{Tenant: "gold"}, "gold", 12},                             // 3 × interactive 4
		{Request{Tenant: "batchy"}, "batchy", 2},                          // 2 × batch 1 (tenant default)
		{Request{Tenant: "batchy", Priority: "interactive"}, "batchy", 8}, // explicit override
		{Request{Tenant: "nobody", Priority: "batch"}, "nobody", 1},       // unconfigured
	}
	for i, c := range cases {
		adm, err := s.admissionFor(c.req)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if adm.tenant != c.tenant || adm.weight != c.weight {
			t.Fatalf("case %d: got (%s, %v), want (%s, %v)", i, adm.tenant, adm.weight, c.tenant, c.weight)
		}
	}
	if _, err := s.admissionFor(Request{Priority: "turbo"}); err == nil {
		t.Fatal("unknown priority accepted")
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := s.admissionFor(Request{Tenant: string(long)}); err == nil {
		t.Fatal("overlong tenant name accepted")
	}
}

func TestParseTenantSpec(t *testing.T) {
	got, err := ParseTenantSpec("gold", "4/interactive")
	if err != nil || got.Weight != 4 || got.Priority != PriorityInteractive {
		t.Fatalf("got %+v err=%v", got, err)
	}
	got, err = ParseTenantSpec("b", "0.5")
	if err != nil || got.Weight != 0.5 || got.Priority != "" {
		t.Fatalf("got %+v err=%v", got, err)
	}
	for _, bad := range []string{"", "x", "-1", "0", "2/turbo"} {
		if _, err := ParseTenantSpec("t", bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
