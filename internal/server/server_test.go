package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/qos"
)

// directEvaluate is the reference the served answers must be bit-identical
// to: a plain library evaluation of the same query over the same scenario.
func directEvaluate(t *testing.T, sc *Scenario, text string, method core.Method) *core.Result {
	t.Helper()
	q, err := sc.Parse("ref", text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluateFresh(context.Background(), sc, q, 0, core.Options{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestServedAnswersBitIdenticalToDirectEvaluate(t *testing.T) {
	srv, sc := newTestServer(t, 400, Config{})
	for _, method := range []string{"basic", "e-basic", "e-mqo", "q-sharing", "o-sharing"} {
		m, err := core.ParseMethod(method)
		if err != nil {
			t.Fatal(err)
		}
		want := directEvaluate(t, sc, fastQueryText, m)
		resp, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: method})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		sameResult(t, method, want, resp.Result)
		if resp.Cached {
			t.Errorf("%s: first request reported cached", method)
		}
	}
}

func TestSecondRequestServedFromCache(t *testing.T) {
	srv, sc := newTestServer(t, 400, Config{})
	want := directEvaluate(t, sc, fastQueryText, core.MethodOSharing)
	first, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}
	second, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	sameResult(t, "cached", want, second.Result)
	if n := srv.Metrics().Evaluations; n != 1 {
		t.Fatalf("evaluations = %d, want 1", n)
	}
	// The canonical fingerprint, not the raw text, keys the cache: a
	// differently spelled but identically parsed query must hit too.
	respaced, err := srv.Do(context.Background(), Request{Scenario: "test", Query: "SELECT  a  FROM  T  WHERE  b  =  7"})
	if err != nil {
		t.Fatal(err)
	}
	if !respaced.Cached {
		t.Error("respaced query missed the cache despite equal canonical form")
	}
}

// TestSingleflightConcurrentIdenticalRequests is the acceptance criterion: 8
// concurrent identical requests cost exactly one evaluation and return
// bit-identical answers.
func TestSingleflightConcurrentIdenticalRequests(t *testing.T) {
	srv, sc := newTestServer(t, 700, Config{MaxConcurrent: 4})
	want := directEvaluate(t, sc, slowQueryText, core.MethodOSharing)

	const clients = 8
	start := make(chan struct{})
	responses := make([]*Response, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			responses[i], errs[i] = srv.Do(context.Background(), Request{Scenario: "test", Query: slowQueryText})
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		sameResult(t, fmt.Sprintf("client %d", i), want, responses[i].Result)
	}
	m := srv.Metrics()
	if m.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want exactly 1 for %d concurrent identical requests", m.Evaluations, clients)
	}
	if m.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", m.Cache.Misses)
	}
	if got := m.Cache.Hits + m.Cache.Coalesced; got != clients-1 {
		t.Fatalf("hits+coalesced = %d, want %d", got, clients-1)
	}
}

func TestEpochInvalidationAfterAppend(t *testing.T) {
	// Delta maintenance is off: it would republish the answer at the new
	// epoch before the post-append request could miss.
	srv, sc := newTestServer(t, 100, Config{DisableDelta: true})
	before, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}
	// Append a row visible to the query under both mappings (y = z = 7) with
	// a fresh answer value.
	if err := sc.AppendRow("S", tuple("fresh", 7, 7)); err != nil {
		t.Fatal(err)
	}
	after, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached || after.Coalesced {
		t.Fatal("post-append request was served from cache; epoch bump failed to invalidate")
	}
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("epoch = %d, want %d", after.Epoch, before.Epoch+1)
	}
	if !hasAnswerValue(after, "fresh") {
		t.Fatal("appended row missing from post-append answers")
	}
	if hasAnswerValue(before, "fresh") {
		t.Fatal("appended row visible in pre-append answers")
	}
	// The new epoch's entry caches normally.
	again, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("second post-append request missed the cache")
	}
	sameResult(t, "post-append", directEvaluate(t, sc, fastQueryText, core.MethodOSharing), again.Result)

	// AppendRow validates the relation and arity.
	if err := sc.AppendRow("nosuch", tuple("x", 1, 1)); err == nil {
		t.Error("AppendRow accepted an unknown relation")
	}
	if err := sc.AppendRow("S", tuple("x", 1, 1)[:2]); err == nil {
		t.Error("AppendRow accepted a wrong-arity tuple")
	}
}

// TestAppendDuringConcurrentQueries races mutation against evaluation: under
// -race this proves AppendRow's writer lock excludes in-flight evaluations,
// so a request never scans a relation mid-append.
func TestAppendDuringConcurrentQueries(t *testing.T) {
	srv, sc := newTestServer(t, 300, Config{MaxConcurrent: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Vary the method so requests miss the cache and evaluate.
				method := []string{"basic", "e-basic", "q-sharing", "o-sharing"}[(c+i)%4]
				if _, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: method}); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	for i := 0; i < 50; i++ {
		if err := sc.AppendRow("S", tuple(fmt.Sprintf("new%02d", i), 7, 7)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	// After the dust settles, a fresh request must see every appended row.
	resp, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}
	if !hasAnswerValue(resp, "new49") {
		t.Error("final append not visible to post-mutation query")
	}
	if got := sc.Epoch(); got != 50 {
		t.Errorf("epoch = %d, want 50", got)
	}
}

// TestDeadlineAbort: a 1ms deadline must abort the self-product evaluation
// mid-stream with context.DeadlineExceeded.  e-basic builds the product's
// pairs (tens of milliseconds on this fixture); o-sharing keeps the product
// factorized and can answer within the millisecond.
func TestDeadlineAbort(t *testing.T) {
	srv, _ := newTestServer(t, 1000, Config{})
	_, err := srv.Do(context.Background(), Request{Scenario: "test", Query: slowQueryText, Method: "e-basic", TimeoutMS: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	m := srv.Metrics()
	if m.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", m.Timeouts)
	}
	if m.EvalErrors != 1 {
		t.Errorf("eval errors = %d, want 1", m.EvalErrors)
	}
	// The failed evaluation must not be cached: a retry with a generous
	// deadline succeeds.
	resp, err := srv.Do(context.Background(), Request{Scenario: "test", Query: slowQueryText, Method: "e-basic"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("retry after deadline abort was served from cache")
	}
}

// TestOverloadRejects: with one evaluation slot held and no queue wait, a
// second distinct request is rejected with ErrOverloaded (HTTP 429).
func TestOverloadRejects(t *testing.T) {
	held, release := holdFirstSlot()
	srv, _ := newTestServer(t, 1000, Config{MaxConcurrent: 1, QueueWait: 0, Faults: held})
	slowDone := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), Request{Scenario: "test", Query: slowQueryText})
		slowDone <- err
	}()
	<-release.entered

	_, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if m := srv.Metrics(); m.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", m.Rejected)
	}
	close(release.done)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow request failed: %v", err)
	}
	// With the slot free again the same request is admitted.
	if _, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText}); err != nil {
		t.Fatalf("post-overload request failed: %v", err)
	}
}

// TestDrain: draining refuses new requests, waits for in-flight ones, and is
// bounded by the caller's context.
func TestDrain(t *testing.T) {
	held, release := holdFirstSlot()
	srv, _ := newTestServer(t, 1000, Config{MaxConcurrent: 2, Faults: held})
	slowDone := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), Request{Scenario: "test", Query: slowQueryText})
		slowDone <- err
	}()
	<-release.entered
	if n := srv.Metrics().Inflight; n != 1 {
		t.Fatalf("inflight = %d with one request holding its slot, want 1", n)
	}

	// A drain bounded too tightly reports the in-flight request.
	shortCtx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	err := srv.Drain(shortCtx)
	cancel()
	if err == nil && srv.Metrics().Inflight > 0 {
		t.Fatal("Drain returned nil with a request still in flight")
	}

	// New work is refused as soon as draining starts.
	if _, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	if m := srv.Metrics(); !m.Draining || m.Unavailable != 1 {
		t.Errorf("draining = %v, unavailable = %d; want true, 1", m.Draining, m.Unavailable)
	}

	// A patient drain completes once the in-flight request finishes.
	close(release.done)
	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
}

func TestTopKRequests(t *testing.T) {
	srv, sc := newTestServer(t, 400, Config{})
	q, err := sc.Parse("ref", fastQueryText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := evaluateFresh(context.Background(), sc, q, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "topk", want, resp.Result)
	// Top-k and full evaluation must not share cache entries.
	full, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText})
	if err != nil {
		t.Fatal(err)
	}
	if full.Cached {
		t.Fatal("full evaluation hit the top-k cache entry")
	}
}

func TestRequestValidation(t *testing.T) {
	srv, _ := newTestServer(t, 50, Config{})
	cases := []struct {
		name string
		req  Request
		want int
	}{
		{"missing scenario", Request{Query: fastQueryText}, http.StatusBadRequest},
		{"unknown scenario", Request{Scenario: "nope", Query: fastQueryText}, http.StatusNotFound},
		{"missing query", Request{Scenario: "test"}, http.StatusBadRequest},
		{"bad sql", Request{Scenario: "test", Query: "SELEC a FROM T"}, http.StatusBadRequest},
		{"bad method", Request{Scenario: "test", Query: fastQueryText, Method: "psychic"}, http.StatusBadRequest},
		{"bad strategy", Request{Scenario: "test", Query: fastQueryText, Strategy: "vibes"}, http.StatusBadRequest},
		{"negative topk", Request{Scenario: "test", Query: fastQueryText, TopK: -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, err := srv.Do(context.Background(), tc.req)
		var ae *apiError
		if !errors.As(err, &ae) || ae.status != tc.want {
			t.Errorf("%s: err = %v, want apiError status %d", tc.name, err, tc.want)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, 400, Config{})
	body := `{"scenario": "test", "query": "` + fastQueryText + `"}`

	first := doHTTP(t, srv, http.MethodPost, "/v1/query", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first query: status %d: %s", first.Code, first.Body)
	}
	var firstResp Response
	mustDecode(t, first.Body.Bytes(), &firstResp)
	if firstResp.Cached || len(firstResp.Answers) == 0 || firstResp.Query == "" {
		t.Fatalf("first response: %+v", firstResp)
	}

	second := doHTTP(t, srv, http.MethodPost, "/v1/query", body)
	var secondResp Response
	mustDecode(t, second.Body.Bytes(), &secondResp)
	if !secondResp.Cached {
		t.Fatal("second identical request was not served from cache")
	}

	scenarios := doHTTP(t, srv, http.MethodGet, "/v1/scenarios", "")
	var listed struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}
	mustDecode(t, scenarios.Body.Bytes(), &listed)
	if scenarios.Code != http.StatusOK || len(listed.Scenarios) != 1 || listed.Scenarios[0].Name != "test" {
		t.Fatalf("scenarios: %d %s", scenarios.Code, scenarios.Body)
	}
	if listed.Scenarios[0].WarmIndexBuilds != 3 {
		t.Errorf("scenarios missing warm index builds: %s", scenarios.Body)
	}

	health := doHTTP(t, srv, http.MethodGet, "/healthz", "")
	if health.Code != http.StatusOK {
		t.Fatalf("healthz: %d", health.Code)
	}

	metrics := doHTTP(t, srv, http.MethodGet, "/metrics", "")
	var m Metrics
	mustDecode(t, metrics.Body.Bytes(), &m)
	if m.Requests != 2 || m.Evaluations != 1 || m.Cache.Hits != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.IndexLookups == 0 {
		t.Error("metrics: no index lookups recorded for an indexable query")
	}

	if rec := doHTTP(t, srv, http.MethodGet, "/v1/query", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: %d, want 405", rec.Code)
	}
	if rec := doHTTP(t, srv, http.MethodPost, "/v1/query", `{"scenario": "test"`); rec.Code != http.StatusBadRequest {
		t.Errorf("truncated body: %d, want 400", rec.Code)
	}
	if rec := doHTTP(t, srv, http.MethodPost, "/v1/query", `{"scenario": "nope", "query": "SELECT a FROM T"}`); rec.Code != http.StatusNotFound {
		t.Errorf("unknown scenario: %d, want 404", rec.Code)
	}
	if rec := doHTTP(t, srv, http.MethodGet, "/nope", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown route: %d, want 404", rec.Code)
	}
}

func TestHTTPDeadlineMapsTo504(t *testing.T) {
	srv, _ := newTestServer(t, 1000, Config{})
	rec := doHTTP(t, srv, http.MethodPost, "/v1/query",
		`{"scenario": "test", "query": "`+slowQueryText+`", "method": "e-basic", "timeout_ms": 1}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body)
	}
}

func TestHTTPHealthzDuringDrain(t *testing.T) {
	srv, _ := newTestServer(t, 50, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := doHTTP(t, srv, http.MethodGet, "/healthz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", rec.Code)
	}
	if rec := doHTTP(t, srv, http.MethodPost, "/v1/query",
		`{"scenario": "test", "query": "`+fastQueryText+`"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %d, want 503", rec.Code)
	}
}

func doHTTP(t *testing.T, srv http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func mustDecode(t *testing.T, data []byte, into any) {
	t.Helper()
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
}

func hasAnswerValue(resp *Response, value string) bool {
	for _, a := range resp.Result.Answers {
		for _, v := range a.Tuple {
			if v.Str == value {
				return true
			}
		}
	}
	return false
}

// slotHold is the handshake of holdFirstSlot: entered closes once the first
// evaluation holds its slot, and closing done lets it go on.
type slotHold struct {
	entered, done chan struct{}
}

// holdFirstSlot returns faults whose SlotStall keeps the first evaluation to
// take a slot inside it until the test closes done, so a test holds the slot
// (and the request's in-flight count) for as long as it needs instead of
// racing a query's evaluation time.
func holdFirstSlot() (*qos.Faults, slotHold) {
	h := slotHold{entered: make(chan struct{}), done: make(chan struct{})}
	var taken atomic.Bool
	return &qos.Faults{SlotStall: func(string) {
		if taken.CompareAndSwap(false, true) {
			close(h.entered)
			<-h.done
		}
	}}, h
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
