package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/probdb/urm/internal/query"
)

// TestCoordinatorRelaysRequestErrors: a shard's 400 or 404 is the request's
// fault, not the shard's — every node would answer it alike — so the
// coordinator relays the status, neither retrying it nor counting it as an
// upstream error, and a blank query never fans out at all.
func TestCoordinatorRelaysRequestErrors(t *testing.T) {
	cl := newCluster(t, 60, 2, CoordinatorConfig{})
	scatters := func() (n int64) {
		for _, node := range cl.nodes {
			n += node.Config.Handler.(*Server).Metrics().Scatters
		}
		return n
	}

	_, err := cl.coord.Query(context.Background(), Request{Scenario: "nope", Query: fastQueryText, Method: "e-basic"})
	if !errors.Is(err, ErrUnknownScenario) {
		t.Fatalf("unknown scenario: %v, want ErrUnknownScenario", err)
	}
	if n := strings.Count(err.Error(), ErrUnknownScenario.Error()); n != 1 {
		t.Fatalf("%q says %q %d times", err, ErrUnknownScenario, n)
	}
	before := scatters()
	for _, c := range []struct {
		name string
		req  Request
		want int
	}{
		{"unknown scenario", Request{Scenario: "nope", Query: fastQueryText, Method: "e-basic"}, http.StatusNotFound},
		{"unknown relation", Request{Scenario: "test", Query: "SELECT nosuch FROM nothing", Method: "e-basic"}, http.StatusBadRequest},
		{"blank query", Request{Scenario: "test", Query: "   ", Method: "e-basic"}, http.StatusBadRequest},
	} {
		status, body := cl.postQuery(t, c.req)
		if status != c.want {
			t.Fatalf("%s: status %d (%v), want %d", c.name, status, body["error"], c.want)
		}
	}
	if got := scatters() - before; got != 2*2 {
		t.Fatalf("the three requests reached the nodes %d times, want 4: a blank query never fans out", got)
	}
	if _, err := cl.coord.Query(context.Background(), Request{Scenario: "test", Query: ""}); !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("blank query: %v, want ErrBadQuery", err)
	}
	if got := cl.coord.Metrics().UpstreamErrors; got != 0 {
		t.Fatalf("upstream_errors = %d, want 0", got)
	}

	// The strategy is read by the same prologue: a bad one is 400 before any
	// fan-out, a good one is forwarded and echoed.
	before = scatters()
	if status, body := cl.postQuery(t, Request{Scenario: "test", Query: fastQueryText, Method: "e-basic", Strategy: "bogus"}); status != http.StatusBadRequest {
		t.Fatalf("bad strategy: status %d (%v), want 400", status, body["error"])
	}
	if got := scatters() - before; got != 0 {
		t.Fatalf("a bad strategy reached the nodes %d times, want 0", got)
	}
	resp, err := cl.coord.Query(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: "o-sharing", Strategy: "snf"})
	if err != nil {
		t.Fatalf("o-sharing under snf: %v", err)
	}
	if resp.Strategy != "SNF" {
		t.Fatalf("strategy %q echoed, want SNF", resp.Strategy)
	}
}

// TestPostRoutesRefuseOtherMethods: every POST route, on a node and on the
// coordinator, answers another method 405 before it reads a body, and a
// malformed body 400.
func TestPostRoutesRefuseOtherMethods(t *testing.T) {
	node, _ := newTestServer(t, 20, Config{})
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		handler http.Handler
		routes  []string
	}{
		{node, []string{"/v1/query", "/v1/scatter", "/v1/append", "/v1/bump"}},
		{coord, []string{"/v1/query", "/v1/lease"}},
	} {
		for _, route := range h.routes {
			rec := httptest.NewRecorder()
			h.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route, nil))
			if rec.Code != http.StatusMethodNotAllowed || !strings.Contains(rec.Body.String(), "POST required") {
				t.Errorf("GET %s: %d %s, want 405 POST required", route, rec.Code, rec.Body)
			}
			rec = httptest.NewRecorder()
			h.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(`{"scenario":`)))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid request body") {
				t.Errorf("POST %s with a malformed body: %d %s, want 400", route, rec.Code, rec.Body)
			}
		}
	}
}

// TestPostRoutesRefuseTrailingData: a POST body is one JSON value and nothing
// after it but white space.  json.Decoder reads only the first value, so
// without the end-of-input check a valid body followed by garbage or by a
// second value would be served as if the tail were not there.
func TestPostRoutesRefuseTrailingData(t *testing.T) {
	node, _ := newTestServer(t, 20, Config{})
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		handler http.Handler
		routes  []string
	}{
		{node, []string{"/v1/query", "/v1/scatter", "/v1/append", "/v1/bump"}},
		{coord, []string{"/v1/query", "/v1/lease"}},
	} {
		for _, route := range h.routes {
			for _, body := range []string{
				`{"scenario":"test","query":"SELECT COUNT(*) FROM PO"} garbage`,
				`{"scenario":"test"}{"scenario":"test"}`,
				`{} 1`,
			} {
				rec := httptest.NewRecorder()
				h.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid request body") {
					t.Errorf("POST %s %q: %d %s, want 400 invalid request body", route, body, rec.Code, rec.Body)
				}
			}
			rec := httptest.NewRecorder()
			h.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader("{}\n\t ")))
			if strings.Contains(rec.Body.String(), "invalid request body") {
				t.Errorf("POST %s with trailing white space: %d %s, want the body accepted", route, rec.Code, rec.Body)
			}
		}
	}
}

// TestScatterRefusesBlankQuery: /v1/scatter answers a blank query as
// /v1/query does, 400 "missing query" under ErrBadQuery, before the parser
// sees it.
func TestScatterRefusesBlankQuery(t *testing.T) {
	node := newShardNode(t, 60, 0, 2)
	_, err := node.Scatter(context.Background(), ScatterRequest{Scenario: "test", Query: "   ", Method: "e-basic"})
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusBadRequest || !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("blank scatter: %v, want 400 under ErrBadQuery", err)
	}
	if !strings.HasSuffix(err.Error(), "missing query") {
		t.Fatalf("blank scatter: %q, want missing query", err)
	}
	if n := node.Metrics().PreparedBuilds; n != 0 {
		t.Fatalf("a blank query was prepared %d times", n)
	}
}
