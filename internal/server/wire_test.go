package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/qos"
)

// oneSizedLine asserts the wire contract every route keeps: the body is one
// compact JSON line ending in a newline, and the response declares its
// length.
func oneSizedLine(t *testing.T, label string, rec *httptest.ResponseRecorder) {
	t.Helper()
	body := rec.Body.Bytes()
	if len(body) == 0 || body[len(body)-1] != '\n' || bytes.Count(body, []byte("\n")) != 1 {
		t.Errorf("%s (%d): body is not one line: %q", label, rec.Code, body)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("%s (%d): Content-Length %q for a %d-byte body", label, rec.Code, got, len(body))
	}
	if !json.Valid(body) {
		t.Errorf("%s (%d): body is not JSON: %q", label, rec.Code, body)
	}
}

// TestWireContract: every route of a node and of a coordinator — successes,
// refusals and errors alike — answers through the one writer.
func TestWireContract(t *testing.T) {
	srv, _ := newTestServer(t, 400, Config{})
	query := `{"scenario":"test","query":"` + fastQueryText + `"}`
	routes := []struct {
		label, method, path, body string
		want                      int
	}{
		{"query miss", http.MethodPost, "/v1/query", query, http.StatusOK},
		{"query hit", http.MethodPost, "/v1/query", query, http.StatusOK},
		{"query top-k", http.MethodPost, "/v1/query", `{"scenario":"test","query":"` + fastQueryText + `","topk":2}`, http.StatusOK},
		{"query bad body", http.MethodPost, "/v1/query", `{"scenario":`, http.StatusBadRequest},
		{"query unknown scenario", http.MethodPost, "/v1/query", `{"scenario":"nope","query":"SELECT a FROM T"}`, http.StatusNotFound},
		{"query GET", http.MethodGet, "/v1/query", "", http.StatusMethodNotAllowed},
		{"scatter", http.MethodPost, "/v1/scatter", query, http.StatusOK},
		{"append", http.MethodPost, "/v1/append", `{"scenario":"test","relation":"S","values":["w",1,2]}`, http.StatusOK},
		{"append bad relation", http.MethodPost, "/v1/append", `{"scenario":"test","relation":"nope","values":["w",1,2]}`, http.StatusBadRequest},
		{"bump", http.MethodPost, "/v1/bump", `{"scenario":"test"}`, http.StatusOK},
		{"scenarios", http.MethodGet, "/v1/scenarios", "", http.StatusOK},
		{"healthz", http.MethodGet, "/healthz", "", http.StatusOK},
		{"metrics", http.MethodGet, "/metrics", "", http.StatusOK},
		{"metrics HEAD", http.MethodHead, "/metrics", "", http.StatusOK},
		{"scenarios POST", http.MethodPost, "/v1/scenarios", "", http.StatusMethodNotAllowed},
		{"healthz DELETE", http.MethodDelete, "/healthz", "", http.StatusMethodNotAllowed},
		{"metrics POST", http.MethodPost, "/metrics", "", http.StatusMethodNotAllowed},
		{"no route", http.MethodGet, "/nope", "", http.StatusNotFound},
	}
	for _, r := range routes {
		rec := doHTTP(t, srv, r.method, r.path, r.body)
		if rec.Code != r.want {
			t.Fatalf("%s: status %d, want %d: %s", r.label, rec.Code, r.want, rec.Body)
		}
		oneSizedLine(t, r.label, rec)
	}

	// 429: the tenant's single token goes to the first evaluation.
	shed, _ := newTestServer(t, 50, Config{TenantRate: 1e-3, TenantBurst: 1, DisableStaleServe: true})
	doHTTP(t, shed, http.MethodPost, "/v1/query", query)
	rec := doHTTP(t, shed, http.MethodPost, "/v1/query", `{"scenario":"test","query":"SELECT a, b FROM T"}`)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("shed request: %d %v %s, want 429 with Retry-After", rec.Code, rec.Header(), rec.Body)
	}
	oneSizedLine(t, "429", rec)

	cl := newCluster(t, 60, 2, CoordinatorConfig{})
	for _, r := range []struct {
		label, method, path, body string
		want                      int
	}{
		{"coordinator query", http.MethodPost, "/v1/query", query, http.StatusOK},
		{"coordinator top-k", http.MethodPost, "/v1/query", `{"scenario":"test","query":"` + fastQueryText + `","topk":2}`, http.StatusOK},
		{"coordinator lease", http.MethodPost, "/v1/lease", `{"node":"node-a","addr":"` + cl.nodes[0].URL + `","shards":[0]}`, http.StatusOK},
		{"coordinator scenarios", http.MethodGet, "/v1/scenarios", "", http.StatusOK},
		{"coordinator healthz", http.MethodGet, "/healthz", "", http.StatusOK},
		{"coordinator metrics", http.MethodGet, "/metrics", "", http.StatusOK},
		{"coordinator scenarios POST", http.MethodPost, "/v1/scenarios", "", http.StatusMethodNotAllowed},
		{"coordinator healthz DELETE", http.MethodDelete, "/healthz", "", http.StatusMethodNotAllowed},
		{"coordinator metrics POST", http.MethodPost, "/metrics", "", http.StatusMethodNotAllowed},
	} {
		rec := doHTTP(t, cl.coord, r.method, r.path, r.body)
		if rec.Code != r.want {
			t.Fatalf("%s: status %d, want %d: %s", r.label, rec.Code, r.want, rec.Body)
		}
		oneSizedLine(t, r.label, rec)
	}
	// Over a real connection the length is declared, not chunked.
	resp, err := http.Post(cl.http.URL+"/v1/query", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(body.Len()) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("coordinator over HTTP: Content-Length %d, transfer encoding %v, for a %d-byte body", resp.ContentLength, resp.TransferEncoding, body.Len())
	}
}

// wireAnswers is the part of a /v1/query body the bit-identity check reads,
// with numbers kept as their JSON text.
type wireAnswers struct {
	Columns []string `json:"columns"`
	Answers []struct {
		Values []any   `json:"values"`
		Prob   float64 `json:"prob"`
	} `json:"answers"`
	EmptyProb float64 `json:"empty_prob"`
	Cached    bool    `json:"cached"`
}

// sameWireResult asserts a decoded /v1/query body carries want's answers bit
// for bit, in order.
func sameWireResult(t *testing.T, label string, want *core.Result, body []byte) wireAnswers {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var got wireAnswers
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: decode %s: %v", label, body, err)
	}
	if len(got.Answers) != len(want.Answers) || len(want.Answers) == 0 {
		t.Fatalf("%s: %d answers on the wire, library has %d", label, len(got.Answers), len(want.Answers))
	}
	if math.Float64bits(got.EmptyProb) != math.Float64bits(want.EmptyProb) {
		t.Fatalf("%s: empty_prob %v, library %v", label, got.EmptyProb, want.EmptyProb)
	}
	if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
		t.Fatalf("%s: columns %v, library %v", label, got.Columns, want.Columns)
	}
	for i, a := range want.Answers {
		g := got.Answers[i]
		if math.Float64bits(g.Prob) != math.Float64bits(a.Prob) || len(g.Values) != len(a.Tuple) {
			t.Fatalf("%s: answer %d = %v@%v, library %v@%v", label, i, g.Values, g.Prob, a.Tuple, a.Prob)
		}
		for j, v := range a.Tuple {
			num, _ := g.Values[j].(json.Number)
			var same bool
			switch v.Kind {
			case engine.KindString:
				same = g.Values[j] == v.Str
			case engine.KindInt:
				same = string(num) == strconv.FormatInt(v.Int, 10)
			case engine.KindFloat:
				f, err := num.Float64()
				same = err == nil && math.Float64bits(f) == math.Float64bits(v.Float)
			default:
				same = g.Values[j] == nil
			}
			if !same {
				t.Fatalf("%s: answer %d value %d = %q, library %v", label, i, j, g.Values[j], v)
			}
		}
	}
	return got
}

// TestWireAnswersBitIdentical: what /v1/query puts on the wire decodes to the
// library's answers bit for bit, for every method and top-k, on the miss and
// on the hit that replays it.
func TestWireAnswersBitIdentical(t *testing.T) {
	srv, sc := newTestServer(t, 400, Config{})
	for _, q := range []string{fastQueryText, "SELECT a, b FROM T"} {
		for _, method := range []core.Method{core.MethodBasic, core.MethodEBasic, core.MethodEMQO, core.MethodQSharing, core.MethodOSharing} {
			for _, topK := range []int{0, 2} {
				parsed, err := sc.Parse("ref", q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := evaluateFresh(context.Background(), sc, parsed, topK, core.Options{Method: method})
				if err != nil {
					t.Fatal(err)
				}
				body, _ := json.Marshal(Request{Scenario: "test", Query: q, Method: method.String(), TopK: topK})
				for _, cached := range []bool{false, true} {
					label := fmt.Sprintf("%s top-%d %q cached=%v", method, topK, q, cached)
					rec := doHTTP(t, srv, http.MethodPost, "/v1/query", string(body))
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: status %d: %s", label, rec.Code, rec.Body)
					}
					if got := sameWireResult(t, label, want, rec.Body.Bytes()); got.Cached != cached {
						t.Fatalf("%s: served cached=%v", label, got.Cached)
					}
				}
			}
		}
	}
}

// maxFloatFixture holds three rows whose b is the largest float64 under both
// mappings, so SUM(b) overflows to +Inf — a value JSON cannot carry.
var maxFloatFixture = testFixture{serveTargetSchema, func(int) *engine.Instance {
	db := engine.NewInstance("D")
	rel := engine.NewRelation("S", []string{"x", "y", "z"})
	for i := 0; i < 3; i++ {
		rel.MustAppend(engine.Tuple{engine.S("k"), engine.F(math.MaxFloat64), engine.F(math.MaxFloat64)})
	}
	db.AddRelation(rel)
	return db
}, serveMappings}

// TestUnencodableAnswerIs500: an answer holding +Inf is a 500 whose JSON body
// names the value, on a node and through a coordinator — not a 200 with an
// empty body.
func TestUnencodableAnswerIs500(t *testing.T) {
	srv, _ := newTestServerOn(t, maxFloatFixture, 3, Config{})
	rec := doHTTP(t, srv, http.MethodPost, "/v1/query", `{"scenario":"test","query":"SELECT SUM(b) FROM T"}`)
	unencodable(t, "node", rec)

	// Shards cannot ship an infinite value either, so the coordinator's comes
	// from masses only its merge adds up: every group of both shards claims
	// the largest float64.
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Retry: qos.Backoff{Attempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		h := alteredShard(newShardNode(t, 60, i, 2), func(r *ScatterResponse) {
			for gi := range r.Groups {
				r.Groups[gi].Prob = math.MaxFloat64
			}
		})
		node := httptest.NewServer(h)
		defer node.Close()
		if err := coord.Leases().Heartbeat(nodeNameFor(i), node.URL, []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	req := `{"scenario":"test","query":"` + fastQueryText + `","method":"e-basic"}`
	unencodable(t, "coordinator", doHTTP(t, coord, http.MethodPost, "/v1/query", req))
}

func unencodable(t *testing.T, label string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("%s: status %d, want 500: %q", label, rec.Code, rec.Body)
	}
	oneSizedLine(t, label, rec)
	var body struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	mustDecode(t, rec.Body.Bytes(), &body)
	if body.Status != http.StatusInternalServerError || !strings.Contains(body.Error, "unsupported value: +Inf") {
		t.Fatalf("%s: error body %+v does not name the value", label, body)
	}
}

// TestHitRebuildsNothing: a cached answer's wire answers are built once and
// shared by every hit, a republished answer builds its own, and a hit's
// allocations do not grow with the number of answers it serves.
func TestHitRebuildsNothing(t *testing.T) {
	ctx := context.Background()
	srv, sc := newTestServer(t, 400, Config{})
	req := Request{Scenario: "test", Query: fastQueryText}
	miss, err := srv.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var hits [2]*Response
	for i := range hits {
		if hits[i], err = srv.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
		if !hits[i].Cached || &hits[i].Answers[0] != &miss.Answers[0] {
			t.Fatalf("hit %d (cached=%v) rebuilt the answers its miss built", i, hits[i].Cached)
		}
	}

	if err := sc.AppendRow("S", tuple("fresh", 7, 7)); err != nil {
		t.Fatal(err)
	}
	srv.ConvergeDelta("test")
	republished, err := srv.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !republished.Cached || republished.Epoch != sc.Epoch() {
		t.Fatalf("after convergence: cached=%v epoch %d, want a maintained hit at %d", republished.Cached, republished.Epoch, sc.Epoch())
	}
	if &republished.Answers[0] == &miss.Answers[0] {
		t.Fatal("the republished answer reuses the previous epoch's wire answers")
	}
	wire, _ := json.Marshal(republished)
	sameWireResult(t, "republished", republished.Result, wire)
	if !hasAnswerValue(republished, "fresh") {
		t.Fatal("appended row missing from the republished answer")
	}

	// SELECT a, b FROM T answers 1 tuple over one row and 63 over forty.
	allocs := func(rows int) (float64, int) {
		srv, _ := newTestServer(t, rows, Config{})
		req := Request{Scenario: "test", Query: "SELECT a, b FROM T"}
		resp, err := srv.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if resp, err := srv.Do(ctx, req); err != nil || !resp.Cached {
				t.Fatalf("primed request: cached=%v err %v", resp != nil && resp.Cached, err)
			}
		}), len(resp.Answers)
	}
	one, n1 := allocs(1)
	many, n := allocs(40)
	if n1 != 1 || n < 60 {
		t.Fatalf("fixture answers %d and %d tuples, want 1 and about 60", n1, n)
	}
	if many > one {
		t.Fatalf("a hit serving %d answers allocates %.0f times, one serving 1 answer %.0f", n, many, one)
	}
}
