package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/qos"
)

// scatterMethods are the methods a shard node can scatter.
var scatterMethods = []core.Method{core.MethodBasic, core.MethodEBasic, core.MethodEMQO, core.MethodQSharing}

// postScatter sends one scatter request over HTTP and returns the raw body
// with the run its packed rows unpack to.
func postScatter(t *testing.T, url, query string, method core.Method) ([]byte, *http.Response, *core.ShardRun) {
	t.Helper()
	body, _ := json.Marshal(ScatterRequest{Scenario: "test", Query: query, Method: method.String()})
	resp, err := http.Post(url+"/v1/scatter", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scatter %s %q = %d: %s", method, query, resp.StatusCode, data)
	}
	var sr ScatterResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	run, err := unpackRun(&sr)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp, run
}

// naiveGroupRows runs every group plan of the node's scatter plan through the
// naive executor on the node's own slice and returns, per group, the
// first-seen distinct rows — by pairwise EqualKey, not by the kernel under
// test.
func naiveGroupRows(t *testing.T, node *Server, query string, method core.Method) [][]engine.Tuple {
	t.Helper()
	sc, ok := node.registry.Get("test")
	if !ok {
		t.Fatal("no test scenario")
	}
	prep, _, _, err := sc.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	ec := exec.Sequential()
	sp, _, err := prep.FrontHalf(ec, core.Options{Method: method, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]engine.Tuple, len(sp.Groups))
	for gi, g := range sp.Groups {
		if g.Plan == nil {
			continue
		}
		rel, err := engine.NaiveExecute(ec.Ctx(), sc.DB(), g.Plan, engine.NewStats())
		if err != nil {
			t.Fatal(err)
		}
	rows:
		for _, row := range rel.Rows {
			for _, kept := range out[gi] {
				if kept.EqualKey(row) {
					continue rows
				}
			}
			out[gi] = append(out[gi], row)
		}
	}
	return out
}

// sameWireRows asserts a response's groups carry exactly the wanted rows, in
// order.
func sameWireRows(t *testing.T, label string, want [][]engine.Tuple, got *core.ShardRun) {
	t.Helper()
	if len(got.Groups) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want))
	}
	for gi, g := range got.Groups {
		if len(g.Rows) != len(want[gi]) {
			t.Fatalf("%s group %d: %d rows on the wire, want the %d distinct", label, gi, len(g.Rows), len(want[gi]))
		}
		for ri, row := range g.Rows {
			if !row.EqualKey(want[gi][ri]) {
				t.Fatalf("%s group %d row %d = %v, want %v", label, gi, ri, row, want[gi][ri])
			}
		}
	}
}

// TestScatterShipsDistinctRows: a scatter group's answer is a set, and a set
// is what crosses the wire.  Every group plan of the join fixture emits one
// row per S row of which at most three are distinct; for every method and
// shard index each group's wire rows are pairwise distinct and are, as a
// sequence, the first-seen distinct rows of that group's plan through the
// naive executor on the node's slice.  The body is one unindented line that
// declares its length.
func TestScatterShipsDistinctRows(t *testing.T) {
	const rows, shards = 300, 3
	for index := 0; index < shards; index++ {
		node := newShardNodeOn(t, joinFixture, Config{}, rows, index, shards)
		srv := httptest.NewServer(node)
		defer srv.Close()
		for _, m := range scatterMethods {
			label := fmt.Sprintf("shard %d %s", index, m)
			body, resp, sr := postScatter(t, srv.URL, joinQueryText, m)
			if bytes.Contains(body, []byte("\n  ")) || bytes.Count(body, []byte("\n")) != 1 || body[len(body)-1] != '\n' {
				t.Fatalf("%s: body is not one unindented line: %q…", label, body[:min(len(body), 80)])
			}
			if resp.ContentLength != int64(len(body)) {
				t.Fatalf("%s: Content-Length %d for a %d-byte body", label, resp.ContentLength, len(body))
			}
			shipped := 0
			for gi, g := range sr.Groups {
				shipped += len(g.Rows)
				for i := range g.Rows {
					for j := 0; j < i; j++ {
						if g.Rows[i].EqualKey(g.Rows[j]) {
							t.Fatalf("%s group %d: rows %d and %d are both %v", label, gi, j, i, g.Rows[i])
						}
					}
				}
			}
			if len(sr.Groups) != 3 || shipped == 0 || shipped > 8 {
				t.Fatalf("%s: %d groups shipped %d rows, want 3 groups and 1..8 rows (label has 3 values, tier 2)", label, len(sr.Groups), shipped)
			}
			sameWireRows(t, label, naiveGroupRows(t, node, joinQueryText, m), sr)
		}
	}
}

// TestScatterLeavesInputRowsAlone: a group whose plan is a bare scan hands
// ExecuteOn the base relation's own row list, and e-MQO hands two groups
// windows of one shared materialization; deduplicating must build its list
// beside them.  S here holds every row twice in a row, so compacting rel.Rows
// in place would overwrite the base relation under the next request.
func TestScatterLeavesInputRowsAlone(t *testing.T) {
	doubled := testFixture{joinTargetSchema, func(n int) *engine.Instance {
		src := joinInstance(n)
		s := engine.NewRelation("S", src.Relation("S").Columns)
		for _, row := range src.Relation("S").Rows {
			s.MustAppend(row)
			s.MustAppend(row.Clone())
		}
		db := engine.NewInstance("D")
		db.AddRelation(s)
		db.AddRelation(src.Relation("G"))
		return db
	}, joinMappings}
	node := newShardNodeOn(t, doubled, Config{}, 120, 0, 2)
	sc, _ := node.registry.Get("test")
	base := sc.DB().Relation("S")
	before := make([]engine.Tuple, len(base.Rows))
	for i, row := range base.Rows {
		before[i] = row.Clone()
	}
	srv := httptest.NewServer(node)
	defer srv.Close()

	for _, m := range scatterMethods {
		// Every group plan projects scan(S) onto two of its columns, and no
		// two distinct rows of the fixture agree on them.
		first, _, sr := postScatter(t, srv.URL, "SELECT * FROM T", m)
		for gi, g := range sr.Groups {
			if len(g.Rows)*2 != len(before) {
				t.Fatalf("%s group %d shipped %d rows of a relation holding %d rows twice over", m, gi, len(g.Rows), len(before)/2)
			}
		}
		second, _, _ := postScatter(t, srv.URL, "SELECT * FROM T", m)
		if !bytes.Equal(stripElapsed(t, first), stripElapsed(t, second)) {
			t.Fatalf("%s: the second scatter of the same query answered differently", m)
		}
		if len(base.Rows) != len(before) {
			t.Fatalf("%s: base relation has %d rows after scattering, had %d", m, len(base.Rows), len(before))
		}
		for i, row := range base.Rows {
			if !row.EqualKey(before[i]) {
				t.Fatalf("%s: base row %d is %v after scattering, was %v", m, i, row, before[i])
			}
		}
	}
	// m1 and m3 project different columns of one join, which e-MQO
	// materializes once: after the first consumer's rows were deduplicated
	// the second still reads the whole shared relation, on every request.
	want := naiveGroupRows(t, node, joinQueryText, core.MethodEMQO)
	for round := 0; round < 2; round++ {
		_, _, sr := postScatter(t, srv.URL, joinQueryText, core.MethodEMQO)
		sameWireRows(t, fmt.Sprintf("e-MQO round %d", round), want, sr)
	}
}

// stripElapsed re-encodes a scatter body without its timing field.
func stripElapsed(t *testing.T, body []byte) []byte {
	t.Helper()
	var sr ScatterResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	sr.ElapsedMS = 0
	out, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// alteredShard answers /v1/scatter with the node's response passed through
// alter, as indented JSON streamed from the encoder.
func alteredShard(node *Server, alter func(*ScatterResponse)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ScatterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		resp, err := node.Scatter(r.Context(), req)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		alter(resp)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}

// duplicatingShard answers /v1/scatter the way a node that does not
// deduplicate its groups would: every distinct row twice, as indented JSON
// streamed from the encoder.
func duplicatingShard(node *Server) http.Handler {
	return alteredShard(node, func(resp *ScatterResponse) {
		for gi := range resp.Groups {
			rows := resp.Groups[gi].Rows
			resp.Groups[gi].Rows = append(rows, rows...)
		}
	})
}

// firstCovered returns the first group of a response whose mappings cover
// the query, the group packed-row damage is appended to.
func firstCovered(r *ScatterResponse) *ScatterGroupJSON {
	for gi := range r.Groups {
		if r.Groups[gi].Covered {
			return &r.Groups[gi]
		}
	}
	panic("no covered group")
}

// damagedRows are shard responses whose packed rows do not unpack, each
// built from a real one.
var damagedRows = map[string]func(*ScatterResponse){
	"string cut short": func(r *ScatterResponse) {
		g := firstCovered(r)
		g.Rows = append(g.Rows, packedString, 5, 'a')
	},
	"varint cut short": func(r *ScatterResponse) {
		g := firstCovered(r)
		g.Rows = append(g.Rows, packedInt, 0x80)
	},
	"float cut short": func(r *ScatterResponse) {
		g := firstCovered(r)
		g.Rows = append(g.Rows, packedFloat, 0, 0, 0)
	},
	"unknown tag": func(r *ScatterResponse) {
		g := firstCovered(r)
		g.Rows = append(g.Rows, 9)
	},
	"string length near MaxUint64": func(r *ScatterResponse) {
		g := firstCovered(r)
		g.Rows = binary.AppendUvarint(append(g.Rows, packedString), math.MaxUint64-1)
	},
	"values short of a row": func(r *ScatterResponse) {
		g := firstCovered(r)
		g.Rows = append(g.Rows, packedNull)
		r.Width = len(g.Rows) + 1
	},
	"rows of width 0": func(r *ScatterResponse) {
		g := firstCovered(r)
		g.Rows = append(g.Rows, packedNull)
		r.Width = 0
	},
}

// damagedGroups are shard responses whose group list the merge could not
// walk, or that disagree with the other shard's, each built from a real one.
var damagedGroups = map[string]func(*ScatterResponse){
	"below past the end": func(r *ScatterResponse) { r.Groups[len(r.Groups)-1].Below = 1 },
	"negative below":     func(r *ScatterResponse) { r.Groups[0].Below = -1 },
	"below unlike the other shard's": func(r *ScatterResponse) {
		r.Groups[0].Below--
	},
	"pruned leaf": func(r *ScatterResponse) {
		for gi, g := range r.Groups {
			if g.Below == 0 {
				r.Groups[gi].Pruned = true
				return
			}
		}
	},
	"rows on an uncovered group": func(r *ScatterResponse) {
		r.Width = max(r.Width, 1)
		last := &r.Groups[len(r.Groups)-1]
		last.Covered, last.Rows = false, append(last.Rows, bytes.Repeat([]byte{packedNull}, r.Width)...)
	},
}

// TestCoordinatorRefusesMalformedGroupLists: a shard's below, pruned and
// packed rows are outside input that the merge indexes by, so a response
// whose subtree runs past the group list, whose subtrees differ from another
// shard's, that marks a leaf pruned, that ships rows for an uncovered group
// or whose packed rows do not unpack into whole rows is a 502 naming the
// node — never an index panic, nor a length taken on trust.
func TestCoordinatorRefusesMalformedGroupLists(t *testing.T) {
	cases := maps.Clone(damagedGroups)
	maps.Copy(cases, damagedRows)
	for name, alter := range cases {
		coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Retry: qos.Backoff{Attempts: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			node := newShardNode(t, 60, i, 2)
			var h http.Handler = node
			if i == 0 {
				h = alteredShard(node, alter)
			}
			srv := httptest.NewServer(h)
			defer srv.Close()
			if err := coord.Leases().Heartbeat(nodeNameFor(i), srv.URL, []int{i}); err != nil {
				t.Fatal(err)
			}
		}
		_, qerr := coord.Query(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: "o-sharing"})
		var ae *apiError
		if !errors.Is(qerr, ErrShardMismatch) || !errors.As(qerr, &ae) || ae.status != http.StatusBadGateway {
			t.Fatalf("%s: error = %v, want 502 under ErrShardMismatch", name, qerr)
		}
		if !strings.Contains(qerr.Error(), `node "`+nodeNameFor(0)+`"`) {
			t.Fatalf("%s: error %q does not name the node", name, qerr)
		}
		if _, packed := damagedRows[name]; packed && !strings.Contains(qerr.Error(), "group ") {
			t.Fatalf("%s: error %q does not name the group", name, qerr)
		}
		if coord.Metrics().Mismatches != 1 {
			t.Fatalf("%s: mismatches = %d, want 1", name, coord.Metrics().Mismatches)
		}
	}
}

// TestCoordinatorMixedVersions: a coordinator and its shards run one build,
// but within the packed schema the coordinator stays lenient where leniency
// costs nothing: it merges a shard that ships every row twice, indented and
// streamed without a length, beside a plain one into the unsharded answer,
// bit for bit — its own dedup is what makes a shard's a saving and not a
// contract.  A node of the JSON-per-value schema that came before is a 502
// naming the node, never a merge.
func TestCoordinatorMixedVersions(t *testing.T) {
	const rows = 300
	ref, _ := newTestServerOn(t, joinFixture, rows, Config{})
	cluster := func(shard0 func(*Server) http.Handler) *Coordinator {
		coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Retry: qos.Backoff{Attempts: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			node := newShardNodeOn(t, joinFixture, Config{}, rows, i, 2)
			var h http.Handler = node
			if i == 0 {
				h = shard0(node)
			}
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			if err := coord.Leases().Heartbeat(nodeNameFor(i), srv.URL, []int{i}); err != nil {
				t.Fatal(err)
			}
		}
		return coord
	}
	coord := cluster(duplicatingShard)
	for _, m := range scatterMethods {
		for _, q := range []string{joinQueryText, "SELECT * FROM T", "SELECT a FROM T WHERE b = 3"} {
			req := Request{Scenario: "test", Query: q, Method: m.String()}
			want, err := ref.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("%s %q unsharded: %v", m, q, err)
			}
			got, err := coord.Query(context.Background(), req)
			if err != nil {
				t.Fatalf("%s %q coordinated: %v", m, q, err)
			}
			sameResult(t, m.String()+" "+q, want.Result, got.Result)
		}
	}

	// The old schema carried each value as an object: {"s":"g1"}.
	legacy := cluster(func(node *Server) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req ScatterRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			resp, err := node.Scatter(r.Context(), req)
			if err != nil {
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
			var body map[string]any
			data, _ := json.Marshal(resp)
			if err := json.Unmarshal(data, &body); err != nil {
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
			for _, g := range body["groups"].([]any) {
				if g := g.(map[string]any); g["rows"] != nil {
					g["rows"] = [][]map[string]string{{{"s": "g1"}}}
				}
			}
			writeJSON(w, http.StatusOK, body)
		})
	})
	_, qerr := legacy.Query(context.Background(), Request{Scenario: "test", Query: joinQueryText, Method: "e-basic"})
	var ae *apiError
	if !errors.As(qerr, &ae) || ae.status != http.StatusBadGateway || !strings.Contains(qerr.Error(), `node "`+nodeNameFor(0)+`"`) {
		t.Fatalf("old-schema shard: error = %v, want a 502 naming node %q", qerr, nodeNameFor(0))
	}
}

// TestScatterStringsCrossByteForByte: a string crosses the hop as its bytes.
// JSON text rewrites invalid UTF-8 to U+FFFD, which made "\xff" and "\xfe"
// one tuple at the coordinator and summed their masses; an unsharded node
// keeps them two answers, and so must the coordinator.
func TestScatterStringsCrossByteForByte(t *testing.T) {
	fx := testFixture{serveTargetSchema, func(n int) *engine.Instance {
		db := serveInstance(n)
		for _, x := range []string{"\xff", "\xfe"} {
			db.Relation("S").MustAppend(engine.Tuple{engine.S(x), engine.I(7), engine.I(7)})
		}
		return db
	}, serveMappings}
	const rows = 60
	ref, _ := newTestServerOn(t, fx, rows, Config{})
	cl := newClusterOn(t, fx, rows, 2, CoordinatorConfig{})
	for _, m := range []string{"basic", "e-basic", "e-mqo", "q-sharing", "o-sharing"} {
		req := Request{Scenario: "test", Query: fastQueryText, Method: m}
		want, err := ref.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("%s unsharded: %v", m, err)
		}
		invalid := 0
		for _, a := range want.Result.Answers {
			if s := a.Tuple[0].Str; s == "\xff" || s == "\xfe" {
				invalid++
			}
		}
		if invalid != 2 {
			t.Fatalf("%s: the unsharded answer holds %d of the two non-UTF-8 strings", m, invalid)
		}
		got, err := cl.coord.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s coordinated: %v", m, err)
		}
		sameResult(t, m, want.Result, got.Result)
	}
}

// TestCoordinatorCountsScatterTraffic: scatter_rows and scatter_bytes add up
// what successful attempts received, and nothing for a refused query.
func TestCoordinatorCountsScatterTraffic(t *testing.T) {
	cl := newClusterOn(t, joinFixture, 300, 2, CoordinatorConfig{})
	wantRows, wantBytes := 0, 0
	for _, node := range cl.nodes {
		body, _, sr := postScatter(t, node.URL, joinQueryText, core.MethodEBasic)
		for _, g := range sr.Groups {
			wantRows += len(g.Rows)
		}
		wantBytes += len(body)
	}
	if _, err := cl.coord.Query(context.Background(), Request{Scenario: "test", Query: joinQueryText, Method: "e-basic"}); err != nil {
		t.Fatal(err)
	}
	_, _ = cl.coord.Query(context.Background(), Request{Scenario: "test", Query: slowQueryText, Method: "e-basic"}) // 422
	m := cl.coord.Metrics()
	if m.ScatterRows != int64(wantRows) || wantRows == 0 {
		t.Fatalf("scatter_rows = %d, want %d", m.ScatterRows, wantRows)
	}
	// Bodies differ from the direct posts' only in the digits of elapsed_ms.
	if d := m.ScatterBytes - int64(wantBytes); d < -16 || d > 16 {
		t.Fatalf("scatter_bytes = %d, want about %d", m.ScatterBytes, wantBytes)
	}
	var out map[string]any
	data, _ := json.Marshal(m)
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out["scatter_rows"] != float64(wantRows) || out["scatter_bytes"] != float64(m.ScatterBytes) {
		t.Fatalf("/metrics body carries scatter_rows=%v scatter_bytes=%v", out["scatter_rows"], out["scatter_bytes"])
	}
}

// TestCoordinatorOversizedScatterBody: a scatter response over the limit is
// reported as what it is — 502 naming the node and the limit — whether the
// node streams it or declares it, not as truncated JSON.
func TestCoordinatorOversizedScatterBody(t *testing.T) {
	streamed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		chunk := bytes.Repeat([]byte(" "), 1<<20)
		for i := 0; i < maxScatterBody>>20; i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		_, _ = w.Write([]byte(" ")) // the byte past the limit
	})
	declared := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxScatterBody+1))
		w.WriteHeader(http.StatusOK)
	})
	for name, h := range map[string]http.Handler{"streamed": streamed, "declared": declared} {
		coord, err := NewCoordinator(CoordinatorConfig{Shards: 1, Retry: qos.Backoff{Attempts: 3}})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(h)
		defer srv.Close()
		if err := coord.Leases().Heartbeat("big", srv.URL, []int{0}); err != nil {
			t.Fatal(err)
		}
		_, qerr := coord.Query(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: "e-basic"})
		var ae *apiError
		if !errors.As(qerr, &ae) || ae.status != http.StatusBadGateway {
			t.Fatalf("%s: error = %v, want status 502", name, qerr)
		}
		for _, part := range []string{`node "big"`, "16 MiB"} {
			if !strings.Contains(qerr.Error(), part) {
				t.Fatalf("%s: error %q does not name %s", name, qerr, part)
			}
		}
		if strings.Contains(qerr.Error(), "JSON") {
			t.Fatalf("%s: error %q blames the encoding", name, qerr)
		}
		if got := coord.Metrics().UpstreamErrors; got != 1 {
			t.Fatalf("%s: upstream_errors = %d, want 1 (an oversized body is not retried)", name, got)
		}
	}
}

// TestCoordinatorKeepsShardConnections: the coordinator's own client keeps an
// idle connection per concurrent caller and shard, so 8 callers × 50 queries
// need 8 connections to each shard; net/http's default pool of 2 per host
// opened 11–53.  The bound leaves room for the transport's own race — it
// returns a connection to the pool on its read loop, after the body's EOF has
// reached the caller, so a caller's next request can find the pool empty for
// a moment and dial: of 520 shard counts ten were 9 and one was 10.
func TestCoordinatorKeepsShardConnections(t *testing.T) {
	const callers, rounds, shards, raced = 8, 50, 2, 4
	coord, err := NewCoordinator(CoordinatorConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	opened := make([]atomic.Int64, shards)
	for i := 0; i < shards; i++ {
		// One evaluation slot per caller: no request is refused and retried.
		srv := httptest.NewUnstartedServer(newShardNodeOn(t, serveFixture, Config{MaxConcurrent: callers}, 60, i, shards))
		srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				opened[i].Add(1)
			}
		}
		srv.Start()
		defer srv.Close()
		if err := coord.Leases().Heartbeat(nodeNameFor(i), srv.URL, []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := coord.Query(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: "e-basic"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range opened {
		if n := opened[i].Load(); n < 1 || n > callers+raced {
			t.Errorf("shard %d saw %d connections opened by %d callers x %d queries, want about %d", i, n, callers, rounds, callers)
		}
	}
}

// TestNotDistributableSaidOnce: a shard's 422 arrives with the sentinel's
// sentence already in it; the coordinator's error still is
// ErrNotDistributable and says so once.
func TestNotDistributableSaidOnce(t *testing.T) {
	cl := newCluster(t, 60, 2, CoordinatorConfig{})
	_, err := cl.coord.Query(context.Background(), Request{Scenario: "test", Query: slowQueryText, Method: "e-basic"})
	if !errors.Is(err, ErrNotDistributable) {
		t.Fatalf("error = %v, want ErrNotDistributable", err)
	}
	msg := err.Error()
	if n := strings.Count(msg, ErrNotDistributable.Error()); n != 1 {
		t.Fatalf("%q says %q %d times", msg, ErrNotDistributable, n)
	}
	for _, part := range []string{`node "node-`, `self-joins or aggregates the partitioned relation "S"`} {
		if !strings.Contains(msg, part) {
			t.Fatalf("%q lost %q", msg, part)
		}
	}
	if strings.Contains(msg, "422") {
		t.Fatalf("%q repeats the status the response already carries", msg)
	}
}

// TestSelectStarCarriesColumns: a SELECT * answer is labelled with the target
// relation's attributes in schema order, unsharded and through the
// coordinator, its tuples carry one value per label, and every shard's
// scatter body packs rows exactly that wide.
func TestSelectStarCarriesColumns(t *testing.T) {
	const rows, query = 120, "SELECT * FROM T"
	ref, _ := newTestServer(t, rows, Config{})
	unsharded := httptest.NewServer(ref)
	defer unsharded.Close()
	cl := newCluster(t, rows, 2, CoordinatorConfig{})
	for _, m := range append(scatterMethods, core.MethodOSharing) {
		body, _ := json.Marshal(Request{Scenario: "test", Query: query, Method: m.String()})
		for _, url := range []string{unsharded.URL, cl.http.URL} {
			resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var got wireAnswers
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s via %s: status %d, %v", m, url, resp.StatusCode, err)
			}
			if strings.Join(got.Columns, ",") != "a,b" || len(got.Answers) == 0 {
				t.Fatalf("%s via %s: %d answers under columns %v, want some under [a b]", m, url, len(got.Answers), got.Columns)
			}
			for i, a := range got.Answers {
				if len(a.Values) != len(got.Columns) {
					t.Fatalf("%s via %s: answer %d has %d values under %d columns", m, url, i, len(a.Values), len(got.Columns))
				}
			}
		}
		for i, node := range cl.nodes {
			data, _, _ := postScatter(t, node.URL, query, m)
			var sr ScatterResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				t.Fatal(err)
			}
			if strings.Join(sr.Columns, ",") != "a,b" || sr.Width != len(sr.Columns) {
				t.Fatalf("%s shard %d: width %d under columns %v, want 2 under [a b]", m, i, sr.Width, sr.Columns)
			}
		}
	}
}

// TestScatterScansUnderTheEvaluationLock: a shard node takes /v1/append
// directly, so a scatter's scan must hold the scenario's evaluation lock as
// every other evaluation does, and report the epoch its rows are from.
// Appends race scatters here: under -race an unlocked scan is a data race,
// and every answer must hold exactly the rows its epoch says were appended
// (each append adds one row both mappings answer with a new value).
func TestScatterScansUnderTheEvaluationLock(t *testing.T) {
	node := newShardNode(t, 200, 0, 2)
	sc, _ := node.registry.Get("test")
	req := ScatterRequest{Scenario: "test", Query: fastQueryText, Method: core.MethodEBasic.String()}
	scatter := func() (uint64, []int) {
		t.Helper()
		resp, err := node.Scatter(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		run, err := unpackRun(resp)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(run.Groups))
		for i, g := range run.Groups {
			counts[i] = len(g.Rows)
		}
		return resp.Epoch, counts
	}
	epoch0, base := scatter()

	const appends = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < appends; i++ {
			if err := sc.AppendRow("S", tuple(fmt.Sprintf("fresh%d", i), 7, 7)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		epoch, counts := scatter()
		for i, n := range counts {
			if want := base[i] + int(epoch-epoch0); n != want {
				t.Fatalf("group %d at epoch %d holds %d rows, want %d (%d appended)", i, epoch, n, want, epoch-epoch0)
			}
		}
	}
}
