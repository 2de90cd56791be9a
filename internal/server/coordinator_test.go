package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/qos"
	"github.com/probdb/urm/internal/shard"
	"github.com/probdb/urm/internal/store"
)

// testShardSpec partitions the fixture's S relation on its string key.
func testShardSpec(count int) shard.Spec {
	return shard.Spec{Relation: "S", Column: "x", Shards: count, Kind: shard.KindHash}
}

// newShardNode builds one shard node: a server whose "test" scenario holds
// only slice `index` of the fixture instance, declared via Config.Shard.
func newShardNode(t *testing.T, rows, index, count int) *Server {
	t.Helper()
	return newShardNodeOn(t, serveFixture, Config{}, rows, index, count)
}

// newShardNodeOn is newShardNode over any fixture whose S is partitioned, on
// a server configured by cfg.
func newShardNodeOn(t *testing.T, fx testFixture, cfg Config, rows, index, count int) *Server {
	t.Helper()
	full := fx.instance(rows)
	p, err := shard.NewPartitioner(full, testShardSpec(count))
	if err != nil {
		t.Fatal(err)
	}
	slice, err := p.Slice(full, index)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Register(context.Background(), "test", fx.target(), slice, fx.mappings(),
		RegisterOptions{TargetLabel: "Test"}); err != nil {
		t.Fatal(err)
	}
	cfg.Shard = &ShardIdentity{
		Node:     nodeNameFor(index),
		Index:    index,
		Count:    count,
		Relation: "S",
		Column:   "x",
		Kind:     "hash",
	}
	return New(reg, cfg)
}

func nodeNameFor(index int) string { return "node-" + string(rune('a'+index)) }

// cluster is a coordinator plus its shard nodes, all over httptest.
type cluster struct {
	coord *Coordinator
	http  *httptest.Server
	nodes []*httptest.Server
}

func newCluster(t *testing.T, rows, count int, cfg CoordinatorConfig) *cluster {
	t.Helper()
	return newClusterOn(t, serveFixture, rows, count, cfg)
}

// newClusterOn is newCluster over any fixture whose S is partitioned.
func newClusterOn(t *testing.T, fx testFixture, rows, count int, cfg CoordinatorConfig) *cluster {
	t.Helper()
	cfg.Shards = count
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := &cluster{coord: coord, http: httptest.NewServer(coord)}
	t.Cleanup(cl.http.Close)
	for i := 0; i < count; i++ {
		node := httptest.NewServer(newShardNodeOn(t, fx, Config{}, rows, i, count))
		t.Cleanup(node.Close)
		cl.nodes = append(cl.nodes, node)
		if err := coord.Leases().Heartbeat(nodeNameFor(i), node.URL, []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// postQuery sends one query through the coordinator's HTTP surface and
// returns the status code and decoded body.
func (cl *cluster) postQuery(t *testing.T, req Request) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(cl.http.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

// TestCoordinatorBitIdentical: queries answered through the coordinator's
// scatter fan-out over 2 and 3 shard nodes match unsharded evaluation
// bit-exactly — same tuples, same order, exactly equal probabilities — for
// every method, o-sharing under each strategy included.
func TestCoordinatorBitIdentical(t *testing.T) {
	const rows = 300
	ref, _ := newTestServer(t, rows, Config{})
	// The join fixture's query is the one whose groups emit hundreds of rows
	// and a handful of distinct tuples — what the shards deduplicate.
	joinRef, _ := newTestServerOn(t, joinFixture, rows, Config{})
	var cl *cluster
	for _, count := range []int{2, 3} {
		cl = newCluster(t, rows, count, CoordinatorConfig{})
		joinCl := newClusterOn(t, joinFixture, rows, count, CoordinatorConfig{})
		for _, mode := range [][2]string{{"basic"}, {"e-basic"}, {"e-mqo"}, {"q-sharing"}, {"o-sharing", "SEF"}, {"o-sharing", "SNF"}, {"o-sharing", "Random"}} {
			for _, q := range []string{fastQueryText, "SELECT a, b FROM T", "SELECT a FROM T WHERE b = 3", joinQueryText} {
				ref, cl := ref, cl
				if q == joinQueryText {
					ref, cl = joinRef, joinCl
				}
				req := Request{Scenario: "test", Query: q, Method: mode[0], Strategy: mode[1]}
				label := fmt.Sprintf("%d nodes %v %q", count, mode, q)
				want, err := ref.Do(context.Background(), req)
				if err != nil {
					t.Fatalf("%s unsharded: %v", label, err)
				}
				got, err := cl.coord.Query(context.Background(), req)
				if err != nil {
					t.Fatalf("%s coordinated: %v", label, err)
				}
				sameResult(t, label, want.Result, got.Result)
				if got.Query != want.Query {
					t.Fatalf("canonical query %q, want %q", got.Query, want.Query)
				}
			}
		}
	}
	// A self-join of the target scans the partitioned relation twice per
	// mapping; per-shard evaluation would drop cross-shard pairs, so the
	// shards refuse and the coordinator answers an honest 422.
	_, err := cl.coord.Query(context.Background(), Request{Scenario: "test", Query: slowQueryText, Method: "e-basic"})
	if !errors.Is(err, ErrNotDistributable) {
		t.Fatalf("self-join through coordinator: %v, want ErrNotDistributable", err)
	}
	if got := cl.coord.Metrics().NotShardable; got < 1 {
		t.Fatalf("not_shardable = %d, want >= 1", got)
	}
}

// TestCoordinatorTopK: a top-k request through the coordinator over 2 and 3
// shard nodes — o-sharing scattered under the strategy, the merged leaves fed
// to the top-k bounds — answers exactly as an unsharded node does: the same
// tuples in the same order, the same probability bits and empty mass, with
// topk echoed, and nothing counted as not shardable.
func TestCoordinatorTopK(t *testing.T) {
	const rows = 300
	ref, _ := newTestServer(t, rows, Config{})
	joinRef, _ := newTestServerOn(t, joinFixture, rows, Config{})
	for _, count := range []int{2, 3} {
		cl := newCluster(t, rows, count, CoordinatorConfig{})
		joinCl := newClusterOn(t, joinFixture, rows, count, CoordinatorConfig{})
		for _, strategy := range []string{"SEF", "SNF", "Random"} {
			for _, k := range []int{1, 3, 10} {
				for _, q := range []string{fastQueryText, "SELECT a, b FROM T", "SELECT a FROM T WHERE b = 3", joinQueryText} {
					ref, cl := ref, cl
					if q == joinQueryText {
						ref, cl = joinRef, joinCl
					}
					req := Request{Scenario: "test", Query: q, Method: "e-basic", Strategy: strategy, TopK: k}
					label := fmt.Sprintf("%d nodes %s top-%d %q", count, strategy, k, q)
					want, err := ref.Do(context.Background(), req)
					if err != nil {
						t.Fatalf("%s unsharded: %v", label, err)
					}
					got, err := cl.coord.Query(context.Background(), req)
					if err != nil {
						t.Fatalf("%s coordinated: %v", label, err)
					}
					sameResult(t, label, want.Result, got.Result)
					if got.TopK != k || got.Method != want.Method || got.Strategy != want.Strategy {
						t.Fatalf("%s: echoed topk %d method %s strategy %s, want %d %s %s",
							label, got.TopK, got.Method, got.Strategy, k, want.Method, want.Strategy)
					}
					if got.Result.Method != core.MethodTopK {
						t.Fatalf("%s: result method %v, want top-k", label, got.Result.Method)
					}
				}
			}
		}
		if n := cl.coord.Metrics().NotShardable + joinCl.coord.Metrics().NotShardable; n != 0 {
			t.Fatalf("%d nodes: not_shardable = %d after top-k requests, want 0", count, n)
		}
	}
}

// TestCoordinatorUnownedShard: with one shard never heartbeated the query
// fails 503 with a Retry-After hint — never a partial answer from the shards
// that are up.
func TestCoordinatorUnownedShard(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Retry: qos.Backoff{Attempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	node := httptest.NewServer(newShardNode(t, 60, 0, 2))
	defer node.Close()
	if err := coord.Leases().Heartbeat(nodeNameFor(0), node.URL, []int{0}); err != nil {
		t.Fatal(err)
	}
	_, qerr := coord.Query(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: "e-basic"})
	if !errors.Is(qerr, ErrShardUnowned) {
		t.Fatalf("query error = %v, want ErrShardUnowned", qerr)
	}
	var ae *apiError
	if !errors.As(qerr, &ae) || ae.status != http.StatusServiceUnavailable {
		t.Fatalf("query error = %v, want status 503", qerr)
	}
	if RetryAfter(qerr) <= 0 {
		t.Fatalf("unowned-shard error carries no Retry-After hint: %v", qerr)
	}
	if coord.Metrics().Unowned == 0 {
		t.Fatal("unowned counter not incremented")
	}
}

// TestCoordinatorDeadShardFailsCleanly: kill one shard node (its lease still
// live) — the fan-out must fail the whole query rather than answer from the
// surviving shard.
func TestCoordinatorDeadShardFailsCleanly(t *testing.T) {
	cl := newCluster(t, 60, 2, CoordinatorConfig{Retry: qos.Backoff{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond}})
	cl.nodes[1].Close()
	resp, err := cl.coord.Query(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: "e-basic"})
	if err == nil {
		t.Fatalf("query over a dead shard succeeded: %+v", resp)
	}
	if resp != nil {
		t.Fatal("dead-shard query returned a partial response alongside the error")
	}
	if cl.coord.Metrics().UpstreamErrors == 0 {
		t.Fatal("upstream_errors not incremented")
	}
}

// TestCoordinatorShardEchoMismatch: a node booted with the wrong shard index
// answers with the wrong placement echo; the coordinator must refuse with 502
// instead of merging slices that do not partition the data.
func TestCoordinatorShardEchoMismatch(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Retry: qos.Backoff{Attempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a := httptest.NewServer(newShardNode(t, 60, 0, 2))
	defer a.Close()
	// Node b wrongly believes it is shard 0 too.
	b := httptest.NewServer(newShardNode(t, 60, 0, 2))
	defer b.Close()
	if err := coord.Leases().Heartbeat("a", a.URL, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Leases().Heartbeat("b", b.URL, []int{1}); err != nil {
		t.Fatal(err)
	}
	_, qerr := coord.Query(context.Background(), Request{Scenario: "test", Query: fastQueryText, Method: "e-basic"})
	if !errors.Is(qerr, ErrShardMismatch) {
		t.Fatalf("query error = %v, want ErrShardMismatch", qerr)
	}
	var ae *apiError
	if !errors.As(qerr, &ae) || ae.status != http.StatusBadGateway {
		t.Fatalf("query error = %v, want status 502", qerr)
	}
}

// TestLeaseExpiryPromotesStandby drives the lease state machine with a fake
// clock: the senior owner misses its heartbeats, the standby is promoted at
// TTL, and the old owner's later return does not snatch the shard back.
func TestLeaseExpiryPromotesStandby(t *testing.T) {
	clock := qos.NewFakeClock()
	lt, err := NewLeaseTable(LeaseConfig{Shards: 1, Interval: time.Second, MissedIntervals: 3, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	hb := func(node string) {
		t.Helper()
		if err := lt.Heartbeat(node, "http://"+node, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	hb("alpha")
	hb("beta") // standby: same shard, later acquisition
	if owner, ok := lt.Owner(0); !ok || owner.Node != "alpha" {
		t.Fatalf("owner = %+v, %v; want alpha", owner, ok)
	}
	// Beta keeps heartbeating; alpha goes quiet.  Just before TTL alpha still
	// owns the shard; past TTL beta is promoted.
	clock.Advance(time.Second)
	hb("beta")
	clock.Advance(2 * time.Second) // alpha's age: 3s = TTL, not yet expired
	if owner, _ := lt.Owner(0); owner.Node != "alpha" {
		t.Fatalf("owner at TTL = %q, want alpha", owner.Node)
	}
	clock.Advance(time.Millisecond)
	if owner, ok := lt.Owner(0); !ok || owner.Node != "beta" {
		t.Fatalf("owner past TTL = %+v, %v; want beta", owner, ok)
	}
	// Alpha comes back: it rejoins behind beta and must not reclaim the shard.
	hb("alpha")
	if owner, _ := lt.Owner(0); owner.Node != "beta" {
		t.Fatalf("owner after alpha's return = %q, want beta (promotion must stick)", owner.Node)
	}
	// Once beta expires, alpha (still heartbeating) takes over again.
	clock.Advance(3*time.Second + time.Millisecond)
	hb("alpha")
	if owner, _ := lt.Owner(0); owner.Node != "alpha" {
		t.Fatalf("owner after beta expiry = %q, want alpha", owner.Node)
	}
}

// TestLeaseTablePersistence: the table survives a coordinator restart via the
// store's aux blob, including seniority order; a corrupted blob degrades to
// an empty table instead of refusing to start.
func TestLeaseTablePersistence(t *testing.T) {
	fs := store.NewMemFS()
	st, err := store.Open("/data", store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	clock := qos.NewFakeClock()
	lt, err := NewLeaseTable(LeaseConfig{Shards: 2, Interval: time.Second, Clock: clock, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := lt.Heartbeat("alpha", "http://alpha", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := lt.Heartbeat("beta", "http://beta", []int{1}); err != nil {
		t.Fatal(err)
	}
	// "Restart": a fresh table over the same store sees the same owners.
	lt2, err := NewLeaseTable(LeaseConfig{Shards: 2, Interval: time.Second, Clock: clock, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	owners := lt2.Owners()
	if owners[0].Node != "alpha" || owners[1].Node != "alpha" {
		t.Fatalf("restored owners = %+v, want alpha on both (senior)", owners)
	}
	if lt2.PersistErrors() != 0 {
		t.Fatalf("persist errors = %d", lt2.PersistErrors())
	}
	// Leases keep aging across the restart: expire alpha, beta takes shard 1.
	clock.Advance(3*time.Second + time.Millisecond)
	if err := lt2.Heartbeat("beta", "http://beta", []int{1}); err != nil {
		t.Fatal(err)
	}
	owners = lt2.Owners()
	if _, ok := owners[0]; ok {
		t.Fatalf("shard 0 still owned after every claimant expired: %+v", owners)
	}
	if owners[1].Node != "beta" {
		t.Fatalf("shard 1 owner = %+v, want beta", owners[1])
	}
	// Corrupt the blob: a new table starts empty rather than failing.
	if err := st.SaveAux("leases", []byte("not json")); err != nil {
		t.Fatal(err)
	}
	lt3, err := NewLeaseTable(LeaseConfig{Shards: 2, Clock: clock, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(lt3.Owners()); n != 0 {
		t.Fatalf("table from undecodable blob has %d owners, want 0", n)
	}
}

// TestCoordinatorLeaseEndpointAndHealth covers the HTTP half of the lease
// protocol: heartbeats register nodes, health flips to ok only when every
// shard is owned, and the lease response carries the cadence.
func TestCoordinatorLeaseEndpointAndHealth(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, LeaseInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()

	health := func() int {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := health(); got != http.StatusServiceUnavailable {
		t.Fatalf("health with no shards = %d, want 503", got)
	}
	hb := func(body string) (int, LeaseResponse) {
		resp, err := http.Post(ts.URL+"/v1/lease", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var lr LeaseResponse
		_ = json.NewDecoder(resp.Body).Decode(&lr)
		return resp.StatusCode, lr
	}
	status, lr := hb(`{"node":"a","addr":"http://a","shards":[0]}`)
	if status != http.StatusOK || lr.IntervalMS != 1000 || lr.TTLMS != 3000 {
		t.Fatalf("heartbeat = %d %+v, want 200 with interval 1000ms, ttl 3000ms", status, lr)
	}
	if got := health(); got != http.StatusServiceUnavailable {
		t.Fatalf("health with one of two shards = %d, want 503", got)
	}
	if status, _ := hb(`{"node":"b","addr":"http://b","shards":[1]}`); status != http.StatusOK {
		t.Fatalf("second heartbeat = %d", status)
	}
	if got := health(); got != http.StatusOK {
		t.Fatalf("health with all shards owned = %d, want 200", got)
	}
	// Out-of-range claims are rejected.
	if status, _ := hb(`{"node":"c","addr":"http://c","shards":[7]}`); status != http.StatusBadRequest {
		t.Fatalf("out-of-range claim = %d, want 400", status)
	}
}

// TestScatterEndpoint: the shard-side API scatters every method, o-sharing
// included, echoes the node's placement, and carries typed values that
// reconstruct tuples exactly.
func TestScatterEndpoint(t *testing.T) {
	node := newShardNode(t, 60, 0, 2)
	srv := httptest.NewServer(node)
	defer srv.Close()

	post := func(body string) (int, []byte) {
		resp, err := http.Post(srv.URL+"/v1/scatter", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	status, body := post(`{"scenario":"test","query":"` + fastQueryText + `","method":"e-basic"}`)
	if status != http.StatusOK {
		t.Fatalf("scatter = %d: %s", status, body)
	}
	var sr ScatterResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Shard == nil || sr.Shard.Index != 0 || sr.Shard.Count != 2 || sr.Shard.Relation != "S" {
		t.Fatalf("shard echo = %+v", sr.Shard)
	}
	if len(sr.Groups) == 0 {
		t.Fatal("scatter returned no groups")
	}
	// o-sharing scatters its u-trace's nodes like any other group list.
	if status, body := post(`{"scenario":"test","query":"` + fastQueryText + `","method":"o-sharing"}`); status != http.StatusOK {
		t.Fatalf("o-sharing scatter = %d: %s", status, body)
	}
	// Unknown scenario: 404.
	if status, _ := post(`{"scenario":"nope","query":"` + fastQueryText + `"}`); status != http.StatusNotFound {
		t.Fatal("unknown scenario not 404")
	}
	if node.Metrics().Scatters != 3 {
		t.Fatalf("scatters = %d, want 3", node.Metrics().Scatters)
	}
}

// tupleMixed exercises every wire kind, including the float/int distinction
// (3.0 versus 3) and NULL.
func tupleMixed() engine.Tuple {
	return engine.Tuple{engine.S("s"), engine.I(3), engine.F(3), engine.Null()}
}

// TestPackedRowsExactAndPinned pins the packed-row format to golden bytes —
// the tags are the wire's own, so renumbering engine.Kind cannot change what
// crosses the hop unnoticed — and round-trips every value through the actual
// wire, the JSON envelope, by kind and by bits: a float 3.0 does not come
// back an int 3, -0 and a NaN's payload survive, strings are their bytes.
func TestPackedRowsExactAndPinned(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	row := append(tupleMixed(),
		engine.F(math.Copysign(0, -1)), engine.F(nan), engine.F(math.Inf(1)), engine.F(math.Inf(-1)),
		engine.I(math.MinInt64), engine.I(math.MaxInt64), engine.S(""), engine.S("\xff"))
	golden := strings.Join([]string{
		"010173",                 // "s"
		"0206",                   // 3
		"030000000000000840",     // 3.0
		"00",                     // NULL
		"030000000000000080",     // -0
		"03010000000000f87f",     // NaN, payload 1
		"03000000000000f07f",     // +Inf
		"03000000000000f0ff",     // -Inf
		"02ffffffffffffffffff01", // MinInt64
		"02feffffffffffffffff01", // MaxInt64
		"0100",                   // ""
		"0101ff",                 // "\xff"
	}, "")
	packed := appendPacked(nil, row)
	if got := hex.EncodeToString(packed); got != golden {
		t.Fatalf("packed row\n got %s\nwant %s", got, golden)
	}
	data, err := json.Marshal(ScatterResponse{Width: len(row), Groups: []ScatterGroupJSON{{Covered: true, Rows: append(packed, packed...)}}})
	if err != nil {
		t.Fatal(err)
	}
	var sr ScatterResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	run, err := unpackRun(&sr)
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Groups[0].Rows; len(got) != 2 {
		t.Fatalf("%d rows unpacked, want 2", len(got))
	}
	for _, got := range run.Groups[0].Rows {
		for i, w := range row {
			if g := got[i]; g.Kind != w.Kind || g.Str != w.Str || g.Int != w.Int || math.Float64bits(g.Float) != math.Float64bits(w.Float) {
				t.Fatalf("value %d = %#v, want %#v", i, g, w)
			}
		}
	}
}

// TestCoordinatorScenarios: the aggregated scenario listing reports each
// shard's placement (node, epoch, rows) without summing replicated rows.
func TestCoordinatorScenarios(t *testing.T) {
	cl := newCluster(t, 80, 2, CoordinatorConfig{})
	resp, err := http.Get(cl.http.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Scenarios []CoordinatorScenario `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Scenarios) != 1 || out.Scenarios[0].Name != "test" {
		t.Fatalf("scenarios = %+v", out.Scenarios)
	}
	sc := out.Scenarios[0]
	if len(sc.Shards) != 2 {
		t.Fatalf("placements = %+v, want 2 shards", sc.Shards)
	}
	totalRows := 0
	for i, pl := range sc.Shards {
		if pl.Shard != i {
			t.Fatalf("placement %d reports shard %d", i, pl.Shard)
		}
		if pl.Node == "" || pl.Addr == "" {
			t.Fatalf("placement %d missing node identity: %+v", i, pl)
		}
		totalRows += pl.Rows
	}
	if totalRows != 80 {
		t.Fatalf("shard rows sum to %d, want 80 (S partitioned, nothing replicated here)", totalRows)
	}
}

// shedding serves a shard node behind a stub that answers its first shed
// scatters through respond, as a saturated node does, and counts every
// scatter it receives.
type shedding struct {
	node     http.Handler
	shed     int32
	respond  func(http.ResponseWriter)
	scatters atomic.Int32
}

func (s *shedding) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/scatter" && s.scatters.Add(1) <= s.shed {
		s.respond(w)
		return
	}
	s.node.ServeHTTP(w, r)
}

// TestCoordinatorRetriesASheddingShard: a shard that sheds a scatter with 429
// and a wait hint gets exactly one retry, after which the query answers as an
// unsharded node does; a shard that always sheds fails the query with its
// hint on the error, from the body's retry_after_ms or else the Retry-After
// header.
func TestCoordinatorRetriesASheddingShard(t *testing.T) {
	const rows = 60
	const hint = 3 * time.Millisecond
	ref, _ := newTestServer(t, rows, Config{})
	req := Request{Scenario: "test", Query: fastQueryText, Method: "e-basic"}
	want, err := ref.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 sheds its first shed scatters; shard 1 never does.
	shedCluster := func(shed int32, respond func(http.ResponseWriter), attempts int) (*Coordinator, *shedding) {
		coord, err := NewCoordinator(CoordinatorConfig{Shards: 2, Retry: qos.Backoff{Attempts: attempts, Base: time.Millisecond, Max: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		stubs := []*shedding{
			{node: newShardNode(t, rows, 0, 2), shed: shed, respond: respond},
			{node: newShardNode(t, rows, 1, 2)},
		}
		for i, stub := range stubs {
			node := httptest.NewServer(stub)
			t.Cleanup(node.Close)
			if err := coord.Leases().Heartbeat(nodeNameFor(i), node.URL, []int{i}); err != nil {
				t.Fatal(err)
			}
		}
		return coord, stubs[0]
	}
	overloaded := func(w http.ResponseWriter) {
		writeAPIError(w, apiErrRetry(http.StatusTooManyRequests, hint, ErrOverloaded))
	}

	coord, stub := shedCluster(1, overloaded, 3)
	got, err := coord.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("a shard that shed once failed the query: %v", err)
	}
	sameResult(t, "after one shed", want.Result, got.Result)
	if n := stub.scatters.Load(); n != 2 {
		t.Fatalf("the shedding shard received %d scatters, want 2 (one retry)", n)
	}

	coord, stub = shedCluster(math.MaxInt32, overloaded, 2)
	_, err = coord.Query(context.Background(), req)
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusTooManyRequests || RetryAfter(err) != hint {
		t.Fatalf("always-shedding shard: error %v with hint %v, want a 429 with hint %v", err, RetryAfter(err), hint)
	}
	if n := stub.scatters.Load(); n != 2 {
		t.Fatalf("the always-shedding shard received %d scatters, want the budget's 2", n)
	}

	// A shed without a JSON body carries the header's whole seconds.
	coord, _ = shedCluster(math.MaxInt32, func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
	}, 1)
	_, err = coord.Query(context.Background(), req)
	if !errors.As(err, &ae) || ae.status != http.StatusServiceUnavailable || RetryAfter(err) != 2*time.Second {
		t.Fatalf("header-only shed: error %v with hint %v, want a 503 with hint 2s", err, RetryAfter(err))
	}
}
