package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/store"
)

// allMethods is every evaluation algorithm; restart tests assert bit-identical
// answers under each one plus top-k.
var allMethods = []core.Method{
	core.MethodBasic, core.MethodEBasic, core.MethodEMQO,
	core.MethodQSharing, core.MethodOSharing,
}

// custRow builds one Customer row for the datagen source schema
// (c_custkey, c_name, c_address, c_phone, c_mobile, c_nationkey, c_mktsegment).
func custRow(key int64, phone string) engine.Tuple {
	return engine.Tuple{
		engine.I(key),
		engine.S(fmt.Sprintf("cust-%d", key)),
		engine.S("1 Restart Way"),
		engine.S(phone),
		engine.S(phone),
		engine.I(key % 25),
		engine.S("BUILDING"),
	}
}

// openStoreRegistry opens a store on fs and wraps it in a registry.
func openStoreRegistry(t *testing.T, fs *store.MemFS, snapshotEvery int) *Registry {
	t.Helper()
	st, err := store.Open("data", store.Options{FS: fs, Fsync: true, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	return NewRegistryWithStore(st)
}

// sameScenarioAnswers evaluates q on both scenarios under every method and
// top-k and asserts bit-identical results throughout.
func sameScenarioAnswers(t *testing.T, label string, q *query.Query, want, got *Scenario) {
	t.Helper()
	ctx := context.Background()
	for _, m := range allMethods {
		w, err := evaluateFresh(ctx, want, q, 0, core.Options{Method: m})
		if err != nil {
			t.Fatalf("%s/%v: reference eval: %v", label, m, err)
		}
		g, err := evaluateFresh(ctx, got, q, 0, core.Options{Method: m})
		if err != nil {
			t.Fatalf("%s/%v: recovered eval: %v", label, m, err)
		}
		sameResult(t, fmt.Sprintf("%s/%v", label, m), w, g)
	}
	w, err := evaluateFresh(ctx, want, q, 3, core.Options{})
	if err != nil {
		t.Fatalf("%s/topk: reference eval: %v", label, err)
	}
	g, err := evaluateFresh(ctx, got, q, 3, core.Options{})
	if err != nil {
		t.Fatalf("%s/topk: recovered eval: %v", label, err)
	}
	sameResult(t, label+"/topk", w, g)
}

// TestRestartRoundTrip is the restart property test: register the fixture
// scenario, a datagen Excel scenario, and a randomized scenario against a
// durable store; interleave a seeded random stream of AppendRow and Bump
// mutations (with snapshots triggering every few records); then rebuild a
// fresh registry from the durable image and assert epochs match and answers
// under all five methods plus top-k are bit-identical to the live registry.
func TestRestartRoundTrip(t *testing.T) {
	ctx := context.Background()
	fs := store.NewMemFS()
	reg := openStoreRegistry(t, fs, 4)

	fixture, err := reg.Register(ctx, "fixture", serveTargetSchema(), serveInstance(60), serveMappings(),
		RegisterOptions{TargetLabel: "Test"})
	if err != nil {
		t.Fatal(err)
	}

	ds, err := datagen.NewDataset(datagen.DatasetOptions{
		Target: datagen.TargetExcel, NumMappings: 6, SizeMB: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	excel, err := reg.Register(ctx, "excel", ds.Target, ds.DB, ds.MappingsPrefix(6),
		RegisterOptions{TargetLabel: string(ds.TargetName)})
	if err != nil {
		t.Fatal(err)
	}

	rnd := rand.New(rand.NewSource(1729))
	randDB := engine.NewInstance("R")
	randRel := engine.NewRelation("S", []string{"x", "y", "z"})
	for i := 0; i < 30; i++ {
		randRel.MustAppend(tuple(fmt.Sprintf("r%02d", rnd.Intn(20)), int64(rnd.Intn(23)), int64(rnd.Intn(17))))
	}
	randDB.AddRelation(randRel)
	random, err := reg.Register(ctx, "random", serveTargetSchema(), randDB, serveMappings(),
		RegisterOptions{TargetLabel: "Random"})
	if err != nil {
		t.Fatal(err)
	}

	// Interleaved mutation stream.  Enough appends that every scenario
	// crosses the SnapshotEvery=4 threshold several times, so recovery
	// exercises snapshot-plus-tail replay rather than pure WAL replay.
	for i := 0; i < 60; i++ {
		switch rnd.Intn(10) {
		case 0:
			fixture.Bump()
		case 1:
			excel.Bump()
		case 2, 3, 4:
			row := tuple(fmt.Sprintf("k%02d", rnd.Intn(40)), int64(rnd.Intn(23)), int64(rnd.Intn(17)))
			if err := fixture.AppendRow("S", row); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		case 5, 6, 7:
			phone := "335-1736"
			if rnd.Intn(2) == 0 {
				phone = fmt.Sprintf("555-%04d", rnd.Intn(10000))
			}
			if err := excel.AppendRow("Customer", custRow(int64(10000+i), phone)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		default:
			row := tuple(fmt.Sprintf("r%02d", rnd.Intn(20)), int64(rnd.Intn(23)), int64(rnd.Intn(17)))
			if err := random.AppendRow("S", row); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
	}
	for _, sc := range []*Scenario{fixture, excel, random} {
		if err := sc.PersistErr(); err != nil {
			t.Fatalf("%s: persistence error: %v", sc.Name(), err)
		}
	}

	// Restart: rebuild a registry from the durable image alone.
	reg2 := openStoreRegistry(t, fs.Clone(), 4)
	stats, err := reg2.Recover(ctx, RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scenarios != 3 || len(stats.Quarantined) != 0 {
		t.Fatalf("recovered %d scenarios, quarantined %v; want 3 and none", stats.Scenarios, stats.Quarantined)
	}
	if int64(stats.ReplayedRecords) != reg2.ReplayedRecords() {
		t.Fatalf("stats report %d replayed records, registry counter says %d", stats.ReplayedRecords, reg2.ReplayedRecords())
	}

	fixtureQ, err := fixture.Parse("restart-fixture", fastQueryText)
	if err != nil {
		t.Fatal(err)
	}
	excelQ := datagen.MustWorkloadQuery(1)
	for _, tc := range []struct {
		name string
		q    *query.Query
		want *Scenario
	}{
		{"fixture", fixtureQ, fixture},
		{"excel", excelQ, excel},
		{"random", fixtureQ, random},
	} {
		got, ok := reg2.Get(tc.name)
		if !ok {
			t.Fatalf("scenario %q lost across restart", tc.name)
		}
		if got.Epoch() != tc.want.Epoch() {
			t.Fatalf("%s: recovered epoch %d, want %d", tc.name, got.Epoch(), tc.want.Epoch())
		}
		if got.StaleFloor() != tc.want.StaleFloor() {
			t.Fatalf("%s: recovered stale floor %d, want %d", tc.name, got.StaleFloor(), tc.want.StaleFloor())
		}
		if got.NumRows() != tc.want.NumRows() {
			t.Fatalf("%s: recovered %d rows, want %d", tc.name, got.NumRows(), tc.want.NumRows())
		}
		sameScenarioAnswers(t, tc.name, tc.q, tc.want, got)
	}
}

// TestAppendRowSnapshotRace pins the satellite fix: AppendRow racing a
// concurrent snapshot must never persist a row under a pre-bump epoch.  Run
// with -race; afterwards recovery must reproduce the live state exactly.
func TestAppendRowSnapshotRace(t *testing.T) {
	ctx := context.Background()
	fs := store.NewMemFS()
	reg := openStoreRegistry(t, fs, -1)
	sc, err := reg.Register(ctx, "test", serveTargetSchema(), serveInstance(40), serveMappings(),
		RegisterOptions{TargetLabel: "Test"})
	if err != nil {
		t.Fatal(err)
	}

	const appends = 64
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := sc.AppendRow("S", tuple(fmt.Sprintf("race-%02d", i), int64(i%23), int64(i%17))); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			if err := sc.SnapshotNow(); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		q, err := sc.Parse("race-read", fastQueryText)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 8; i++ {
			if _, err := evaluateFresh(ctx, sc, q, 0, core.Options{}); err != nil {
				t.Errorf("eval %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	reg2 := openStoreRegistry(t, fs.Clone(), -1)
	if _, err := reg2.Recover(ctx, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	got, ok := reg2.Get("test")
	if !ok {
		t.Fatal("scenario lost across restart")
	}
	if got.Epoch() != sc.Epoch() {
		t.Fatalf("recovered epoch %d, want %d", got.Epoch(), sc.Epoch())
	}
	if got.NumRows() != 40+appends {
		t.Fatalf("recovered %d rows, want %d", got.NumRows(), 40+appends)
	}
}

// TestQuarantinedScenarioGets503 corrupts a scenario's WAL on disk and
// asserts the recovered server keeps running, answers requests for that
// scenario with 503/ErrQuarantined, counts it in /metrics, and refuses to
// re-register the name.
func TestQuarantinedScenarioGets503(t *testing.T) {
	ctx := context.Background()
	fs := store.NewMemFS()
	reg := openStoreRegistry(t, fs, -1)
	if _, err := reg.Register(ctx, "test", serveTargetSchema(), serveInstance(20), serveMappings(),
		RegisterOptions{TargetLabel: "Test"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(ctx, "healthy", serveTargetSchema(), serveInstance(10), serveMappings(),
		RegisterOptions{TargetLabel: "Test"}); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the register record's payload: recovery must see a
	// checksum mismatch, not a torn tail.
	disk := fs.Clone()
	disk.Corrupt("data/scenarios/test/wal.log", 20, 0xFF)

	reg2 := openStoreRegistry(t, disk, -1)
	stats, err := reg2.Recover(ctx, RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scenarios != 1 || len(stats.Quarantined) != 1 || stats.Quarantined[0] != "test" {
		t.Fatalf("recovery = %d scenarios, quarantined %v; want healthy alone and test quarantined",
			stats.Scenarios, stats.Quarantined)
	}
	qerr, ok := reg2.QuarantineReason("test")
	if !ok || !errors.Is(qerr, store.ErrCorrupt) {
		t.Fatalf("quarantine reason = %v, %v; want ErrCorrupt", qerr, ok)
	}

	srv := New(reg2, Config{})
	if _, err := srv.Do(ctx, Request{Scenario: "healthy", Query: fastQueryText}); err != nil {
		t.Fatalf("healthy scenario must keep serving: %v", err)
	}
	_, err = srv.Do(ctx, Request{Scenario: "test", Query: fastQueryText})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined scenario error = %v, want ErrQuarantined", err)
	}
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != 503 {
		t.Fatalf("quarantined scenario status = %v, want 503", err)
	}

	m := srv.snapshotMetrics()
	if m.StoreQuarantined != 1 {
		t.Fatalf("store_quarantined = %d, want 1", m.StoreQuarantined)
	}
	if m.StoreRecoveries != 1 {
		t.Fatalf("store_recoveries = %d, want 1", m.StoreRecoveries)
	}
	if m.Unavailable == 0 {
		t.Fatal("quarantined request not counted as unavailable")
	}

	// Re-registering a quarantined name must be refused: silently overwriting
	// would destroy the evidence an operator needs.
	if _, err := reg2.Register(ctx, "test", serveTargetSchema(), serveInstance(5), serveMappings(),
		RegisterOptions{}); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("re-register of quarantined name = %v, want quarantine refusal", err)
	}
}

// TestRecoveringGate verifies the boot-time readiness gate: while recovering,
// /healthz reports "recovering" with 503 and queries are refused with
// ErrRecovering; clearing the gate restores normal service.
func TestRecoveringGate(t *testing.T) {
	srv, _ := newTestServer(t, 10, Config{})
	srv.SetRecovering(true)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "recovering") {
		t.Fatalf("healthz while recovering = %d %q", rec.Code, rec.Body.String())
	}

	_, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText})
	if !errors.Is(err, ErrRecovering) {
		t.Fatalf("query while recovering = %v, want ErrRecovering", err)
	}

	srv.SetRecovering(false)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz after recovery = %d", rec.Code)
	}
	if _, err := srv.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText}); err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
}

// TestAppendAndBumpEndpoints drives the mutation endpoints over HTTP: a valid
// append advances the epoch and row count, type errors are 400s, unknown
// scenarios are 404s, and a bump invalidates via a fresh epoch.
func TestAppendAndBumpEndpoints(t *testing.T) {
	srv, sc := newTestServer(t, 10, Config{})
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		srv.ServeHTTP(rec, req)
		return rec
	}

	epoch0 := sc.Epoch()
	rec := post("/v1/append", `{"scenario":"test","relation":"S","values":["via-http",3,1.5]}`)
	if rec.Code != 200 {
		t.Fatalf("append = %d %q", rec.Code, rec.Body.String())
	}
	var resp struct {
		Epoch uint64 `json:"epoch"`
		Rows  int    `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != epoch0+1 || resp.Rows != 11 {
		t.Fatalf("append response epoch=%d rows=%d, want epoch=%d rows=11", resp.Epoch, resp.Rows, epoch0+1)
	}
	if sc.Epoch() != epoch0+1 {
		t.Fatalf("scenario epoch %d, want %d", sc.Epoch(), epoch0+1)
	}

	if rec := post("/v1/append", `{"scenario":"test","relation":"S","values":["too","few"]}`); rec.Code != 400 {
		t.Fatalf("arity error = %d %q", rec.Code, rec.Body.String())
	}
	if rec := post("/v1/append", `{"scenario":"test","relation":"S","values":[true,1,2]}`); rec.Code != 400 {
		t.Fatalf("bool value = %d %q", rec.Code, rec.Body.String())
	}
	if rec := post("/v1/append", `{"scenario":"nope","relation":"S","values":["x",1,2]}`); rec.Code != 404 {
		t.Fatalf("unknown scenario = %d %q", rec.Code, rec.Body.String())
	}

	rec = post("/v1/bump", `{"scenario":"test"}`)
	if rec.Code != 200 {
		t.Fatalf("bump = %d %q", rec.Code, rec.Body.String())
	}
	if sc.Epoch() != epoch0+2 {
		t.Fatalf("epoch after bump %d, want %d", sc.Epoch(), epoch0+2)
	}

	m := srv.snapshotMetrics()
	if m.Appends != 1 {
		t.Fatalf("appends metric = %d, want 1", m.Appends)
	}
}
