package server

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// mapValuedPaths are the /metrics objects keyed by data rather than by field
// name — tenant names, stage names, shard indexes — whose keys the key-path
// list replaces with "*".
var mapValuedPaths = map[string]bool{"tenants": true, "stages": true, "leases.owners": true}

// metricsKeyPaths flattens a JSON document into its sorted, distinct key
// paths: object keys join with ".", an array element adds "[]", and the keys
// of the objects in mapValuedPaths become "*".
func metricsKeyPaths(t *testing.T, v any) []string {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				if mapValuedPaths[path] {
					k = "*"
				}
				if path != "" {
					k = path + "." + k
				}
				walk(k, child)
			}
		case []any:
			for _, child := range v {
				walk(path+"[]", child)
			}
		default:
			seen[path] = true
		}
	}
	walk("", doc)
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// sameKeyPaths compares paths with the list checked in under testdata/name,
// one path a line.
func sameKeyPaths(t *testing.T, name string, paths []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(data))
	for _, p := range paths {
		if !slices.Contains(want, p) {
			t.Errorf("%s: /metrics serves %q, which the list does not pin", name, p)
		}
	}
	for _, p := range want {
		if !slices.Contains(paths, p) {
			t.Errorf("%s: /metrics no longer serves %q", name, p)
		}
	}
}

// TestMetricsKeyPaths pins the /metrics contract benchmark/counters.go and
// dashboards decode: the key paths of a shard node's and of a coordinator's
// snapshot, after one query through each so every optional object appears.
func TestMetricsKeyPaths(t *testing.T) {
	node := newShardNode(t, 60, 0, 2)
	if _, err := node.Do(context.Background(), Request{Scenario: "test", Query: fastQueryText}); err != nil {
		t.Fatal(err)
	}
	sameKeyPaths(t, "metrics_server.keys", metricsKeyPaths(t, node.Metrics()))

	cl := newCluster(t, 60, 2, CoordinatorConfig{})
	if code, body := cl.postQuery(t, Request{Scenario: "test", Query: fastQueryText}); code != 200 {
		t.Fatalf("coordinated query: %d %v", code, body)
	}
	sameKeyPaths(t, "metrics_coordinator.keys", metricsKeyPaths(t, cl.coord.Metrics()))
}

// addOneToEvery adds one to every field of a live counter struct the way the
// request path does: one atomic add per field.
func addOneToEvery(live any) {
	v := reflect.ValueOf(live).Elem()
	for i := 0; i < v.NumField(); i++ {
		atomic.AddInt64(v.Field(i).Addr().Interface().(*int64), 1)
	}
}

// TestCounterSnapshotsRaceAdds: goroutines add to every counter of every
// scope — server, tenant, answer cache, coordinator — while others take
// /metrics snapshots; under -race a snapshot that read a counter without an
// atomic load fails, and afterwards every counter holds every add.
func TestCounterSnapshotsRaceAdds(t *testing.T) {
	srv, _ := newTestServer(t, 10, Config{})
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	scopes := []any{&srv.counters, &srv.tenants.get("t").TenantCounters, &srv.cache.counters, &coord.counters}
	const writers, adds = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					srv.Metrics()
					coord.Metrics()
				}
			}
		}()
	}
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < adds; i++ {
				for _, live := range scopes {
					addOneToEvery(live)
				}
			}
		}()
	}
	writing.Wait()
	close(stop)
	wg.Wait()

	m := srv.Metrics()
	for label, snap := range map[string]any{
		"server":      m.Counters,
		"tenant":      m.Tenants["t"].TenantCounters,
		"cache":       m.Cache.CacheCounters,
		"coordinator": coord.Metrics().CoordinatorCounters,
	} {
		v := reflect.ValueOf(snap)
		for i := 0; i < v.NumField(); i++ {
			if got := v.Field(i).Int(); got != writers*adds {
				t.Errorf("%s %s = %d, want %d", label, v.Type().Field(i).Name, got, writers*adds)
			}
		}
	}
}

// TestDeltaDroppedServed: a maintained answer whose relation shrank without a
// Bump fails its delta pass; the maintainer drops it and /metrics counts it.
func TestDeltaDroppedServed(t *testing.T) {
	srv, sc := newTestServer(t, 100, Config{})
	doQuery(t, srv, fastQueryText)
	if n := srv.DeltaEntries("test"); n != 1 {
		t.Fatalf("%d maintained entries, want 1", n)
	}
	sc.mu.Lock()
	rel := sc.db.Relation("S")
	rel.Rows = rel.Rows[:len(rel.Rows)-1]
	sc.mu.Unlock()
	if n := srv.ConvergeDelta("test"); n != 0 {
		t.Fatalf("converge over a shrunk relation published %d, want 0", n)
	}
	if m := srv.Metrics(); m.DeltaDropped != 1 || srv.DeltaEntries("test") != 0 {
		t.Fatalf("delta_dropped = %d with %d entries left, want 1 and 0", m.DeltaDropped, srv.DeltaEntries("test"))
	}
}
