package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/shard"
)

// TestScatterAtBenchmarkScale pins what the scatter hop moves on the fixture
// the benchmark's scatter_read serves (Excel, 100 mappings, 40 MB, seed 42,
// two hash shards of Orders.o_orderkey).  Per (query, shard) the rows on the
// wire are the distinct rows of each group — 17 / 90 / 62 from shard 0 and
// 30 / 90 / 69 from shard 1 for Q1 / Q2 / Q3, where the group plans emit
// 17 / 2,100 / 1,216 and 30 / 2,100 / 1,100 — under e-basic, e-MQO and
// q-sharing alike; the coordinator's scatter_rows counts
// exactly those; decoding a shard's body and unpacking its rows stays within
// pinned allocations; and the merged answers, their order, every
// probability's bits and the empty probability are the unsharded session's,
// o-sharing's u-trace nodes included.
func TestScatterAtBenchmarkScale(t *testing.T) {
	ds, nodes := shardNodes(t, benchmarkFixture)
	coord, err := NewCoordinator(CoordinatorConfig{Shards: len(nodes)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, node := range nodes {
		srv := httptest.NewServer(node)
		defer srv.Close()
		if err := coord.Leases().Heartbeat(node.cfg.Shard.Node, srv.URL, []int{i}); err != nil {
			t.Fatal(err)
		}
	}

	// Per query: scatter groups, then rows shipped by shard 0 and shard 1.
	pinned := map[int][3]int{1: {10, 17, 30}, 2: {3, 90, 90}, 3: {6, 62, 69}}
	// Per query: allocations to decode one shard's body and unpack its rows
	// under e-basic, shard 0 and shard 1.  They repeat exactly: 35/35, 30/30
	// and 33/34 with packed rows, pinned here at +10%; a value per JSON
	// object took 94/140, 313/313 and 230/257.  A pin may only move down.
	decodeAllocs := map[int][2]float64{1: {38, 38}, 2: {33, 33}, 3: {36, 37}}
	eval := core.NewEvaluator(ds.DB, ds.Mappings())
	for id := 1; id <= 3; id++ {
		q := datagen.MustWorkloadQuery(id)
		text, err := q.SQL()
		if err != nil {
			t.Fatal(err)
		}
		prep, err := eval.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []core.Method{core.MethodEBasic, core.MethodEMQO, core.MethodQSharing, core.MethodOSharing} {
			label := fmt.Sprintf("Q%d/%s", id, m)
			want, err := prep.Execute(core.Options{Method: m, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s unsharded: %v", label, err)
			}
			shipped := int64(0)
			for i, node := range nodes {
				sr, err := node.Scatter(ctx, ScatterRequest{Scenario: "excel", Query: text, Method: m.String()})
				if err != nil {
					t.Fatalf("%s shard %d: %v", label, i, err)
				}
				body, err := json.Marshal(sr)
				if err != nil {
					t.Fatal(err)
				}
				decode := func() (*core.ShardRun, error) {
					var sr ScatterResponse
					if err := json.Unmarshal(body, &sr); err != nil {
						return nil, err
					}
					return unpackRun(&sr)
				}
				run, err := decode()
				if err != nil {
					t.Fatalf("%s shard %d: %v", label, i, err)
				}
				rows := 0
				for _, g := range run.Groups {
					rows += len(g.Rows)
				}
				if m == core.MethodEBasic {
					if allocs := testing.AllocsPerRun(10, func() { _, _ = decode() }); allocs > decodeAllocs[id][i] {
						t.Errorf("%s shard %d: decoding and unpacking its %d-byte body takes %.0f allocations, pinned at %.0f", label, i, len(body), allocs, decodeAllocs[id][i])
					}
				}
				if m != core.MethodOSharing && (len(sr.Groups) != pinned[id][0] || rows != pinned[id][1+i]) {
					t.Errorf("%s shard %d ships %d rows in %d groups, want %d in %d", label, i, rows, len(sr.Groups), pinned[id][1+i], pinned[id][0])
				}
				shipped += int64(rows)
			}
			before := coord.Metrics().ScatterRows
			got, err := coord.Query(ctx, Request{Scenario: "excel", Query: text, Method: m.String()})
			if err != nil {
				t.Fatalf("%s coordinated: %v", label, err)
			}
			if moved := coord.Metrics().ScatterRows - before; moved != shipped {
				t.Errorf("%s: scatter_rows grew by %d, the shards ship %d", label, moved, shipped)
			}
			if len(got.Result.Answers) != len(want.Answers) {
				t.Fatalf("%s: %d answers, want %d", label, len(got.Result.Answers), len(want.Answers))
			}
			for i, w := range want.Answers {
				g := got.Result.Answers[i]
				if g.Tuple.Key() != w.Tuple.Key() || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
					t.Fatalf("%s: answer %d = %v@%v, want %v@%v bit for bit", label, i, g.Tuple, g.Prob, w.Tuple, w.Prob)
				}
			}
			if math.Float64bits(got.Result.EmptyProb) != math.Float64bits(want.EmptyProb) {
				t.Fatalf("%s: empty probability %v, want %v bit for bit", label, got.Result.EmptyProb, want.EmptyProb)
			}
		}
	}
}

// benchmarkFixture is the dataset the benchmark's scatter_read serves.
var benchmarkFixture = datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42}

// shardNodes generates a dataset and builds two shard nodes over it, each
// holding its hash slice of Orders.o_orderkey as a scenario named after the
// target in lower case ("excel").
func shardNodes(tb testing.TB, opts datagen.DatasetOptions) (*datagen.Dataset, []*Server) {
	tb.Helper()
	ds, err := datagen.NewDataset(opts)
	if err != nil {
		tb.Fatal(err)
	}
	spec := shard.Spec{Relation: "Orders", Column: "o_orderkey", Shards: 2, Kind: shard.KindHash}
	part, err := shard.NewPartitioner(ds.DB, spec)
	if err != nil {
		tb.Fatal(err)
	}
	nodes := make([]*Server, spec.Shards)
	for i := range nodes {
		slice, err := part.Slice(ds.DB, i)
		if err != nil {
			tb.Fatal(err)
		}
		reg := NewRegistry()
		if _, err := reg.Register(context.Background(), strings.ToLower(string(opts.Target)), datagen.TargetSchema(opts.Target), slice, ds.Mappings(), RegisterOptions{}); err != nil {
			tb.Fatal(err)
		}
		nodes[i] = New(reg, Config{Shard: &ShardIdentity{Node: fmt.Sprintf("shard-%d", i), Index: i, Count: spec.Shards,
			Relation: spec.Relation, Column: spec.Column, Kind: spec.Kind.String()}})
	}
	return ds, nodes
}

// TestCoordinatorWorkloadQueries: every workload query Q1–Q10 on its target,
// under every method and as top-3, answers through a coordinator over two
// shard nodes exactly as an unsharded node does — tuples, probability bits
// and order — or, where the plan self-joins or aggregates Orders, is refused
// as not distributable.
func TestCoordinatorWorkloadQueries(t *testing.T) {
	ctx := context.Background()
	asked, distributed := 0, 0
	for _, target := range datagen.AllTargets() {
		ds, nodes := shardNodes(t, datagen.DatasetOptions{Target: target, NumMappings: 20, SizeMB: 10, Seed: 42})
		coord, err := NewCoordinator(CoordinatorConfig{Shards: len(nodes)})
		if err != nil {
			t.Fatal(err)
		}
		for i, node := range nodes {
			srv := httptest.NewServer(node)
			defer srv.Close()
			if err := coord.Leases().Heartbeat(node.cfg.Shard.Node, srv.URL, []int{i}); err != nil {
				t.Fatal(err)
			}
		}
		name := strings.ToLower(string(target))
		reg := NewRegistry()
		if _, err := reg.Register(ctx, name, datagen.TargetSchema(target), ds.DB, ds.Mappings(), RegisterOptions{}); err != nil {
			t.Fatal(err)
		}
		ref := New(reg, Config{})
		for id := 1; id <= 10; id++ {
			if tn, err := datagen.QueryTarget(id); err != nil || tn != target {
				continue
			}
			text, err := datagen.MustWorkloadQuery(id).SQL()
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range []Request{{Method: "basic"}, {Method: "e-basic"}, {Method: "e-mqo"}, {Method: "q-sharing"}, {Method: "o-sharing"}, {TopK: 3}} {
				req.Scenario, req.Query = name, text
				label := fmt.Sprintf("Q%d %s top-%d", id, req.Method, req.TopK)
				want, err := ref.Do(ctx, req)
				if err != nil {
					t.Fatalf("%s unsharded: %v", label, err)
				}
				asked++
				got, err := coord.Query(ctx, req)
				if errors.Is(err, ErrNotDistributable) {
					continue
				}
				if err != nil {
					t.Fatalf("%s coordinated: %v", label, err)
				}
				sameResult(t, label, want.Result, got.Result)
				distributed++
			}
		}
	}
	t.Logf("%d of %d requests distributed", distributed, asked)
	if distributed == 0 {
		t.Fatal("no workload query distributed")
	}
}
