package server

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
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
// exactly those; and the merged answers, their order, every probability's
// bits and the empty probability are the unsharded session's, o-sharing's
// u-trace nodes included.
func TestScatterAtBenchmarkScale(t *testing.T) {
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	spec := shard.Spec{Relation: "Orders", Column: "o_orderkey", Shards: 2, Kind: shard.KindHash}
	part, err := shard.NewPartitioner(ds.DB, spec)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Shards: spec.Shards})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	nodes := make([]*Server, spec.Shards)
	for i := range nodes {
		slice, err := part.Slice(ds.DB, i)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		if _, err := reg.Register(ctx, "excel", datagen.TargetSchema(datagen.TargetExcel), slice, ds.Mappings(), RegisterOptions{}); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("shard-%d", i)
		nodes[i] = New(reg, Config{Shard: &ShardIdentity{Node: name, Index: i, Count: spec.Shards,
			Relation: spec.Relation, Column: spec.Column, Kind: spec.Kind.String()}})
		srv := httptest.NewServer(nodes[i])
		defer srv.Close()
		if err := coord.Leases().Heartbeat(name, srv.URL, []int{i}); err != nil {
			t.Fatal(err)
		}
	}

	// Per query: scatter groups, then rows shipped by shard 0 and shard 1.
	pinned := map[int][3]int{1: {10, 17, 30}, 2: {3, 90, 90}, 3: {6, 62, 69}}
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
				rows := 0
				for _, g := range sr.Groups {
					rows += len(g.Rows)
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
