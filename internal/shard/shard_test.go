package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
)

// testSpec partitions the generated source's Orders relation, which most
// Excel workload queries reach through the possible mappings.
func testSpec(kind Kind, shards int) Spec {
	return Spec{Relation: "Orders", Column: "o_orderkey", Shards: shards, Kind: kind}
}

func testDataset(t *testing.T, mappings int, seed uint64) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.NewDataset(datagen.DatasetOptions{
		Target:      datagen.TargetExcel,
		NumMappings: mappings,
		SizeMB:      1.5,
		Seed:        seed,
	})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	return ds
}

// identical asserts bit-identical results: same answer values, probabilities
// (exact float equality), order, and empty-answer probability.
func identical(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("%s: %d answers, want %d", label, len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		w, g := want.Answers[i], got.Answers[i]
		if !g.Tuple.Equal(w.Tuple) {
			t.Fatalf("%s: answer %d tuple %v, want %v", label, i, g.Tuple, w.Tuple)
		}
		if g.Prob != w.Prob {
			t.Fatalf("%s: answer %d prob %v, want %v (tuple %v)", label, i, g.Prob, w.Prob, w.Tuple)
		}
	}
	if got.EmptyProb != want.EmptyProb {
		t.Fatalf("%s: empty prob %v, want %v", label, got.EmptyProb, want.EmptyProb)
	}
}

var allMethods = []core.Method{
	core.MethodBasic, core.MethodEBasic, core.MethodEMQO, core.MethodQSharing, core.MethodOSharing,
}

// TestShardedBitIdentical is the tentpole property test: over a randomized
// scenario, every method — and top-k for k ∈ {1, 3, 10} under every strategy —
// produces bit-identical answers (tuples, probability bits, order and empty
// mass) at shards=1, 4 and 8 with both partitioners, compared against
// unsharded prepared evaluation.
func TestShardedBitIdentical(t *testing.T) {
	ds := testDataset(t, 16, 3)
	eval := core.NewEvaluator(ds.DB, ds.Mappings())
	ctx := context.Background()

	// Q1 select chain, Q2 join, Q3/Q4 self-joins (exercise the
	// non-distributable fallback), Q5 aggregate (ditto); query 0 projects a
	// low-cardinality column over a join, so its groups emit more rows than
	// distinct tuples and every shard deduplicates before the merge does.
	lowCardinality, err := query.Parse("Q0", datagen.TargetSchema(datagen.TargetExcel),
		"SELECT PO.priority FROM PO, Item WHERE PO.orderNum = Item.orderNum")
	if err != nil {
		t.Fatalf("Q0 parse: %v", err)
	}
	evaluators := map[Kind]map[int]*Evaluator{}
	for _, kind := range []Kind{KindHash, KindRange} {
		evaluators[kind] = map[int]*Evaluator{}
		for _, n := range []int{1, 4, 8} {
			if evaluators[kind][n], err = NewEvaluator(ds.DB, testSpec(kind, n)); err != nil {
				t.Fatalf("evaluator %s/%d: %v", kind, n, err)
			}
		}
	}
	for _, qid := range []int{1, 2, 3, 5, 0} {
		q := lowCardinality
		if qid != 0 {
			q = datagen.MustWorkloadQuery(qid)
		}
		prep, err := eval.Prepare(q)
		if err != nil {
			t.Fatalf("Q%d prepare: %v", qid, err)
		}
		for _, m := range allMethods {
			opts := core.Options{Method: m, Parallelism: 4}
			want, err := prep.ExecuteContext(ctx, opts)
			if err != nil {
				t.Fatalf("Q%d %s unsharded: %v", qid, m, err)
			}
			for _, kind := range []Kind{KindHash, KindRange} {
				for _, n := range []int{1, 4, 8} {
					ev, err := NewEvaluator(ds.DB, testSpec(kind, n))
					if err != nil {
						t.Fatalf("evaluator %s/%d: %v", kind, n, err)
					}
					got, err := ev.Execute(ctx, prep, opts)
					if err != nil {
						t.Fatalf("Q%d %s %s/%d: %v", qid, m, kind, n, err)
					}
					identical(t, fmt.Sprintf("Q%d %s %s/%d", qid, m, kind, n), want, got)
				}
			}
		}
		// Top-k is o-sharing's walk merged into the top-k bounds: it
		// distributes where o-sharing does and falls back where it does not
		// (Q3, Q5), and matches the unsharded walk exactly either way.
		for _, st := range []core.Strategy{core.StrategySEF, core.StrategySNF, core.StrategyRandom} {
			for _, k := range []int{1, 3, 10} {
				opts := core.Options{Method: core.MethodOSharing, Strategy: st, TopK: k}
				want, err := prep.ExecuteContext(ctx, opts)
				if err != nil {
					t.Fatalf("Q%d %s top-%d unsharded: %v", qid, st, k, err)
				}
				for _, kind := range []Kind{KindHash, KindRange} {
					for _, n := range []int{1, 4, 8} {
						label := fmt.Sprintf("Q%d %s top-%d %s/%d", qid, st, k, kind, n)
						got, err := evaluators[kind][n].Execute(ctx, prep, opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						identical(t, label, want, got)
						if got.Method != core.MethodTopK {
							t.Fatalf("%s: method %v, want top-k", label, got.Method)
						}
					}
				}
			}
		}
	}
}

// TestShardedTopKStopsEarly covers the case TestShardedBitIdentical's
// fixture never reaches: a top-k walk that stops before its last leaf.  On
// this scenario Q1's top-1 is decided early under every strategy — the mass
// of the leaves it never reaches is missing from its empty answer or its
// lower bound — and the shards, which walk the whole trace, must merge into
// bounds that stop at the same leaf.
func TestShardedTopKStopsEarly(t *testing.T) {
	ds := testDataset(t, 40, 7)
	prep, err := core.NewEvaluator(ds.DB, ds.Mappings()).Prepare(datagen.MustWorkloadQuery(1))
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ctx := context.Background()
	for _, st := range []core.Strategy{core.StrategySEF, core.StrategySNF, core.StrategyRandom} {
		full, err := prep.ExecuteContext(ctx, core.Options{Method: core.MethodOSharing, Strategy: st})
		if err != nil {
			t.Fatalf("%s o-sharing: %v", st, err)
		}
		opts := core.Options{Method: core.MethodOSharing, Strategy: st, TopK: 1}
		want, err := prep.ExecuteContext(ctx, opts)
		if err != nil {
			t.Fatalf("%s top-1: %v", st, err)
		}
		if len(want.Answers) != 1 || want.EmptyProb == full.EmptyProb && want.Answers[0].Prob == full.Lookup(want.Answers[0].Tuple) {
			t.Fatalf("%s: top-1 %v (empty %v) did not stop before the last leaf: exact %v (empty %v)",
				st, want.Answers, want.EmptyProb, full.Answers, full.EmptyProb)
		}
		for _, kind := range []Kind{KindHash, KindRange} {
			for _, n := range []int{1, 4, 8} {
				ev, err := NewEvaluator(ds.DB, testSpec(kind, n))
				if err != nil {
					t.Fatalf("evaluator %s/%d: %v", kind, n, err)
				}
				got, err := ev.Execute(ctx, prep, opts)
				if err != nil {
					t.Fatalf("%s %s/%d: %v", st, kind, n, err)
				}
				identical(t, fmt.Sprintf("Q1 %s top-1 %s/%d", st, kind, n), want, got)
			}
		}
	}
}

// TestShardedDistributes pins that sharding is not fallback-in-disguise: Q1
// under e-basic, under o-sharing and as a top-k run actually scatters (no
// fallback recorded).
func TestShardedDistributes(t *testing.T) {
	ds := testDataset(t, 12, 7)
	eval := core.NewEvaluator(ds.DB, ds.Mappings())
	prep, err := eval.Prepare(datagen.MustWorkloadQuery(1))
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ev, err := NewEvaluator(ds.DB, testSpec(KindHash, 4))
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	if _, err := ev.Execute(context.Background(), prep, core.Options{Method: core.MethodEBasic}); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if n := ev.Fallbacks(); n != 0 {
		t.Fatalf("Q1 e-basic fell back %d times; expected a genuine scatter", n)
	}
	if _, err := ev.Execute(context.Background(), prep, core.Options{Method: core.MethodOSharing}); err != nil {
		t.Fatalf("o-sharing execute: %v", err)
	}
	if n := ev.Fallbacks(); n != 0 {
		t.Fatalf("Q1 o-sharing fell back %d times; expected a genuine scatter", n)
	}
	if _, err := ev.Execute(context.Background(), prep, core.Options{Method: core.MethodOSharing, TopK: 3}); err != nil {
		t.Fatalf("top-k execute: %v", err)
	}
	if n := ev.Fallbacks(); n != 0 {
		t.Fatalf("Q1 top-3 fell back %d times; expected a genuine scatter", n)
	}
}

// TestShardedPruneMarks shows the merge's prune rule is exercised, not
// vacuous.  Over Q0–Q3 and every strategy, with both partitioners at 2, 3 and
// 8 shards, o-sharing's walk prunes u-trace nodes on some shards only — where
// the merge must descend and let the leaves below add their masses — and on
// every shard — where it must add the node's mass once; the merged answers
// are bit-identical to unsharded ones either way.  On this fixture a merge
// that descended into every pruned node would move Q1's empty probability by
// its last bit.
func TestShardedPruneMarks(t *testing.T) {
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 16, SizeMB: 2, Seed: 1})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	eval := core.NewEvaluator(ds.DB, ds.Mappings())
	ec := exec.NewContext(context.Background(), 1)
	lowCardinality, err := query.Parse("Q0", datagen.TargetSchema(datagen.TargetExcel),
		"SELECT PO.priority FROM PO, Item WHERE PO.orderNum = Item.orderNum")
	if err != nil {
		t.Fatalf("Q0 parse: %v", err)
	}
	someShards, everyShard := 0, 0
	for qid, q := range []*query.Query{lowCardinality, datagen.MustWorkloadQuery(1), datagen.MustWorkloadQuery(2), datagen.MustWorkloadQuery(3)} {
		prep, err := eval.Prepare(q)
		if err != nil {
			t.Fatalf("Q%d prepare: %v", qid, err)
		}
		for _, st := range []core.Strategy{core.StrategySEF, core.StrategySNF, core.StrategyRandom} {
			opts := core.Options{Method: core.MethodOSharing, Strategy: st, Parallelism: 1}
			want, err := prep.ExecuteContext(ec.Ctx(), opts)
			if err != nil {
				t.Fatalf("Q%d %s unsharded: %v", qid, st, err)
			}
			sp, err := prep.FrontHalf(ec, opts)
			if err != nil {
				t.Fatalf("Q%d %s front half: %v", qid, st, err)
			}
			if !sp.DistributesOver("Orders") {
				continue
			}
			for _, kind := range []Kind{KindHash, KindRange} {
				for _, n := range []int{2, 3, 8} {
					p, err := NewPartitioner(ds.DB, testSpec(kind, n))
					if err != nil {
						t.Fatal(err)
					}
					shards, err := p.Partition(ds.DB)
					if err != nil {
						t.Fatal(err)
					}
					runs, err := ExecuteShards(ec, sp, shards)
					if err != nil {
						t.Fatalf("Q%d %s %s/%d: %v", qid, st, kind, n, err)
					}
					identical(t, fmt.Sprintf("Q%d %s %s/%d", qid, st, kind, n), want, sp.Result(q, 0, runs...))
					// The internal nodes the merge visits, by how many shards
					// pruned them at or above.
					for gi := 0; gi < len(sp.Groups); gi++ {
						if sp.Groups[gi].Below == 0 {
							continue
						}
						marked := 0
						for _, run := range runs {
							if run.Pruned[gi] {
								marked++
							}
						}
						switch {
						case marked == len(runs):
							everyShard++
							gi += sp.Groups[gi].Below
						case marked > 0:
							someShards++
						}
					}
				}
			}
		}
	}
	if someShards == 0 || everyShard == 0 {
		t.Fatalf("nodes pruned on some shards only: %d, on every shard: %d; want both > 0", someShards, everyShard)
	}
	t.Logf("nodes pruned on some shards only: %d, on every shard: %d", someShards, everyShard)
}

// TestPartitionerRoundTrip checks the partitioning contract: every row lands
// on exactly one shard, the shard matches Route, and the other relations are
// replicated by reference.
func TestPartitionerRoundTrip(t *testing.T) {
	ds := testDataset(t, 8, 11)
	orders := ds.DB.Relation("Orders")
	for _, kind := range []Kind{KindHash, KindRange} {
		for _, n := range []int{1, 3, 8} {
			p, err := NewPartitioner(ds.DB, testSpec(kind, n))
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, n, err)
			}
			shards, err := p.Partition(ds.DB)
			if err != nil {
				t.Fatalf("%s/%d partition: %v", kind, n, err)
			}
			total := 0
			for si, sh := range shards {
				rel := sh.Relation("Orders")
				total += len(rel.Rows)
				for _, row := range rel.Rows {
					if got := p.Route(row); got != si {
						t.Fatalf("%s/%d: row routed to %d but stored on shard %d", kind, n, got, si)
					}
				}
				if sh.Relation("Customer") != ds.DB.Relation("Customer") {
					t.Fatalf("%s/%d: replicated relation was copied, want shared reference", kind, n)
				}
			}
			if total != len(orders.Rows) {
				t.Fatalf("%s/%d: shards hold %d rows, want %d", kind, n, total, len(orders.Rows))
			}
		}
	}
}

// TestShardedSeesAppends pins the staleness contract: rows appended to the
// base instance after partitioning are routed into the shard slices on the
// next execution, keeping sharded answers identical to unsharded ones.
func TestShardedSeesAppends(t *testing.T) {
	ds := testDataset(t, 10, 5)
	eval := core.NewEvaluator(ds.DB, ds.Mappings())
	prep, err := eval.Prepare(datagen.MustWorkloadQuery(2))
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ev, err := NewEvaluator(ds.DB, testSpec(KindHash, 4))
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	ctx := context.Background()
	opts := core.Options{Method: core.MethodQSharing}
	if _, err := ev.Execute(ctx, prep, opts); err != nil {
		t.Fatalf("warm execute: %v", err)
	}
	orders := ds.DB.Relation("Orders")
	clone := orders.Rows[0].Clone()
	clone[0] = engine.I(999999991)
	if err := orders.Append(clone); err != nil {
		t.Fatalf("append: %v", err)
	}
	want, err := prep.ExecuteContext(ctx, opts)
	if err != nil {
		t.Fatalf("unsharded after append: %v", err)
	}
	got, err := ev.Execute(ctx, prep, opts)
	if err != nil {
		t.Fatalf("sharded after append: %v", err)
	}
	identical(t, "after append", want, got)
}

// TestShardedCancellation: a cancelled context aborts the scatter (and the
// merge) with the context's error instead of returning partial answers.
func TestShardedCancellation(t *testing.T) {
	ds := testDataset(t, 10, 9)
	eval := core.NewEvaluator(ds.DB, ds.Mappings())
	prep, err := eval.Prepare(datagen.MustWorkloadQuery(2))
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ev, err := NewEvaluator(ds.DB, testSpec(KindRange, 4))
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ev.Execute(ctx, prep, core.Options{Method: core.MethodBasic})
	if err == nil {
		t.Fatalf("cancelled execute returned %d answers, want error", len(res.Answers))
	}
	if res != nil {
		t.Fatalf("cancelled execute returned a partial result alongside the error")
	}
}

// TestShardErrorFailsCleanly: a shard whose instance cannot execute the plan
// fails the whole scatter with an error and no result.
func TestShardErrorFailsCleanly(t *testing.T) {
	ds := testDataset(t, 10, 13)
	eval := core.NewEvaluator(ds.DB, ds.Mappings())
	prep, err := eval.Prepare(datagen.MustWorkloadQuery(1))
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ec := exec.NewContext(context.Background(), 2)
	sp, err := prep.FrontHalf(ec, core.Options{Method: core.MethodEBasic})
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	p, err := NewPartitioner(ds.DB, testSpec(KindHash, 3))
	if err != nil {
		t.Fatalf("partitioner: %v", err)
	}
	shards, err := p.Partition(ds.DB)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	shards[1] = engine.NewInstance("broken") // loses every relation
	runs, err := ExecuteShards(ec, sp, shards)
	if err == nil {
		t.Fatalf("scatter over a broken shard succeeded with %d runs", len(runs))
	}
	if runs != nil {
		t.Fatalf("scatter over a broken shard returned partial runs alongside the error")
	}
}

// lateTimer is a context whose deadline has passed but whose timer has not
// fired: Done stays open and Err nil, as for a real deadline while every
// processor is busy evaluating.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestShardedLateDeadlineTimerFails: a sharded execution whose deadline passed
// before it finished fails with context.DeadlineExceeded even if the
// deadline's timer never fired, as an unsharded one does, and the same
// execution under a live context answers — on the sharded branch, not the
// unsharded fallback.
func TestShardedLateDeadlineTimerFails(t *testing.T) {
	ds := testDataset(t, 12, 7)
	prep, err := core.NewEvaluator(ds.DB, ds.Mappings()).Prepare(datagen.MustWorkloadQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(ds.DB, testSpec(KindHash, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Method{core.MethodEBasic, core.MethodOSharing} {
		opts := core.Options{Method: m}
		if _, err := ev.Execute(lateTimer{context.Background()}, prep, opts); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: Execute err = %v, want context.DeadlineExceeded", m, err)
		}
		if _, err := ev.Execute(context.Background(), prep, opts); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
	if n := ev.Fallbacks(); n != 0 {
		t.Errorf("Q1 fell back to unsharded evaluation %d times, want 0", n)
	}
}
