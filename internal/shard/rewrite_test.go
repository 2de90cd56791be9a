package shard

import (
	"context"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/datagen"
)

// TestShardedExecuteReportsRewriteOnce holds the sharded path to the rule every
// path follows: the execution whose call built the group list reports the
// rewrite phase, no later one does — whether the query scatters (Q1) or its
// plans turn out not to distribute and it falls back after building them (Q5,
// an aggregate).
func TestShardedExecuteReportsRewriteOnce(t *testing.T) {
	ds := testDataset(t, 12, 7)
	eval := core.NewEvaluator(ds.DB, ds.Mappings())
	ev, err := NewEvaluator(ds.DB, testSpec(KindHash, 2))
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	for qid, fallbacks := range map[int]int{1: 0, 5: 2} {
		prep, err := eval.Prepare(datagen.MustWorkloadQuery(qid))
		if err != nil {
			t.Fatalf("Q%d prepare: %v", qid, err)
		}
		before := ev.Fallbacks()
		for call, built := range []bool{true, false} {
			res, err := ev.Execute(context.Background(), prep, core.Options{Method: core.MethodEBasic})
			if err != nil {
				t.Fatalf("Q%d call %d: %v", qid, call, err)
			}
			if built != (res.RewriteTime > 0) {
				t.Errorf("Q%d call %d: RewriteTime = %v, want > 0 only when the call built the front half (%v)", qid, call, res.RewriteTime, built)
			}
		}
		if n := ev.Fallbacks() - before; n != fallbacks {
			t.Errorf("Q%d fell back %d times in two executions, want %d", qid, n, fallbacks)
		}
	}
}
