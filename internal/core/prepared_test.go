package core

import (
	"context"
	"errors"
	"testing"

	"github.com/probdb/urm/internal/engine"
)

// identicalRuns extends identicalResults with the operator-count and
// bookkeeping fields the prepared path must reproduce exactly: the prepared
// front half is precisely what the cold path recomputes, so nothing observable
// may differ.
func identicalRuns(t *testing.T, label string, want, got *Result) {
	t.Helper()
	identicalResults(t, label, want, got)
	if w, g := want.Stats.Operators(), got.Stats.Operators(); len(w) != len(g) {
		t.Errorf("%s: operator kinds %v, want %v", label, g, w)
	} else {
		for kind, n := range w {
			if g[kind] != n {
				t.Errorf("%s: %s operators = %d, want %d", label, kind, g[kind], n)
			}
		}
	}
	if want.Stats.IndexLookups() != got.Stats.IndexLookups() {
		t.Errorf("%s: index lookups = %d, want %d", label, got.Stats.IndexLookups(), want.Stats.IndexLookups())
	}
	if want.RewrittenQueries != got.RewrittenQueries {
		t.Errorf("%s: rewritten queries = %d, want %d", label, got.RewrittenQueries, want.RewrittenQueries)
	}
	if want.ExecutedQueries != got.ExecutedQueries {
		t.Errorf("%s: executed queries = %d, want %d", label, got.ExecutedQueries, want.ExecutedQueries)
	}
	if want.Partitions != got.Partitions {
		t.Errorf("%s: partitions = %d, want %d", label, got.Partitions, want.Partitions)
	}
}

// collectCursor drains a cursor into an Answers slice plus the result metadata.
func collectCursor(t *testing.T, cur *Cursor) *Result {
	t.Helper()
	res := *cur.Result()
	if res.Answers != nil {
		t.Errorf("streamed Result.Answers = %v, want nil (streaming must not materialize)", res.Answers)
	}
	answers := make([]Answer, 0, cur.Len())
	for cur.Next() {
		answers = append(answers, cur.Answer())
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor close: %v", err)
	}
	if cur.Next() {
		t.Error("Next after Close returned true")
	}
	res.Answers = answers
	return &res
}

// TestPreparedMatchesUnprepared is the prepared-query property test: for every
// method (and top-k), at parallelism 1 and 8, a prepared query re-executed any
// number of times returns answers bit-identical to a cold Evaluate — same
// tuples, probabilities, order, operator counts and bookkeeping.
func TestPreparedMatchesUnprepared(t *testing.T) {
	db := paperInstance()
	maps := mappingSetTimes8(t)
	methods := []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing}

	for _, qc := range runtimeQueries {
		q := mustParse(t, qc.name, qc.text)
		ev := NewEvaluator(db, maps)
		prep, err := ev.Prepare(q)
		if err != nil {
			t.Fatalf("%s: prepare: %v", qc.name, err)
		}
		for _, m := range methods {
			for _, parallelism := range []int{1, 8} {
				opts := Options{Method: m, Parallelism: parallelism}
				cold, err := ev.Evaluate(q, opts)
				if err != nil {
					t.Fatalf("%s/%s/p%d cold: %v", qc.name, m, parallelism, err)
				}
				// Twice: the first execution builds the front half, the second
				// reuses the memoized state.
				for run := 0; run < 2; run++ {
					got, err := prep.Execute(opts)
					if err != nil {
						t.Fatalf("%s/%s/p%d prepared run %d: %v", qc.name, m, parallelism, run, err)
					}
					label := qc.name + "/" + m.String() + "/prepared"
					identicalRuns(t, label, cold, got)
				}
			}
		}
		// Top-k (sequential by design).
		for _, k := range []int{1, 3} {
			cold, err := evaluateTopK(ev, q, k, Options{})
			if err != nil {
				t.Fatalf("%s/topk%d cold: %v", qc.name, k, err)
			}
			got, err := executeTopK(prep, k, Options{})
			if err != nil {
				t.Fatalf("%s/topk%d prepared: %v", qc.name, k, err)
			}
			identicalRuns(t, qc.name+"/topk/prepared", cold, got)
		}
	}
}

// TestStreamedMatchesMaterialized pins the streaming contract: the cursor
// yields exactly the answers (values, probabilities, order) a materialized
// execution returns, for every method and top-k, at parallelism 1 and 8.
func TestStreamedMatchesMaterialized(t *testing.T) {
	db := paperInstance()
	maps := mappingSetTimes8(t)
	methods := []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing}

	for _, qc := range runtimeQueries {
		q := mustParse(t, qc.name, qc.text)
		prep, err := NewEvaluator(db, maps).Prepare(q)
		if err != nil {
			t.Fatalf("%s: prepare: %v", qc.name, err)
		}
		for _, m := range methods {
			for _, parallelism := range []int{1, 8} {
				opts := Options{Method: m, Parallelism: parallelism}
				mat, err := prep.ExecuteContext(context.Background(), opts)
				if err != nil {
					t.Fatalf("%s/%s/p%d materialized: %v", qc.name, m, parallelism, err)
				}
				cur, err := prep.StreamContext(context.Background(), opts)
				if err != nil {
					t.Fatalf("%s/%s/p%d stream: %v", qc.name, m, parallelism, err)
				}
				if cur.Len() != len(mat.Answers) {
					t.Errorf("%s/%s: cursor Len = %d, want %d", qc.name, m, cur.Len(), len(mat.Answers))
				}
				streamed := collectCursor(t, cur)
				identicalRuns(t, qc.name+"/"+m.String()+"/streamed", mat, streamed)
			}
		}
		matTop, err := executeTopK(prep, 2, Options{})
		if err != nil {
			t.Fatalf("%s/topk materialized: %v", qc.name, err)
		}
		curTop, err := prep.StreamContext(context.Background(), Options{TopK: 2})
		if err != nil {
			t.Fatalf("%s/topk stream: %v", qc.name, err)
		}
		identicalRuns(t, qc.name+"/topk/streamed", matTop, collectCursor(t, curTop))
	}
}

// TestPreparedSeesAppendedRows pins the data-freshness contract: prepared
// plans reference base relations by name, so an execution after
// Relation.Append sees the new rows, and re-preparing gives the same answers
// as the already-prepared query.
func TestPreparedSeesAppendedRows(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	ev := NewEvaluator(db, maps)
	prep, err := ev.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing} {
		if _, err := prep.Execute(Options{Method: m}); err != nil {
			t.Fatalf("%s warm-up: %v", m, err)
		}
	}

	// Dave lives at "aaa" (home and office) with a distinctive phone number.
	cust := db.Relation("Customer")
	if err := cust.Append(engine.Tuple{
		engine.I(4), engine.S("Dave"), engine.S("999"), engine.S("999"),
		engine.S("999"), engine.S("aaa"), engine.S("aaa"), engine.I(1),
	}); err != nil {
		t.Fatal(err)
	}

	for _, m := range []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing} {
		got, err := prep.Execute(Options{Method: m})
		if err != nil {
			t.Fatalf("%s after append: %v", m, err)
		}
		if got.Lookup(engine.Tuple{engine.S("999")}) == 0 {
			t.Errorf("%s: prepared execution after Append does not see the new row", m)
		}
		// Re-preparing from scratch must agree exactly with the old prepared
		// query on the new data.
		fresh, err := ev.Prepare(q)
		if err != nil {
			t.Fatalf("%s re-prepare: %v", m, err)
		}
		want, err := fresh.Execute(Options{Method: m})
		if err != nil {
			t.Fatalf("%s re-prepared execute: %v", m, err)
		}
		identicalRuns(t, m.String()+"/after-append", want, got)
	}
}

// TestOptionsValidate exercises the option-validation satellite: negative
// parallelism or batch size, unknown methods/strategies and non-positive k are
// rejected with errors wrapping ErrBadOptions, on both the cold and the
// prepared paths.
func TestOptionsValidate(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	ev := NewEvaluator(db, maps)
	prep, err := ev.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name string
		opts Options
	}{
		{"negative parallelism", Options{Method: MethodBasic, Parallelism: -1}},
		{"unknown method", Options{Method: Method(42)}},
		{"unknown strategy", Options{Method: MethodOSharing, Strategy: Strategy(9)}},
	}
	for _, tc := range bad {
		if err := tc.opts.Validate(); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Validate %s: err = %v, want ErrBadOptions", tc.name, err)
		}
		if _, err := ev.Evaluate(q, tc.opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Evaluate %s: err = %v, want ErrBadOptions", tc.name, err)
		}
		if _, err := prep.Execute(tc.opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("prepared Execute %s: err = %v, want ErrBadOptions", tc.name, err)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options should validate, got %v", err)
	}
	if _, err := evaluateTopK(ev, q, 0, Options{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("EvaluateTopK k=0: err = %v, want ErrBadOptions", err)
	}
	if _, err := executeTopK(prep, -1, Options{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("prepared ExecuteTopK k=-1: err = %v, want ErrBadOptions", err)
	}

	// Cancellation still aborts prepared executions promptly.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prep.ExecuteContext(cancelled, Options{Method: MethodQSharing}); !errors.Is(err, context.Canceled) {
		t.Errorf("prepared cancelled: err = %v, want context.Canceled", err)
	}
	if _, err := prep.StreamContext(cancelled, Options{Method: MethodOSharing}); !errors.Is(err, context.Canceled) {
		t.Errorf("prepared stream cancelled: err = %v, want context.Canceled", err)
	}
}
