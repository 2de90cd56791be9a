package core

import (
	"context"
	"errors"
	"testing"

	"github.com/probdb/urm/internal/engine"
)

// These tests pin the acceptance property of the shared base-relation index
// subsystem: every evaluation method (and top-k) produces bit-identical
// results — same answer tuples, same probabilities, same order, same
// empty-answer mass — with the index cache enabled and disabled, at any
// parallelism.

// indexEquivQueries covers the shapes the index accelerates (constant
// selections, conjunctions, joins over constant-filtered sides) and shapes it
// must leave alone (projections, aggregates, column comparisons).
var indexEquivQueries = []struct {
	name string
	text string
}{
	{"selection", "SELECT phone FROM Person WHERE addr = 'aaa'"},
	{"conjunction", "SELECT pname FROM Person WHERE addr = 'hk' AND phone = '123'"},
	{"projection", "SELECT pname, phone FROM Person"},
	{"join", "SELECT P.pname FROM Person P, Person Q WHERE P.phone = Q.phone AND Q.addr = 'aaa'"},
	{"aggregate", "SELECT COUNT(*) FROM Person WHERE addr = 'aaa'"},
	{"multi-relation", "SELECT total FROM Person, Order WHERE addr = 'hk' AND phone = '123'"},
}

// TestIndexedEvaluationBitIdentical evaluates every method over the paper
// fixture twice — shared indexes on and off — and requires bit-identical
// results at parallelism 1 and 8, plus identical answer row counts.
func TestIndexedEvaluationBitIdentical(t *testing.T) {
	maps := paperMappings()
	methods := []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing}
	for _, qc := range indexEquivQueries {
		q := mustParse(t, qc.name, qc.text)
		for _, m := range methods {
			for _, parallelism := range []int{1, 8} {
				indexed := paperInstance()
				plain := paperInstance()
				plain.SetIndexing(false)

				want, err := NewEvaluator(plain, maps).Evaluate(q, Options{Method: m, Parallelism: parallelism})
				if err != nil {
					t.Fatalf("%s/%s/p%d plain: %v", qc.name, m, parallelism, err)
				}
				got, err := NewEvaluator(indexed, maps).Evaluate(q, Options{Method: m, Parallelism: parallelism})
				if err != nil {
					t.Fatalf("%s/%s/p%d indexed: %v", qc.name, m, parallelism, err)
				}
				label := qc.name + "/" + m.String()
				identicalResults(t, label, want, got)
				if len(want.Answers) != len(got.Answers) {
					t.Errorf("%s: answer row counts differ: %d vs %d", label, len(got.Answers), len(want.Answers))
				}
			}
		}
	}
}

// TestIndexedTopKBitIdentical runs the probabilistic top-k algorithm with the
// index cache enabled and disabled and requires identical top-k answers.
func TestIndexedTopKBitIdentical(t *testing.T) {
	maps := paperMappings()
	for _, qc := range indexEquivQueries {
		q := mustParse(t, qc.name, qc.text)
		for _, k := range []int{1, 3} {
			indexed := paperInstance()
			plain := paperInstance()
			plain.SetIndexing(false)
			want, err := evaluateTopK(NewEvaluator(plain, maps), q, k, Options{})
			if err != nil {
				t.Fatalf("%s k=%d plain: %v", qc.name, k, err)
			}
			got, err := evaluateTopK(NewEvaluator(indexed, maps), q, k, Options{})
			if err != nil {
				t.Fatalf("%s k=%d indexed: %v", qc.name, k, err)
			}
			identicalResults(t, qc.name, want, got)
		}
	}
}

// TestIndexedEvaluationCancelledMidBuild cancels an evaluation while the first
// index build is in flight: the run must surface the context error, the
// aborted build must not poison the per-instance cache, and a subsequent run
// with a live context must produce answers identical to a non-indexed run.
func TestIndexedEvaluationCancelledMidBuild(t *testing.T) {
	db := engine.NewInstance("big")
	rel := engine.NewRelation("Customer", []string{"cid", "cname", "ophone", "hphone", "mobile", "oaddr", "haddr", "nid"})
	for i := 0; i < 50000; i++ {
		addr := "hk"
		if i%17 == 0 {
			addr = "aaa"
		}
		rel.MustAppend(engine.Tuple{
			engine.I(int64(i)), engine.S("n"), engine.S("123"), engine.S("789"),
			engine.S("555"), engine.S(addr), engine.S("hk"), engine.I(1),
		})
	}
	db.AddRelation(rel)
	ord := engine.NewRelation("C_Order", []string{"oid", "cid", "amount"})
	ord.MustAppend(engine.Tuple{engine.I(1), engine.I(1), engine.F(10)})
	db.AddRelation(ord)
	nat := engine.NewRelation("Nation", []string{"nid", "name"})
	nat.MustAppend(engine.Tuple{engine.I(1), engine.S("HK")})
	db.AddRelation(nat)

	maps := paperMappings()
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{MethodBasic, MethodOSharing} {
		if _, err := NewEvaluator(db, maps).EvaluateContext(ctx, q, Options{Method: m, Parallelism: 4}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", m, err)
		}
	}
	if n := db.Indexes().Len(); n != 0 {
		t.Fatalf("aborted builds left %d cached indexes, want 0", n)
	}

	// A live context must rebuild and agree with the non-indexed evaluation.
	got, err := NewEvaluator(db, maps).Evaluate(q, Options{Method: MethodBasic, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	db.SetIndexing(false)
	want, err := NewEvaluator(db, maps).Evaluate(q, Options{Method: MethodBasic, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	db.SetIndexing(true)
	identicalResults(t, "post-cancellation", want, got)
	if got.Stats.IndexLookups() == 0 {
		t.Error("indexed run after cancellation recorded no index lookups")
	}
}
