package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/schema"
)

// runtimeQueries is the workload used by the runtime tests: selection,
// projection, join and aggregate shapes over the paper's running example, so
// every operator of every method crosses the worker pool.
var runtimeQueries = []struct {
	name string
	text string
}{
	{"selection", "SELECT phone FROM Person WHERE addr = 'aaa'"},
	{"projection", "SELECT pname, phone FROM Person"},
	{"join", "SELECT P.pname FROM Person P, Person Q WHERE P.phone = Q.phone AND Q.addr = 'aaa'"},
	{"aggregate", "SELECT COUNT(*) FROM Person WHERE addr = 'aaa'"},
}

// identicalResults asserts bit-identical answers: same tuples with the same
// probabilities in the same order, and the same empty-answer probability.
// This is stricter than sameAnswers (no epsilon): the runtime's ordered
// aggregation must reproduce the sequential float operations exactly.
func identicalResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Answers) != len(got.Answers) {
		t.Fatalf("%s: answer count %d, want %d", label, len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if want.Answers[i].Tuple.Key() != got.Answers[i].Tuple.Key() {
			t.Errorf("%s: answer[%d] tuple = %v, want %v", label, i, got.Answers[i].Tuple, want.Answers[i].Tuple)
		}
		if want.Answers[i].Prob != got.Answers[i].Prob {
			t.Errorf("%s: answer[%d] prob = %v, want %v (must be bit-identical)", label, i, got.Answers[i].Prob, want.Answers[i].Prob)
		}
	}
	if want.EmptyProb != got.EmptyProb {
		t.Errorf("%s: empty prob = %v, want %v", label, got.EmptyProb, want.EmptyProb)
	}
}

// TestMethodEquivalenceAcrossParallelism is the refactor's safety net: every
// method run at Parallelism 1 and Parallelism 8 must produce identical answer
// sets, probabilities and answer order, and (for deterministic strategies)
// identical operator statistics.
func TestMethodEquivalenceAcrossParallelism(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	methods := []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing}

	for _, qc := range runtimeQueries {
		q := mustParse(t, qc.name, qc.text)
		for _, m := range methods {
			ev := NewEvaluator(db, maps)
			seq, err := ev.Evaluate(q, Options{Method: m, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", qc.name, m, err)
			}
			par, err := ev.Evaluate(q, Options{Method: m, Parallelism: 8})
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", qc.name, m, err)
			}
			label := qc.name + "/" + m.String()
			identicalResults(t, label, seq, par)
			if seq.Stats.TotalOperators() != par.Stats.TotalOperators() {
				t.Errorf("%s: parallel executed %d operators, sequential %d",
					label, par.Stats.TotalOperators(), seq.Stats.TotalOperators())
			}
			if seq.Partitions != par.Partitions {
				t.Errorf("%s: partitions %d vs %d", label, par.Partitions, seq.Partitions)
			}
		}
	}
}

// TestOSharingRandomStrategyDeterministicAcrossParallelism pins the
// seed-derivation design: StrategyRandom must choose the same operators (and
// so execute the same operator counts) at any parallelism, because each
// u-trace node derives its seed from its position rather than from a shared
// generator.
func TestOSharingRandomStrategyDeterministicAcrossParallelism(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	q := mustParse(t, "q", "SELECT pname FROM Person WHERE addr = 'aaa' AND phone = '456'")
	for _, seed := range []int64{1, 7, 42} {
		var ops []int
		for _, parallelism := range []int{1, 8} {
			res, err := NewEvaluator(db, maps).Evaluate(q, Options{
				Method: MethodOSharing, Strategy: StrategyRandom, RandomSeed: seed, Parallelism: parallelism,
			})
			if err != nil {
				t.Fatalf("seed %d parallelism %d: %v", seed, parallelism, err)
			}
			ops = append(ops, res.Stats.TotalOperators())
		}
		if ops[0] != ops[1] {
			t.Errorf("seed %d: Random strategy executed %d operators sequentially, %d in parallel", seed, ops[0], ops[1])
		}
	}
}

// TestEvaluateContextCancelled checks that an already-cancelled context aborts
// every method promptly with context.Canceled instead of running to
// completion.
func TestEvaluateContextCancelled(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	methods := []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing}
	for _, m := range methods {
		for _, parallelism := range []int{1, 8} {
			_, err := NewEvaluator(db, maps).EvaluateContext(ctx, q, Options{Method: m, Parallelism: parallelism})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s parallelism %d: err = %v, want context.Canceled", m, parallelism, err)
			}
		}
	}
	if _, err := evaluateTopKContext(ctx, NewEvaluator(db, maps), q, 2, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("top-k: err = %v, want context.Canceled", err)
	}
}

// TestEvaluateContextDeadline checks that a deadline that expires mid-run
// surfaces context.DeadlineExceeded: the engine's operators check the context
// periodically, so even a single long-running operator stops promptly.
func TestEvaluateContextDeadline(t *testing.T) {
	// A cross join over a generated relation makes Product big enough that the
	// run cannot finish within the deadline on any machine.
	db := engine.NewInstance("big")
	rel := engine.NewRelation("Customer", []string{"cid", "cname", "ophone", "hphone", "mobile", "oaddr", "haddr", "nid"})
	for i := 0; i < 3000; i++ {
		rel.MustAppend(engine.Tuple{
			engine.I(int64(i)), engine.S("n"), engine.S("123"), engine.S("789"),
			engine.S("555"), engine.S("aaa"), engine.S("hk"), engine.I(1),
		})
	}
	db.AddRelation(rel)
	ord := engine.NewRelation("C_Order", []string{"oid", "cid", "amount"})
	for i := 0; i < 3000; i++ {
		ord.MustAppend(engine.Tuple{engine.I(int64(i)), engine.I(int64(i)), engine.F(1)})
	}
	db.AddRelation(ord)
	nat := engine.NewRelation("Nation", []string{"nid", "name"})
	nat.MustAppend(engine.Tuple{engine.I(1), engine.S("HK")})
	db.AddRelation(nat)

	maps := paperMappings()
	// A product without a join condition: O(n^2) rows, far beyond the deadline.
	// The answer reads a column of each side, so every pair is a distinct row
	// the set consumer needs.
	q := mustParse(t, "big", "SELECT P.pname, O.total FROM Person P, Order O WHERE P.addr = 'aaa' AND O.total > 0")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := NewEvaluator(db, maps).EvaluateContext(ctx, q, Options{Method: MethodBasic, Parallelism: 2})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

// lateTimer is a context whose deadline has passed but whose timer has not
// fired: Done stays open and Err nil, as for a real deadline while every
// processor is busy evaluating.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestLateDeadlineTimerFails: an evaluation whose deadline passed before it
// finished fails with context.DeadlineExceeded even if the deadline's timer
// never fired, through both the materializing and the streaming entry point,
// and the same evaluation under a live context answers.
func TestLateDeadlineTimerFails(t *testing.T) {
	prep, err := NewEvaluator(paperInstance(), paperMappings()).Prepare(mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'"))
	if err != nil {
		t.Fatal(err)
	}
	late := lateTimer{context.Background()}
	for _, m := range []Method{MethodEBasic, MethodOSharing} {
		opts := Options{Method: m}
		if _, err := prep.ExecuteContext(late, opts); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: ExecuteContext err = %v, want context.DeadlineExceeded", m, err)
		}
		if _, err := prep.StreamContext(late, opts); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: StreamContext err = %v, want context.DeadlineExceeded", m, err)
		}
		if _, err := prep.ExecuteContext(context.Background(), opts); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}

// TestEvaluatorNilAndDefaults keeps the non-context entry points working: the
// zero Options value must pick GOMAXPROCS workers and still verify against the
// sequential run.
func TestDefaultParallelismMatchesSequential(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	seq, err := NewEvaluator(db, maps).Evaluate(q, Options{Method: MethodQSharing, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := NewEvaluator(db, maps).Evaluate(q, Options{Method: MethodQSharing})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "default-parallelism", seq, def)
}

// mappingSetTimes8 inflates the paper mapping set with perturbed copies so the
// parallel paths see more than a handful of partitions.
func mappingSetTimes8(t *testing.T) schema.MappingSet {
	t.Helper()
	base := paperMappings()
	out := make(schema.MappingSet, 0, len(base)*8)
	for i := 0; i < 8; i++ {
		for _, m := range base {
			c := m.Clone()
			c.ID = c.ID + "-" + string(rune('a'+i))
			c.Prob = m.Prob / 8
			out = append(out, c)
		}
	}
	return out
}

// TestEquivalenceWiderMappingSet re-runs the equivalence check with a 40-way
// mapping set so the pool actually saturates (more partitions than workers).
func TestEquivalenceWiderMappingSet(t *testing.T) {
	db := paperInstance()
	maps := mappingSetTimes8(t)
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	for _, m := range []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing} {
		seq, err := NewEvaluator(db, maps).Evaluate(q, Options{Method: m, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", m, err)
		}
		par, err := NewEvaluator(db, maps).Evaluate(q, Options{Method: m, Parallelism: 8})
		if err != nil {
			t.Fatalf("%s parallel: %v", m, err)
		}
		identicalResults(t, m.String(), seq, par)
	}
}
