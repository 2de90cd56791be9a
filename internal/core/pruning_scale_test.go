package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
)

// naiveOracle evaluates the method's own source plans — its scatter groups, in
// its aggregation order — through the engine's naive reference executor, whole
// rows at every operator, into the same aggregator.  Probability bits depend
// on the order masses are added in, so each method has its own oracle.
func naiveOracle(t *testing.T, prep *Prepared, m Method) *Result {
	t.Helper()
	ec := exec.Sequential()
	sp, _, err := prep.FrontHalf(ec, Options{Method: m, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Stats: engine.NewStats()}
	agg := newAggregator()
	agg.addEmpty(sp.PreEmptyProb)
	for _, g := range sp.Groups {
		if g.Plan == nil {
			agg.addEmpty(g.Prob)
			continue
		}
		rel, err := engine.NaiveExecute(ec.Ctx(), prep.db, g.Plan, res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		agg.addRows(rel.Rows, g.Prob)
	}
	finalize(agg, res)
	return res
}

// bitIdenticalResults is identicalResults spelled out on the bits: the same
// tuples in the same order, and every probability and the empty probability
// equal as float64 bit patterns.
func bitIdenticalResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Answers) != len(got.Answers) {
		t.Fatalf("%s: %d answers, want %d", label, len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if want.Answers[i].Tuple.Key() != got.Answers[i].Tuple.Key() {
			t.Fatalf("%s: answer[%d] = %v, want %v", label, i, got.Answers[i].Tuple, want.Answers[i].Tuple)
		}
		if math.Float64bits(want.Answers[i].Prob) != math.Float64bits(got.Answers[i].Prob) {
			t.Fatalf("%s: answer[%d] probability %v, want %v bit for bit", label, i, got.Answers[i].Prob, want.Answers[i].Prob)
		}
	}
	if math.Float64bits(want.EmptyProb) != math.Float64bits(got.EmptyProb) {
		t.Fatalf("%s: empty probability %v, want %v bit for bit", label, got.EmptyProb, want.EmptyProb)
	}
}

// TestPlanMethodsAtBenchmarkScale pins the four methods that execute
// reformulated plans on the fixture the benchmark serves (Excel, 100 mappings,
// 40 MB, seed 42), where their joins and products used to build 19–25-column
// rows to keep one column.  On Q1–Q5, at parallelism 1 and 8, cold and
// prepared, every method returns the same answers in the same order with the
// same probability bits as its own plans run through the naive executor (on
// Q4, which the naive executor cannot finish, as its own first run), and the
// methods agree with basic's oracle to rounding — they add the same masses in
// different orders, so their last bits differ, as they always have.  The
// operator counts and rows read stay at their recorded values, and on the join
// queries e-basic and e-MQO build at most a fifth of the values they build
// when every product and join keeps every column — each row produced at the
// full width of the rows it pairs.  The rows read are those of set semantics
// (Executor.ExecuteSet), which skips the product and join pairs no consumer
// counts and reads a fraction of bag semantics' rows on Q2–Q4.
func TestPlanMethodsAtBenchmarkScale(t *testing.T) {
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ds.DB, ds.Mappings())
	operators := map[Method]map[int]int{
		MethodBasic:    {1: 476, 2: 579, 3: 772, 5: 588},
		MethodEBasic:   {1: 47, 2: 17, 3: 44, 4: 22, 5: 89},
		MethodEMQO:     {1: 31, 2: 13, 3: 28, 4: 17, 5: 52},
		MethodQSharing: {1: 47, 2: 17, 3: 44, 4: 22, 5: 89},
	}
	rowsRead := map[Method]map[int]int{
		MethodBasic:    {1: 2997, 2: 16916, 3: 44139, 5: 1810},
		MethodEBasic:   {1: 275, 2: 507, 3: 2306, 4: 44774, 5: 282},
		MethodEMQO:     {1: 193, 2: 461, 3: 1622, 4: 44654, 5: 183},
		MethodQSharing: {1: 275, 2: 507, 3: 2306, 4: 44774, 5: 282},
	}

	for id := 1; id <= 5; id++ {
		q := datagen.MustWorkloadQuery(id)
		prep, err := ev.Prepare(q)
		if err != nil {
			t.Fatalf("Q%d prepare: %v", id, err)
		}
		var basic *Result
		for _, m := range []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing} {
			if m == MethodBasic && id == 4 {
				continue // seconds per evaluation; the sharing methods cover Q4
			}
			var want *Result
			if id != 4 {
				want = naiveOracle(t, prep, m)
			}
			for _, par := range []int{1, 8} {
				opts := Options{Method: m, Parallelism: par}
				label := fmt.Sprintf("Q%d/%s/p%d", id, m, par)
				cold, err := ev.Evaluate(q, opts)
				if err != nil {
					t.Fatalf("%s cold: %v", label, err)
				}
				if want == nil {
					want = cold
				}
				if basic == nil {
					basic = want
				}
				bitIdenticalResults(t, label+" cold", want, cold)
				sameAnswers(t, basic, cold, label+" against basic")
				prepared, err := prep.Execute(opts)
				if err != nil {
					t.Fatalf("%s prepared: %v", label, err)
				}
				bitIdenticalResults(t, label+" prepared", want, prepared)
				for kind, res := range map[string]*Result{"cold": cold, "prepared": prepared} {
					if n := operators[m][id]; res.Stats.TotalOperators() != n {
						t.Errorf("%s %s executed %d operators (%v), want %d", label, kind, res.Stats.TotalOperators(), res.Stats.Operators(), n)
					}
					if n := rowsRead[m][id]; res.Stats.RowsRead() != n {
						t.Errorf("%s %s read %d rows, want %d", label, kind, res.Stats.RowsRead(), n)
					}
				}
				if id < 2 || id > 4 || (m != MethodEBasic && m != MethodEMQO) {
					continue
				}
				if all := allColumnsValues(t, prep, m); prepared.Stats.ValuesBuilt() > all/5 {
					t.Errorf("%s built %d values, more than a fifth of the %d it builds keeping every column", label, prepared.Stats.ValuesBuilt(), all)
				}
			}
		}
	}
}

// allColumnsValues counts the values the method's distinct plans build when
// every product and join keeps every column: the same plans through cached
// executors that know nothing about their consumers — one cache per plan for
// e-basic, one shared cache for e-MQO, whose common subexpressions run once.
func allColumnsValues(t *testing.T, prep *Prepared, m Method) int {
	t.Helper()
	cp, _, err := prep.FrontHalf(exec.Sequential(), Options{Method: MethodEBasic})
	if err != nil {
		t.Fatal(err)
	}
	stats := engine.NewStats()
	cache := engine.NewPlanCache()
	for _, g := range cp.Groups {
		if m != MethodEMQO {
			cache = engine.NewPlanCache()
		}
		ex := &engine.Executor{DB: prep.db, Stats: stats, Cache: cache, Indexes: prep.db.Indexes()}
		if _, err := ex.Execute(g.Plan); err != nil {
			t.Fatal(err)
		}
	}
	return stats.ValuesBuilt()
}
