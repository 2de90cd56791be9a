package core

import (
	"fmt"
	"testing"

	"github.com/probdb/urm/internal/datagen"
)

// TestOSharingAtBenchmarkScale pins o-sharing on the fixture the benchmark
// serves (Excel, 100 mappings, 40 MB, seed 42), where extending a fragment
// with an unfiltered source relation used to dominate its cost: o-sharing and
// top-k agree with e-basic on Q1–Q5 under every strategy, at parallelism 1 and
// 8, cold and prepared; the SEF operator counts (what Table IV reports) stay
// at their recorded values; and the joins read no more than three times the
// rows e-basic reads (they read 23–38× before fragments were extended with
// the filtered relation).
func TestOSharingAtBenchmarkScale(t *testing.T) {
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ds.DB, ds.Mappings())
	sefOperators := map[int]int{1: 28, 2: 14, 3: 29, 5: 41}

	for id := 1; id <= 5; id++ {
		q := datagen.MustWorkloadQuery(id)
		want, err := ev.Evaluate(q, Options{Method: MethodEBasic, Parallelism: 1})
		if err != nil {
			t.Fatalf("Q%d e-basic: %v", id, err)
		}
		prep, err := ev.Prepare(q)
		if err != nil {
			t.Fatalf("Q%d prepare: %v", id, err)
		}
		for _, st := range []Strategy{StrategySEF, StrategySNF, StrategyRandom} {
			for _, par := range []int{1, 8} {
				opts := Options{Method: MethodOSharing, Strategy: st, Parallelism: par, RandomSeed: 7}
				label := fmt.Sprintf("Q%d/%s/p%d", id, st, par)
				cold, err := ev.Evaluate(q, opts)
				if err != nil {
					t.Fatalf("%s cold: %v", label, err)
				}
				sameAnswers(t, want, cold, label+" cold")
				prepared, err := prep.Execute(opts)
				if err != nil {
					t.Fatalf("%s prepared: %v", label, err)
				}
				identicalResults(t, label+" prepared", cold, prepared)
				if st != StrategySEF {
					continue
				}
				if n, ok := sefOperators[id]; ok && cold.Stats.TotalOperators() != n {
					t.Errorf("%s executed %d operators (%v), want %d", label, cold.Stats.TotalOperators(), cold.Stats.Operators(), n)
				}
				if id >= 2 && id <= 4 && cold.Stats.RowsRead() > 3*want.Stats.RowsRead() {
					t.Errorf("%s read %d rows, more than 3x e-basic's %d", label, cold.Stats.RowsRead(), want.Stats.RowsRead())
				}
			}

			for _, k := range []int{1, 3} {
				opts := Options{Strategy: st, RandomSeed: 7}
				label := fmt.Sprintf("Q%d/%s/top-%d", id, st, k)
				top, err := ev.EvaluateTopK(q, k, opts)
				if err != nil {
					t.Fatalf("%s cold: %v", label, err)
				}
				requireValidTopK(t, label, want, top, k)
				preparedTop, err := prep.ExecuteTopK(k, opts)
				if err != nil {
					t.Fatalf("%s prepared: %v", label, err)
				}
				identicalResults(t, label+" prepared", top, preparedTop)
			}
		}
	}
}

// requireValidTopK checks top against the exact result: it holds min(k, all)
// answers, each with an exact probability no lower than the first answer left
// out, and each reported bound no higher than the exact probability.
func requireValidTopK(t *testing.T, label string, exact, top *Result, k int) {
	t.Helper()
	label = fmt.Sprintf("%s k=%d", label, k)
	n := min(k, len(exact.Answers))
	if len(top.Answers) != n {
		t.Fatalf("%s: %d answers, want %d", label, len(top.Answers), n)
	}
	threshold := 0.0
	if n < len(exact.Answers) {
		threshold = exact.Answers[n].Prob
	}
	for _, a := range top.Answers {
		p := exact.Lookup(a.Tuple)
		if p+1e-9 < threshold {
			t.Errorf("%s: %v has exact probability %g, below the cut at %g", label, a.Tuple, p, threshold)
		}
		if a.Prob > p+1e-9 {
			t.Errorf("%s: %v reported bound %g above its exact probability %g", label, a.Tuple, a.Prob, p)
		}
	}
}
