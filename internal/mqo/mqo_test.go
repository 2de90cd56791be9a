package mqo

import (
	"context"
	"testing"

	"github.com/probdb/urm/internal/engine"
)

func testDB() *engine.Instance {
	db := engine.NewInstance("D")
	r := engine.NewRelation("R", []string{"a", "b"})
	r.MustAppend(engine.Tuple{engine.S("x"), engine.I(1)})
	r.MustAppend(engine.Tuple{engine.S("y"), engine.I(2)})
	r.MustAppend(engine.Tuple{engine.S("x"), engine.I(3)})
	db.AddRelation(r)
	return db
}

// execute runs the plan's queries in order on executors that share the plan's
// cache, as core's group runner does, and returns one relation per query.
func execute(p *Plan, db *engine.Instance, stats *engine.Stats) ([]*engine.Relation, error) {
	cache := p.NewCache()
	out := make([]*engine.Relation, len(p.Queries))
	for i, q := range p.Queries {
		ex := &engine.Executor{DB: db, Stats: stats, Cache: cache, Indexes: db.Indexes()}
		rel, err := ex.ExecuteSet(context.Background(), q)
		if err != nil {
			return nil, err
		}
		out[i] = rel
	}
	return out, nil
}

func selPlan(col, val string, projCol string) engine.Plan {
	return &engine.ProjectPlan{
		Columns: []string{projCol},
		Child: &engine.SelectPlan{
			Pred:  engine.Eq(col, engine.S(val)),
			Child: &engine.ScanPlan{Relation: "R", Alias: "R.R"},
		},
	}
}

func TestOptimizeFindsSharedSubexpressions(t *testing.T) {
	p1 := selPlan("R.R.a", "x", "R.R.a")
	p2 := selPlan("R.R.a", "x", "R.R.b") // shares the select+scan subtree
	p3 := selPlan("R.R.a", "y", "R.R.a") // different selection
	plan, err := Optimize([]engine.Plan{p1, p2, p3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Queries) != 3 {
		t.Fatalf("queries = %d, want 3", len(plan.Queries))
	}
	// Optimal: 3 projects + 2 distinct selects = 5, of the 6 the queries
	// hold, as one execution through the plan's cache records them.
	stats := engine.NewStats()
	if _, err := execute(plan, testDB(), stats); err != nil {
		t.Fatal(err)
	}
	if n := stats.TotalOperators() - stats.Count(engine.OpKindScan); n != 5 {
		t.Errorf("operators executed = %d (%v), want 5", n, stats.Operators())
	}
	if plan.PlanningSteps == 0 {
		t.Error("plan search should record pairwise comparisons")
	}
}

func TestExecuteSharesWork(t *testing.T) {
	db := testDB()
	p1 := selPlan("R.R.a", "x", "R.R.a")
	p2 := selPlan("R.R.a", "x", "R.R.b")
	plan, err := Optimize([]engine.Plan{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	stats := engine.NewStats()
	rels, err := execute(plan, db, stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Fatalf("results = %d, want 2", len(rels))
	}
	for _, rel := range rels {
		if rel.NumRows() != 2 {
			t.Errorf("expected 2 matching rows, got %d", rel.NumRows())
		}
	}
	// The shared select executes once thanks to the cache.
	if stats.Count(engine.OpKindSelect) != 1 {
		t.Errorf("select executed %d times, want 1", stats.Count(engine.OpKindSelect))
	}
	if stats.Count(engine.OpKindProject) != 2 {
		t.Errorf("project executed %d times, want 2", stats.Count(engine.OpKindProject))
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Optimize(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Optimize([]engine.Plan{nil}); err == nil {
		t.Error("nil plan should error")
	}
}

func TestPlanningCostGrowsSuperLinearly(t *testing.T) {
	build := func(n int) []engine.Plan {
		plans := make([]engine.Plan, n)
		for i := range plans {
			plans[i] = selPlan("R.R.a", string(rune('a'+i%26))+"v", "R.R.a")
		}
		return plans
	}
	small, err := Optimize(build(10))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Optimize(build(40))
	if err != nil {
		t.Fatal(err)
	}
	// 4x the queries should cost much more than 4x the planning steps
	// (roughly cubic growth).
	if large.PlanningSteps < 16*small.PlanningSteps {
		t.Errorf("planning cost grew too slowly: %d -> %d", small.PlanningSteps, large.PlanningSteps)
	}
	if large.PlanningSteps <= small.PlanningSteps {
		t.Error("planning cost should grow with the number of queries")
	}
	_ = engine.CountOperators(small.Queries[0])
}

// TestSharedJoinCarriesEveryConsumersColumns shares one join between queries
// that read different columns of it: the join runs once and its one
// materialization carries the union of what they read — fewer values than the
// whole join row, none of them missing.  The live-column analysis behind it is
// the plan's own: Optimize computes it once and executions only read it.
func TestSharedJoinCarriesEveryConsumersColumns(t *testing.T) {
	db := testDB()
	s := engine.NewRelation("S", []string{"b", "c", "d", "e"})
	for i := 1; i <= 3; i++ {
		s.MustAppend(engine.Tuple{engine.I(int64(i)), engine.S("c"), engine.S("d"), engine.I(int64(10 * i))})
	}
	db.AddRelation(s)
	join := func() engine.Plan {
		return &engine.JoinPlan{LeftCol: "R.b", RightCol: "S.b",
			Left:  &engine.ScanPlan{Relation: "R"},
			Right: &engine.SelectPlan{Pred: engine.Eq("S.c", engine.S("c")), Child: &engine.ScanPlan{Relation: "S"}}}
	}
	plan, err := Optimize([]engine.Plan{
		&engine.ProjectPlan{Columns: []string{"R.a"}, Child: join()},
		&engine.ProjectPlan{Columns: []string{"S.e", "R.a"}, Child: join()},
		&engine.AggregatePlan{Func: engine.AggCount, Child: join()},
	})
	if err != nil {
		t.Fatal(err)
	}
	live := plan.live
	if live == nil {
		t.Fatal("Optimize left the plan without its live-column analysis")
	}
	for run := 0; run < 3; run++ {
		stats := engine.NewStats()
		rels, err := execute(plan, db, stats)
		if err != nil {
			t.Fatal(err)
		}
		if plan.live != live {
			t.Fatalf("run %d recomputed the plan's live columns", run)
		}
		if n := stats.Count(engine.OpKindJoin); n != 1 {
			t.Fatalf("run %d executed the shared join %d times, want 1", run, n)
		}
		// The join keeps R.a and S.e of its 6 columns for 3 rows; the
		// two-column projection gathers 2 × 3 more.
		if n := stats.ValuesBuilt(); n != 12 {
			t.Fatalf("run %d built %d values, want 12", run, n)
		}
		for i, q := range plan.Queries {
			want, err := engine.NaiveExecute(context.Background(), db, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := rels[i]; got.String() != want.String() {
				t.Fatalf("run %d query %s:\n%s\nwant\n%s", run, q.Signature(), got, want)
			}
		}
	}
}
