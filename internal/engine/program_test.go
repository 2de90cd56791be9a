package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// requireIdenticalStats asserts that two runs recorded the same statistics:
// every operator count, the rows read and produced, batches, values built,
// selectivity and index lookups.  Index builds depend on what ran on the
// instance before, so they are not compared.
func requireIdenticalStats(t *testing.T, label string, want, got *Stats) {
	t.Helper()
	requireSameStats(t, label, want, got)
	w := []int{want.Batches(), want.ValuesBuilt(), want.SelectRowsIn(), want.SelectRowsOut(), want.IndexLookups()}
	g := []int{got.Batches(), got.ValuesBuilt(), got.SelectRowsIn(), got.SelectRowsOut(), got.IndexLookups()}
	if fmt.Sprint(w) != fmt.Sprint(g) {
		t.Fatalf("%s: batches, values, select in/out, lookups = %v, want %v", label, g, w)
	}
}

// growDB appends rows to each of randDB's relations, as Relation.Append does
// on a live instance.
func growDB(rng *rand.Rand, db *Instance) {
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		for i := rng.Intn(6); i >= 0; i-- {
			t := make(Tuple, len(rel.Columns))
			for j := range t {
				t[j] = randValue(rng)
			}
			t[len(t)-1] = I(int64(rng.Intn(4)))
			rel.MustAppend(t)
		}
	}
}

// TestProgramRunsLikeExecute compiles random plan families once and runs each
// program three times: on the instance it was compiled against, on a second
// instance with the same schema and other rows, and on the first after rows
// were appended to every relation.  Every run must return what a fresh
// ExecuteContext or ExecuteSet of the plan returns on the same instance, row
// for row and in order, having recorded the same statistics — with and
// without the shared index, and for a family sharing one analysed cache, run
// by programs one Compiler made.
func TestProgramRunsLikeExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	runs := 0
	for trial := 0; trial < 150; trial++ {
		plans := randPlanFamily(rng, 1+rng.Intn(3))
		db := randDB(rng, 24, 24)
		other := randDB(rng, 24, 24)
		for _, set := range []bool{false, true} {
			for _, cached := range []bool{false, true} {
				var live *LiveColumns
				if cached {
					live = AnalyzeLiveColumns(plans)
					if set {
						live = AnalyzeSetLiveColumns(plans)
					}
				}
				newCache := func() *PlanCache {
					if live == nil {
						return nil
					}
					return live.NewPlanCache()
				}
				c := NewCompiler(db, newCache())
				progs := make([]*Program, len(plans))
				failed := false
				for pi, plan := range plans {
					var err error
					if progs[pi], err = c.Compile(plan, set); err != nil {
						if _, execErr := (&Executor{DB: db, Stats: NewStats(), Cache: newCache()}).ExecuteContext(bgCtx, plan); execErr == nil || execErr.Error() != err.Error() {
							t.Fatalf("trial %d plan %d: compile error %v, ExecuteContext error %v", trial, pi, err, execErr)
						}
						failed = true
					}
				}
				if failed {
					continue
				}
				for step, inst := range []*Instance{db, other, db} {
					if step == 2 {
						growDB(rng, db)
					}
					for _, indexes := range []*IndexCache{nil, inst.Indexes()} {
						label := fmt.Sprintf("trial %d set %v cached %v run %d indexes %v", trial, set, cached, step, indexes != nil)
						wantStats, gotStats := NewStats(), NewStats()
						wantCache, gotCache := newCache(), newCache()
						for pi, plan := range plans {
							want := &Executor{DB: inst, Stats: wantStats, Indexes: indexes, Cache: wantCache}
							exec := want.ExecuteContext
							if set {
								exec = want.ExecuteSet
							}
							wantRel, wantErr := exec(bgCtx, plan)
							gotRel, gotErr := progs[pi].Run(bgCtx, &Executor{DB: inst, Stats: gotStats, Indexes: indexes, Cache: gotCache})
							if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
								t.Fatalf("%s plan %d: error %v, want %v", label, pi, gotErr, wantErr)
							}
							if wantErr == nil {
								requireSameRelation(t, fmt.Sprintf("%s plan %d %s", label, pi, plan.Signature()), wantRel, gotRel)
								runs++
							}
						}
						requireIdenticalStats(t, label, wantStats, gotStats)
					}
				}
			}
		}
	}
	if runs < 2000 {
		t.Fatalf("only %d program runs compared", runs)
	}
}

// TestProgramRejectsAnotherCache pins that a program runs only with a cache
// of the analysis it was compiled for: its sharing points are that
// analysis's, so any other cache would be read at the wrong signatures.
func TestProgramRejectsAnotherCache(t *testing.T) {
	db := errCaseDB()
	plan := &JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: &ScanPlan{Relation: "L"}, Right: &ScanPlan{Relation: "R"}}
	live := AnalyzeLiveColumns([]Plan{plan, plan})
	for _, c := range []struct {
		name          string
		compile, exec *PlanCache
	}{
		{"compiled without, run with", nil, live.NewPlanCache()},
		{"compiled with, run without", live.NewPlanCache(), nil},
		{"another analysis", live.NewPlanCache(), AnalyzeLiveColumns([]Plan{plan, plan}).NewPlanCache()},
	} {
		prog, err := Compile(db, plan, false, c.compile)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prog.Run(bgCtx, &Executor{DB: db, Stats: NewStats(), Cache: c.exec}); err == nil {
			t.Errorf("%s: ran", c.name)
		}
	}
}
