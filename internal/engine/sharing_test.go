package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// planConsumers walks the plans as a cached executor reaches them and returns,
// per signature, its distinct consumers — "root i" or "parent signature #
// child slot" — written independently of the analysis it checks.
func planConsumers(plans []Plan) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	var walk func(p Plan, by string)
	walk = func(p Plan, by string) {
		sig := p.Signature()
		if out[sig] == nil {
			out[sig] = make(map[string]bool)
		}
		out[sig][by] = true
		for i, c := range p.Children() {
			walk(c, fmt.Sprintf("%s#%d", sig, i))
		}
	}
	for i, p := range plans {
		walk(p, fmt.Sprintf("root %d", i))
	}
	return out
}

// operatorOccurrences counts the plan's nodes per operator kind; with once, a
// subtree whose signature was already walked is skipped, which is what a cache
// executes.
func operatorOccurrences(p Plan, once bool) [numOpKinds]int {
	var counts [numOpKinds]int
	seen := make(map[string]bool)
	var walk func(p Plan)
	walk = func(p Plan) {
		if once {
			sig := p.Signature()
			if seen[sig] {
				return
			}
			seen[sig] = true
		}
		switch p.(type) {
		case *ScanPlan:
			counts[OpKindScan]++
		case *SelectPlan:
			counts[OpKindSelect]++
		case *ProjectPlan:
			counts[OpKindProject]++
		case *ProductPlan:
			counts[OpKindProduct]++
		case *JoinPlan:
			counts[OpKindJoin]++
		case *DistinctPlan:
			counts[OpKindDistinct]++
		case *AggregatePlan:
			counts[OpKindAggregate]++
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(p)
	return counts
}

// TestCachedExecutorIsTheBatchDriver runs single plans, indexes on, through an
// executor with the plan's own analysed cache and through one without a cache.
// There is one driver, so a plan in which no signature repeats has no sharing
// point and must record exactly what the uncached run records — operator
// counts, rows read and produced, index lookups: the physical decisions are the
// same ones.  Where a signature repeats, the cached run executes each operator
// of the repeated subtree once instead of once per occurrence and nothing else
// differs in the counts.  (Scans are only bounded: an index-served selection or
// join reads no scan in either run.)
func TestCachedExecutorIsTheBatchDriver(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	plain, repeating := 0, 0
	for trial := 0; trial < 400; trial++ {
		db := randDB(rng, 50, 40)
		plan := randIndexedPlan(rng)
		if trial%2 == 1 {
			plan = randPlan(rng)
		}
		label := fmt.Sprintf("trial %d plan %s", trial, plan.Signature())
		plainEx := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes()}
		want, err1 := plainEx.ExecuteContext(bgCtx, plan)
		cachedEx := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes(), Cache: AnalyzeLiveColumns([]Plan{plan}).NewPlanCache()}
		got, err2 := cachedEx.ExecuteContext(bgCtx, plan)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: uncached err=%v, cached err=%v", label, err1, err2)
		}
		if err1 != nil {
			continue
		}
		requireSameRelation(t, label, want, got)

		all, once := operatorOccurrences(plan, false), operatorOccurrences(plan, true)
		if all == once {
			plain++
			requireSameStats(t, label, plainEx.Stats, cachedEx.Stats)
			if plainEx.Stats.IndexLookups() != cachedEx.Stats.IndexLookups() {
				t.Fatalf("%s: %d index lookups with a cache, %d without", label, cachedEx.Stats.IndexLookups(), plainEx.Stats.IndexLookups())
			}
			if cachedEx.Cache.Len() != 0 {
				t.Fatalf("%s: %d results cached for a plan without a sharing point", label, cachedEx.Cache.Len())
			}
			continue
		}
		repeating++
		for k := OpKindSelect; k < numOpKinds; k++ {
			if want := plainEx.Stats.Count(k) - (all[k] - once[k]); cachedEx.Stats.Count(k) != want {
				t.Fatalf("%s: %s count = %d with a cache, want %d (%d without, %d of them repeats)", label, k, cachedEx.Stats.Count(k), want, plainEx.Stats.Count(k), all[k]-once[k])
			}
		}
		if cachedEx.Stats.Count(OpKindScan) > plainEx.Stats.Count(OpKindScan) {
			t.Fatalf("%s: %d scans with a cache, %d without", label, cachedEx.Stats.Count(OpKindScan), plainEx.Stats.Count(OpKindScan))
		}
	}
	if plain < 100 || repeating < 20 {
		t.Fatalf("%d plans without and %d with a repeated signature; want both well covered", plain, repeating)
	}
}

// TestCacheHoldsSharingPointsOnly pins what a cached executor materializes: a
// signature with at least two consumers, and nothing else.  Over random
// families the cache ends up holding exactly those signatures (without
// indexes, where every node is reached; with them an index-served stack may
// never read a shared scan).
func TestCacheHoldsSharingPointsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	families := 0
	for trial := 0; trial < 200; trial++ {
		db := randDB(rng, 24, 24)
		plans := randPlanFamily(rng, 1+rng.Intn(4))
		points := 0
		for _, by := range planConsumers(plans) {
			if len(by) >= 2 {
				points++
			}
		}
		for _, indexes := range []*IndexCache{nil, db.Indexes()} {
			cache := AnalyzeLiveColumns(plans).NewPlanCache()
			stats := NewStats()
			failed := false
			for _, plan := range plans {
				ex := &Executor{DB: db, Stats: stats, Cache: cache, Indexes: indexes}
				if _, err := ex.ExecuteContext(bgCtx, plan); err != nil {
					failed = true
					break
				}
			}
			if failed {
				break
			}
			label := fmt.Sprintf("trial %d family of %d indexes %v", trial, len(plans), indexes != nil)
			if indexes == nil {
				families++
				if cache.Len() != points {
					t.Fatalf("%s: cache holds %d results, want the %d signatures with two consumers", label, cache.Len(), points)
				}
			} else if cache.Len() > points {
				t.Fatalf("%s: cache holds %d results, more than the %d signatures with two consumers", label, cache.Len(), points)
			}
		}
	}
	if families < 100 {
		t.Fatalf("only %d of 200 families ran", families)
	}
}

// TestSharingPointsBoundFusion covers the two shapes where fusing across a
// sharing point would run it twice: a product of a subexpression with itself —
// two child slots of one parent are two consumers — and a constant selection
// that is the build side of two different joins, which the index-served join
// must not absorb into either.
func TestSharingPointsBoundFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := randDB(rng, 24, 24)
	run := func(label string, plans []Plan, cached bool) *Stats {
		stats := NewStats()
		var cache *PlanCache
		if cached {
			cache = AnalyzeLiveColumns(plans).NewPlanCache()
		}
		for _, plan := range plans {
			want, err := NaiveExecute(bgCtx, db, plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			ex := &Executor{DB: db, Stats: stats, Cache: cache, Indexes: db.Indexes()}
			got, err := ex.ExecuteContext(bgCtx, plan)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameRelation(t, label+" "+plan.Signature(), want, got)
		}
		return stats
	}

	x := func() Plan {
		return &SelectPlan{Pred: &ColPredicate{Left: "L.a", Op: OpNe, Right: "L.b"}, Child: &ScanPlan{Relation: "L"}}
	}
	square := []Plan{&ProductPlan{Left: x(), Right: x()}}
	if s := run("X × X", square, false); s.Count(OpKindSelect) != 2 || s.Count(OpKindScan) != 2 {
		t.Fatalf("uncached X × X ran %d selects over %d scans, want 2 over 2", s.Count(OpKindSelect), s.Count(OpKindScan))
	}
	if s := run("X × X cached", square, true); s.Count(OpKindSelect) != 1 || s.Count(OpKindScan) != 1 || s.Count(OpKindProduct) != 1 {
		t.Fatalf("cached X × X ran %v, want one select, one scan, one product", s.Operators())
	}

	build := func() Plan {
		return &SelectPlan{Pred: &ConstPredicate{Column: "R.m", Op: OpGe, Value: I(1)}, Child: &ScanPlan{Relation: "R"}}
	}
	joins := []Plan{
		&JoinPlan{LeftCol: "L.n", RightCol: "R.m", Left: &ScanPlan{Relation: "L"}, Right: build()},
		&JoinPlan{LeftCol: "L2.n", RightCol: "R.m", Left: &ScanPlan{Relation: "L", Alias: "L2"}, Right: build()},
	}
	if s := run("two joins", joins, false); s.Count(OpKindSelect) != 2 || s.IndexLookups() != 2 {
		t.Fatalf("uncached joins ran %d selects with %d index lookups, want each join to serve its own from the index", s.Count(OpKindSelect), s.IndexLookups())
	}
	if s := run("two joins cached", joins, true); s.Count(OpKindSelect) != 1 || s.Count(OpKindJoin) != 2 {
		t.Fatalf("cached joins ran %v, want the shared build-side select once under two joins", s.Operators())
	}
}
