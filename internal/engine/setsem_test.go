package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// firstSeenRows returns the distinct rows in first-seen order, as every set
// consumer of a group's rows sees them.
func firstSeenRows(rows []Tuple) []Tuple {
	seen := NewTupleSet(len(rows))
	var out []Tuple
	for _, r := range rows {
		if seen.Add(r) {
			out = append(out, r)
		}
	}
	return out
}

// sameBits reports whether two tuples hold the same values bit for bit: a
// NaN's payload counts, where EqualKey and Key ignore it.
func sameBits(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Str != y.Str || x.Int != y.Int || math.Float64bits(x.Float) != math.Float64bits(y.Float) {
			return false
		}
	}
	return true
}

// requireSameSet asserts that got, deduplicated in first-seen order, is want
// deduplicated the same way: the same columns and the same distinct rows
// (requireSameSetRows).
func requireSameSet(t *testing.T, label string, want, got *Relation) {
	t.Helper()
	if fmt.Sprint(want.Columns) != fmt.Sprint(got.Columns) {
		t.Fatalf("%s: columns %v, want %v", label, got.Columns, want.Columns)
	}
	requireSameSetRows(t, label, want.Rows, got.Rows)
}

// requireSameSetRows asserts that got, deduplicated in first-seen order, is
// want deduplicated the same way: the same distinct rows, bit for bit, in the
// same order.
func requireSameSetRows(t *testing.T, label string, want, got []Tuple) {
	t.Helper()
	w, g := firstSeenRows(want), firstSeenRows(got)
	if len(w) != len(g) {
		t.Fatalf("%s: %d distinct rows, want %d", label, len(g), len(w))
	}
	for i := range w {
		if !sameBits(w[i], g[i]) {
			t.Fatalf("%s: distinct row[%d] = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// requireSameOperators asserts that set semantics ran the same operators as
// the reference and read no more rows.
func requireSameOperators(t *testing.T, label string, want, got *Stats) {
	t.Helper()
	for k := OpKind(0); k < numOpKinds; k++ {
		if want.Count(k) != got.Count(k) {
			t.Fatalf("%s: %s count = %d, want %d", label, k, got.Count(k), want.Count(k))
		}
	}
	if got.RowsRead() > want.RowsRead() {
		t.Fatalf("%s: read %d rows, more than the reference's %d", label, got.RowsRead(), want.RowsRead())
	}
}

// TestExecuteSetMatchesNaive runs random plans through ExecuteSet — at
// adversarial batch sizes, with and without the shared index — and requires
// the naive reference's distinct rows in its first-seen order, bit for bit,
// from the same operators.  An aggregate clears the set bit, so a COUNT or SUM
// over a product or join equals the reference exactly.  Enough plans must read
// fewer rows than the reference for the rule to have been exercised.
func TestExecuteSetMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fewer := 0
	for trial := 0; trial < 400; trial++ {
		db := randDB(rng, 30, 30)
		plan := randPlan(rng)
		naiveStats := NewStats()
		want, err1 := NaiveExecute(bgCtx, db, plan, naiveStats)
		for _, bs := range []int{0, 1, 7} {
			for _, indexes := range []*IndexCache{nil, db.Indexes()} {
				ex := &Executor{DB: db, Stats: NewStats(), Batch: bs, Indexes: indexes}
				got, err2 := ex.ExecuteSet(bgCtx, plan)
				label := fmt.Sprintf("trial %d batch %d indexes %v plan %s", trial, bs, indexes != nil, plan.Signature())
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s: naive err=%v, set err=%v", label, err1, err2)
				}
				if err1 != nil {
					continue
				}
				requireSameSet(t, label, want, got)
				if _, agg := plan.(*AggregatePlan); agg {
					requireSameRelation(t, label, want, got)
				}
				if indexes == nil {
					requireSameOperators(t, label, naiveStats, ex.Stats)
					if bs == 0 && ex.Stats.RowsRead() < naiveStats.RowsRead() {
						fewer++
					}
				}
			}
		}
	}
	if fewer < 25 {
		t.Fatalf("only %d of 400 plans read fewer rows under set semantics; the rule is not firing", fewer)
	}
}

// setShapesDB is an instance for the pair shapes the set rule changes: join
// keys that hold NaNs with different payloads and the same numbers as ints and
// as floats, so EqualKey — not Equal — decides every match, and an empty
// relation.
func setShapesDB() *Instance {
	nan := func(payload uint64) Value { return F(math.Float64frombits(0x7ff8000000000000 | payload)) }
	db := NewInstance("S")
	l := NewRelation("L", []string{"a", "b", "n"})
	for i, a := range []Value{nan(1), I(2), F(2), nan(4), I(2), S("2"), I(3)} {
		l.MustAppend(Tuple{a, I(int64(i % 3)), F(float64(i) / 2)})
	}
	r := NewRelation("R", []string{"x", "y", "m"})
	for i, x := range []Value{nan(2), F(2), nan(3), I(2), I(2), nan(5), S("2"), I(7)} {
		r.MustAppend(Tuple{x, S(fmt.Sprint("y", i%4)), I(int64(i))})
	}
	db.AddRelation(l)
	db.AddRelation(r)
	db.AddRelation(NewRelation("E", []string{"x", "y", "m"}))
	return db
}

// TestExecuteSetPairShapes pins each shape the rule rewrites against the naive
// reference: a product whose left or right side (or both) nothing reads, a
// join whose build side keeps nothing or only its key — NaN keys of different
// payloads keep the first match's bits — an empty or filtered-empty build
// side, a distinct above a pruned product, aggregates over products and joins,
// which must not change, and two plans sharing a product through one analysed
// PlanCache, whose sharing point keeps bag semantics.
func TestExecuteSetPairShapes(t *testing.T) {
	db := setShapesDB()
	scan := func(rel string) Plan { return &ScanPlan{Relation: rel} }
	product := &ProductPlan{Left: scan("L"), Right: scan("R")}
	join := &JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: scan("L"), Right: scan("R")}
	filtered := &JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: scan("L"),
		Right: &SelectPlan{Pred: Eq("R.y", S("y1")), Child: scan("R")}}
	emptied := &JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: scan("L"),
		Right: &SelectPlan{Pred: Eq("R.y", S("none")), Child: scan("R")}}
	empty := &JoinPlan{LeftCol: "L.a", RightCol: "E.x", Left: scan("L"), Right: scan("E")}
	project := func(child Plan, cols ...string) Plan { return &ProjectPlan{Columns: cols, Child: child} }
	cases := []struct {
		name  string
		plan  Plan
		fewer bool // the rule must fire: fewer rows read than the reference
	}{
		{"product, dead left", project(product, "R.y"), true},
		{"product, dead right", project(product, "L.b"), true},
		{"product, both dead", project(product), true},
		{"product, both read", project(product, "L.b", "R.y"), false},
		{"join, build keeps nothing", project(join, "L.b"), true},
		{"join, build keeps its key", project(join, "L.b", "R.x"), true},
		{"join, build key only", project(join, "R.x"), true},
		{"join, build keeps a payload", project(join, "L.b", "R.m"), false},
		{"join, filtered build keeps nothing", project(filtered, "L.n"), false},
		{"join, empty filtered build", project(emptied, "L.b"), false},
		{"join, empty build", project(empty, "L.b"), false},
		{"distinct over a product", &DistinctPlan{Child: project(product, "L.b")}, true},
		{"distinct under a product", project(&ProductPlan{Left: &DistinctPlan{Child: scan("L")}, Right: scan("R")}, "L.b"), true},
		{"select over a join", project(&SelectPlan{Pred: &ConstPredicate{Column: "L.n", Op: OpGt, Value: F(0.5)}, Child: join}, "R.x"), true},
		{"count of a product", &AggregatePlan{Func: AggCount, Child: product}, false},
		{"count of a join", &AggregatePlan{Func: AggCount, Child: join}, false},
		{"sum over a product", &AggregatePlan{Func: AggSum, Column: "L.n", Child: product}, false},
		{"sum over a join", &AggregatePlan{Func: AggSum, Column: "R.m", Child: join}, false},
	}
	for _, c := range cases {
		naiveStats := NewStats()
		want, err := NaiveExecute(bgCtx, db, c.plan, naiveStats)
		if err != nil {
			t.Fatalf("%s: naive: %v", c.name, err)
		}
		for _, bs := range []int{0, 1, 3} {
			for _, indexes := range []*IndexCache{nil, db.Indexes()} {
				label := fmt.Sprintf("%s batch %d indexes %v", c.name, bs, indexes != nil)
				ex := &Executor{DB: db, Stats: NewStats(), Batch: bs, Indexes: indexes}
				got, err := ex.ExecuteSet(bgCtx, c.plan)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameSet(t, label, want, got)
				if _, agg := c.plan.(*AggregatePlan); agg && !sameBits(want.Rows[0], got.Rows[0]) {
					t.Fatalf("%s: aggregate %v, want %v exactly", label, got.Rows[0], want.Rows[0])
				}
				if indexes != nil {
					continue
				}
				requireSameOperators(t, label, naiveStats, ex.Stats)
				if fewer := ex.Stats.RowsRead() < naiveStats.RowsRead(); fewer != c.fewer {
					t.Fatalf("%s: read %d rows to the reference's %d; want fewer = %v", label, ex.Stats.RowsRead(), naiveStats.RowsRead(), c.fewer)
				}
				// ExecuteContext keeps bag semantics: every row the reference has.
				bag := &Executor{DB: db, Stats: NewStats(), Batch: bs}
				if rel, err := bag.ExecuteContext(bgCtx, c.plan); err != nil {
					t.Fatal(err)
				} else {
					requireSameRelation(t, label+" bag", want, rel)
				}
			}
		}
	}

	// A product two plans read is a sharing point: materialized once, with
	// bag semantics, for both consumers.
	plans := []Plan{project(product, "L.b"), project(product, "R.y")}
	cache := AnalyzeLiveColumns(plans).NewPlanCache()
	stats := NewStats()
	for i, plan := range plans {
		want, err := NaiveExecute(bgCtx, db, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&Executor{DB: db, Stats: stats, Cache: cache}).ExecuteSet(bgCtx, plan)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSet(t, fmt.Sprintf("shared product, plan %d", i), want, got)
	}
	if n, rows := stats.Count(OpKindProduct), len(db.Relation("L").Rows)*len(db.Relation("R").Rows); n != 1 || stats.RowsProduced() < rows {
		t.Fatalf("shared product ran %d times producing %d rows in all, want once with all %d pairs", n, stats.RowsProduced(), rows)
	}
}

// TestSharedCacheSetMatchesNaive is TestSharedCacheMatchesNaive under set
// semantics: families of plans over one join chain through one analysed
// PlanCache, each plan's distinct rows equal to the naive reference's, whether
// the analysis saw bag roots or — as mqo.Optimize's does — set roots, under
// which a sharing point every consumer reads as a set carries the set bit.
func TestSharedCacheSetMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	analyses := []struct {
		roots   string
		analyze func([]Plan) *LiveColumns
	}{{"bag", AnalyzeLiveColumns}, {"set", AnalyzeSetLiveColumns}}
	for trial := 0; trial < 200; trial++ {
		db := randDB(rng, 24, 24)
		plans := randPlanFamily(rng, 1+rng.Intn(4))
		for _, indexes := range []*IndexCache{nil, db.Indexes()} {
			for _, a := range analyses {
				cache := a.analyze(plans).NewPlanCache()
				for pi, plan := range plans {
					label := fmt.Sprintf("trial %d plan %d/%d indexes %v %s roots %s", trial, pi, len(plans), indexes != nil, a.roots, plan.Signature())
					want, err1 := NaiveExecute(bgCtx, db, plan, nil)
					got, err2 := (&Executor{DB: db, Stats: NewStats(), Cache: cache, Indexes: indexes}).ExecuteSet(bgCtx, plan)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("%s: naive err=%v, set err=%v", label, err1, err2)
					}
					if err1 != nil {
						break
					}
					requireSameSet(t, label, want, got)
				}
			}
		}
	}
}

// TestSetKernelsMatchProjectedReference drives the entry points o-sharing
// calls — ProductRows and JoinRows, the build side hashed locally and served
// from the shared index — with set semantics
// against a projection of the naive full-width product and join: the same
// distinct rows in the same first-seen order, bit for bit, recorded as the
// same operator.
func TestSetKernelsMatchProjectedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := setShapesDB()
	lset, rset := db.Relation("L").QualifyColumns("L"), db.Relation("R").QualifyColumns("R")
	type shape struct {
		random              bool
		leftKeep, rightKeep []int
	}
	shapes := []shape{
		{false, []int{}, []int{1}},     // nothing kept from the left
		{false, []int{1}, []int{}},     // nothing kept from the right
		{false, []int{}, []int{}},      // zero-width output
		{false, []int{1}, []int{0}},    // the build side's key only
		{false, []int{}, []int{0}},     // the key alone
		{false, []int{0, 1}, []int{2}}, // a build payload: every match counts
	}
	for len(shapes) < 80 {
		shapes = append(shapes, shape{true, nil, nil})
	}
	for trial, sh := range shapes {
		left, right := lset, rset
		if sh.random {
			lcols := []string{"L.a", "L.b", "L.c"}
			rcols := []string{"R.x", "R.y"}
			left = randRelation(rng, "L", lcols, rng.Intn(30))
			right = randRelation(rng, "R", rcols, rng.Intn(30))
			sh.leftKeep, sh.rightKeep = randKeep(rng, len(lcols)), randKeep(rng, len(rcols))
			if rng.Intn(3) == 0 {
				sh.rightKeep = []int{0}
			}
		}
		label := fmt.Sprintf("trial %d (%dx%d keep %v|%v)", trial, len(left.Rows), len(right.Rows), sh.leftKeep, sh.rightKeep)
		names := keptNames(left, right, sh.leftKeep, sh.rightKeep)

		full, err := NaiveProduct(bgCtx, left, right, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NaiveProject(bgCtx, full, names, nil)
		if err != nil {
			t.Fatal(err)
		}
		leftAll, rightAll := keepAll(len(left.Columns)), keepAll(len(right.Columns))
		wantStats, gotStats := NewStats(), NewStats()
		if _, err := ProductRows(bgCtx, left.Rows, right.Rows, leftAll, rightAll, false, wantStats); err != nil {
			t.Fatal(err)
		}
		got, err := ProductRows(bgCtx, left.Rows, right.Rows, sh.leftKeep, sh.rightKeep, true, gotStats)
		if err != nil {
			t.Fatalf("%s: set product: %v", label, err)
		}
		requireSameSetRows(t, label+" product", want.Rows, got)
		requireSameOperators(t, label+" product", wantStats, gotStats)

		full, err = NaiveHashJoin(bgCtx, left, right, left.Columns[0], right.Columns[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = NaiveProject(bgCtx, full, names, nil); err != nil {
			t.Fatal(err)
		}
		jdb := NewInstance("J")
		jdb.AddRelation(right)
		for _, cache := range []*IndexCache{nil, jdb.Indexes()} {
			wantStats, gotStats = NewStats(), NewStats()
			if _, err := JoinRows(bgCtx, left.Rows, right.Rows, 0, 0, leftAll, rightAll, false, wantStats, cache, right); err != nil {
				t.Fatal(err)
			}
			got, err = JoinRows(bgCtx, left.Rows, right.Rows, 0, 0, sh.leftKeep, sh.rightKeep, true, gotStats, cache, right)
			if err != nil {
				t.Fatalf("%s: set join: %v", label, err)
			}
			requireSameSetRows(t, label+" join", want.Rows, got)
			requireSameOperators(t, label+" join", wantStats, gotStats)
		}
	}
}
