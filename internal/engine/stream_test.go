package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// randValue draws from a pool that deliberately overlaps across kinds:
// S("1"), I(1) and F(1) are distinct under Key equality but equal under the
// loose Equal, so any divergence between the hash-based duplicate detection
// and the canonical-key reference shows up here.
func randValue(rng *rand.Rand) Value {
	n := int64(rng.Intn(4))
	switch rng.Intn(7) {
	case 0:
		return S(strconv.FormatInt(n, 10))
	case 1:
		return I(n)
	case 2:
		return F(float64(n))
	case 3:
		return F(float64(n) + 0.5)
	case 4:
		return S("s" + strconv.FormatInt(n, 10))
	case 5:
		return Null()
	default:
		return I(n + 100)
	}
}

func randRelation(rng *rand.Rand, name string, cols []string, rows int) *Relation {
	r := NewRelation(name, cols)
	for i := 0; i < rows; i++ {
		t := make(Tuple, len(cols))
		for j := range t {
			t[j] = randValue(rng)
		}
		r.MustAppend(t)
	}
	return r
}

// requireSameRelation asserts bit-identical materialized results: same name,
// column layout and rows (requireSameRows).
func requireSameRelation(t *testing.T, label string, want, got *Relation) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("%s: name %q, want %q", label, got.Name, want.Name)
	}
	if len(want.Columns) != len(got.Columns) {
		t.Fatalf("%s: %d columns, want %d", label, len(got.Columns), len(want.Columns))
	}
	for i := range want.Columns {
		if want.Columns[i] != got.Columns[i] {
			t.Fatalf("%s: column[%d] = %q, want %q", label, i, got.Columns[i], want.Columns[i])
		}
	}
	requireSameRows(t, label, want.Rows, got.Rows)
}

// requireSameRows asserts the same row count and canonical row keys in the
// same order.
func requireSameRows(t *testing.T, label string, want, got []Tuple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() {
			t.Fatalf("%s: row[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func requireSameStats(t *testing.T, label string, want, got *Stats) {
	t.Helper()
	for k := OpKind(0); k < numOpKinds; k++ {
		if want.Count(k) != got.Count(k) {
			t.Fatalf("%s: %s count = %d, want %d", label, k, got.Count(k), want.Count(k))
		}
	}
	if want.RowsRead() != got.RowsRead() {
		t.Fatalf("%s: rows read = %d, want %d", label, got.RowsRead(), want.RowsRead())
	}
	if want.RowsProduced() != got.RowsProduced() {
		t.Fatalf("%s: rows produced = %d, want %d", label, got.RowsProduced(), want.RowsProduced())
	}
}

// TestOperatorsMatchNaiveReference drives the position-taking entry points and
// the retained naive reference over randomized inputs and requires identical
// rows (and order) and statistics.
func TestOperatorsMatchNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		left := randRelation(rng, "L", []string{"L.a", "L.b", "L.c"}, rng.Intn(40))
		right := randRelation(rng, "R", []string{"R.x", "R.y"}, rng.Intn(40))
		preds := []Predicate{
			Eq("L.a", randValue(rng)),
			&ConstPredicate{Column: "L.b", Op: OpGt, Value: randValue(rng)},
			&ColPredicate{Left: "L.a", Op: OpNe, Right: "L.c"},
			And(Eq("L.a", randValue(rng)), &ConstPredicate{Column: "L.b", Op: OpNe, Value: randValue(rng)}),
		}
		pred := preds[rng.Intn(len(preds))]

		label := fmt.Sprintf("trial %d", trial)
		wantStats, gotStats := NewStats(), NewStats()

		want, err1 := NaiveSelect(bgCtx, left, pred, wantStats)
		f, err2 := CompileFilter(pred, left.Columns)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s select: naive err=%v, compile err=%v", label, err1, err2)
		}
		if err1 == nil {
			got, err := f.Rows(bgCtx, left.Rows, gotStats, nil, nil)
			if err != nil {
				t.Fatalf("%s select: %v", label, err)
			}
			requireSameRows(t, label+" select", want.Rows, got)
		}

		want, err1 = NaiveProject(bgCtx, left, []string{"L.c", "L.a"}, wantStats)
		got, err2 := ProjectRows(bgCtx, left.Rows, []int{2, 0}, gotStats)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s project: %v / %v", label, err1, err2)
		}
		requireSameRows(t, label+" project", want.Rows, got)

		want, err1 = NaiveProduct(bgCtx, left, right, wantStats)
		got, err2 = ProductRows(bgCtx, left.Rows, right.Rows, keepAll(3), keepAll(2), false, gotStats)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s product: %v / %v", label, err1, err2)
		}
		requireSameRows(t, label+" product", want.Rows, got)

		want, err1 = NaiveHashJoin(bgCtx, left, right, "L.a", "R.x", wantStats)
		got, err2 = JoinRows(bgCtx, left.Rows, right.Rows, 0, 0, keepAll(3), keepAll(2), false, gotStats, nil, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s join: %v / %v", label, err1, err2)
		}
		requireSameRows(t, label+" join", want.Rows, got)

		want, err1 = NaiveDistinct(bgCtx, left, wantStats)
		got, err2 = DistinctRows(bgCtx, left.Rows, gotStats)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s distinct: %v / %v", label, err1, err2)
		}
		requireSameRows(t, label+" distinct", want.Rows, got)

		for _, fn := range []AggFunc{AggCount, AggMin, AggMax} {
			col := "L.b"
			if fn == AggCount {
				col = ""
			}
			want, err1 = NaiveAggregate(bgCtx, left, fn, col, wantStats)
			a, err2 := CompileAggregate(left.Columns, fn, col)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s agg %s: %v / %v", label, fn, err1, err2)
			}
			row, err := a.Row(bgCtx, left.Rows, gotStats)
			if err != nil {
				t.Fatalf("%s agg %s: %v", label, fn, err)
			}
			requireSameRows(t, label+" agg "+fn.String(), want.Rows, []Tuple{row})
		}

		requireSameStats(t, label, wantStats, gotStats)
	}
}

// numericRelation builds rows whose values all convert to float, for SUM/AVG
// equivalence (float accumulation order must match the reference exactly).
func numericRelation(rng *rand.Rand, rows int) *Relation {
	r := NewRelation("N", []string{"N.v"})
	for i := 0; i < rows; i++ {
		if rng.Intn(2) == 0 {
			r.MustAppend(Tuple{I(int64(rng.Intn(1000) - 500))})
		} else {
			r.MustAppend(Tuple{F(rng.Float64()*100 - 50)})
		}
	}
	return r
}

func TestSumAvgMatchNaiveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		rel := numericRelation(rng, rng.Intn(200))
		for _, fn := range []AggFunc{AggSum, AggAvg} {
			want, err1 := NaiveAggregate(bgCtx, rel, fn, "N.v", NewStats())
			a, err2 := CompileAggregate(rel.Columns, fn, "N.v")
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d %s: %v / %v", trial, fn, err1, err2)
			}
			got, err := a.Row(bgCtx, rel.Rows, NewStats())
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, fn, err)
			}
			// Bit-identical float result, not epsilon-close: the streaming
			// accumulator must add in the same order as the reference.
			if got[0] != want.Rows[0][0] {
				t.Fatalf("trial %d %s = %#v, want %#v", trial, fn, got[0], want.Rows[0][0])
			}
		}
	}
}

// TestStreamingExecutorMatchesNaiveExecute compiles random plans through the
// batch pipeline at its default and at adversarial batch sizes (1: every batch
// is a single row; 7: batches straddle every operator boundary; 1024: one
// batch per small input) and requires results and statistics identical to the
// retained materialize-per-operator executor at every setting.
func TestStreamingExecutorMatchesNaiveExecute(t *testing.T) {
	batchSizes := []int{0, 1, 7, 1024}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		db := randDB(rng, 30, 30)
		plan := randPlan(rng)

		naiveStats := NewStats()
		want, err1 := NaiveExecute(bgCtx, db, plan, naiveStats)

		for _, bs := range batchSizes {
			ex := &Executor{DB: db, Stats: NewStats(), Batch: bs}
			got, err2 := ex.ExecuteContext(bgCtx, plan)

			label := fmt.Sprintf("trial %d batch %d plan %s", trial, bs, plan.Signature())
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: naive err=%v, streaming err=%v", label, err1, err2)
			}
			if err1 != nil {
				continue
			}
			requireSameRelation(t, label, want, got)
			requireSameStats(t, label, naiveStats, ex.Stats)
		}
	}
}

// naiveShared is the reference for executors sharing one PlanCache: every
// distinct signature among the plans' nodes runs once through the naive
// operators, in the order a sequential cached execution reaches it.
type naiveShared struct {
	db    *Instance
	stats *Stats
	memo  map[string]*Relation
}

func (n *naiveShared) execute(p Plan) (*Relation, error) {
	sig := p.Signature()
	if rel, ok := n.memo[sig]; ok {
		return rel, nil
	}
	children := p.Children()
	mats := make([]Plan, len(children))
	for i, c := range children {
		rel, err := n.execute(c)
		if err != nil {
			return nil, err
		}
		mats[i] = &MaterialPlan{Rel: rel, Label: c.Signature()}
	}
	var node Plan
	switch t := p.(type) {
	case *SelectPlan:
		node = &SelectPlan{Pred: t.Pred, Child: mats[0]}
	case *ProjectPlan:
		node = &ProjectPlan{Columns: t.Columns, Child: mats[0]}
	case *ProductPlan:
		node = &ProductPlan{Left: mats[0], Right: mats[1]}
	case *JoinPlan:
		node = &JoinPlan{LeftCol: t.LeftCol, RightCol: t.RightCol, Left: mats[0], Right: mats[1]}
	case *AggregatePlan:
		node = &AggregatePlan{Func: t.Func, Column: t.Column, Child: mats[0]}
	case *DistinctPlan:
		node = &DistinctPlan{Child: mats[0]}
	default:
		node = p
	}
	rel, err := NaiveExecute(bgCtx, n.db, node, n.stats)
	if err != nil {
		return nil, err
	}
	n.memo[sig] = rel
	return rel, nil
}

// TestSharedCacheMatchesNaive runs families of plans — different roots over
// one join chain, so their consumers read different columns of the same join
// signatures — through cached executors sharing one PlanCache built from the
// family's live-column analysis.  Every plan's result must be identical to the
// naive reference, and the family's statistics identical to running each
// distinct signature once through the naive operators.  With indexes the
// statistics legitimately differ, so only the relations are compared.
func TestSharedCacheMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pruned := 0
	for trial := 0; trial < 200; trial++ {
		db := randDB(rng, 24, 24)
		plans := randPlanFamily(rng, 1+rng.Intn(4))
		ref := &naiveShared{db: db, stats: NewStats(), memo: make(map[string]*Relation)}
		for _, indexes := range []*IndexCache{nil, db.Indexes()} {
			cache := AnalyzeLiveColumns(plans).NewPlanCache()
			stats := NewStats()
			failed := false
			for pi, plan := range plans {
				label := fmt.Sprintf("trial %d plan %d/%d indexes %v %s", trial, pi, len(plans), indexes != nil, plan.Signature())
				want, err1 := ref.execute(plan)
				ex := &Executor{DB: db, Stats: stats, Cache: cache, Indexes: indexes}
				got, err2 := ex.ExecuteContext(bgCtx, plan)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s: naive err=%v, cached err=%v", label, err1, err2)
				}
				if err1 != nil {
					failed = true
					break
				}
				requireSameRelation(t, label, want, got)
			}
			if failed {
				break
			}
			if indexes == nil {
				requireSameStats(t, fmt.Sprintf("trial %d family of %d", trial, len(plans)), ref.stats, stats)
				all := NewStats()
				for _, plan := range plans {
					ex := &Executor{DB: db, Stats: all, Cache: NewPlanCache()}
					if _, err := ex.ExecuteContext(bgCtx, plan); err != nil {
						t.Fatal(err)
					}
				}
				if stats.ValuesBuilt() < all.ValuesBuilt() {
					pruned++
				}
			}
		}
	}
	if pruned < 20 {
		t.Fatalf("only %d of 200 families built fewer values than all-columns materialization; the analysis is not pruning", pruned)
	}
}

// TestPipelineCancellation covers cancellation mid-stream: an already-expired
// context aborts before producing anything, and a deadline expiring inside a
// huge fused product+select pipeline surfaces promptly even though no
// intermediate relation is ever materialized.
func TestPipelineCancellation(t *testing.T) {
	db := NewInstance("big")
	rel := NewRelation("Big", []string{"v"})
	for i := 0; i < 5000; i++ {
		rel.MustAppend(Tuple{I(int64(i))})
	}
	db.AddRelation(rel)
	// σ[false](Big × Big): ~25M streamed rows, none kept — the pipeline does
	// all its work inside fused operators.
	plan := &SelectPlan{
		Pred: Eq("A.v", I(-1)),
		Child: &ProductPlan{
			Left:  &ScanPlan{Relation: "Big", Alias: "A"},
			Right: &ScanPlan{Relation: "Big", Alias: "B"},
		},
	}

	// The pruned shape: the projection reads one column, so the product emits
	// windows of its left rows and never touches the arena — it must still
	// notice the context between batches.
	pruned := &ProjectPlan{Columns: []string{"A.v"}, Child: plan.Child}

	// The index-served shape: the probe and the index build behind it must
	// honour an expired context like any scan.
	indexed := &SelectPlan{Pred: Eq("Big.v", I(7)), Child: &ScanPlan{Relation: "Big"}}

	// Batch 0 = default batch size, 64 = cancellation must surface between
	// small batches.
	for _, bs := range []int{0, 64} {
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		ex := &Executor{DB: db, Stats: NewStats(), Batch: bs}
		if _, err := ex.ExecuteContext(cancelled, plan); !errors.Is(err, context.Canceled) {
			t.Fatalf("batch %d: pre-cancelled execute err = %v, want context.Canceled", bs, err)
		}
		if _, err := ex.ExecuteContext(cancelled, pruned); !errors.Is(err, context.Canceled) {
			t.Fatalf("batch %d: pre-cancelled pruned product err = %v, want context.Canceled", bs, err)
		}
		ex = &Executor{DB: db, Stats: NewStats(), Batch: bs, Indexes: db.Indexes()}
		if _, err := ex.ExecuteContext(cancelled, indexed); !errors.Is(err, context.Canceled) {
			t.Fatalf("batch %d: pre-cancelled index scan err = %v, want context.Canceled", bs, err)
		}
		// ...and the aborted run must leave the index usable.
		ex = &Executor{DB: db, Stats: NewStats(), Batch: bs, Indexes: db.Indexes()}
		if got, err := ex.ExecuteContext(context.Background(), indexed); err != nil {
			t.Fatalf("batch %d: index scan after a cancelled one: %v", bs, err)
		} else if got.NumRows() != 1 || ex.Stats.IndexLookups() != 1 {
			t.Fatalf("batch %d: index scan = %d rows from %d lookups, want 1 from 1", bs, got.NumRows(), ex.Stats.IndexLookups())
		}

		for _, p := range []Plan{plan, pruned} {
			ctx, cancelDeadline := context.WithTimeout(context.Background(), 5*time.Millisecond)
			start := time.Now()
			_, err := (&Executor{DB: db, Stats: NewStats(), Batch: bs}).ExecuteContext(ctx, p)
			cancelDeadline()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("batch %d: mid-stream deadline err = %v, want context.DeadlineExceeded (%s)", bs, err, p.Signature())
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("batch %d: cancellation took %v, want prompt abort (%s)", bs, elapsed, p.Signature())
			}
		}
	}
}

// TestBatchEdgeCases pins the batch pipeline's boundary behavior: empty
// relations, a single row, inputs exactly at the batch size (the final batch is
// full, then the source must still report exhaustion cleanly), and selection
// vectors that empty out mid-pipeline must all agree with the naive reference
// at every operator.
func TestBatchEdgeCases(t *testing.T) {
	sizedRelation := func(name string, cols []string, rows int) *Relation {
		r := NewRelation(name, cols)
		for i := 0; i < rows; i++ {
			r.MustAppend(Tuple{I(int64(i)), S("s" + strconv.Itoa(i%3))})
		}
		return r
	}
	plans := []Plan{
		&ScanPlan{Relation: "E"},
		&SelectPlan{Pred: Eq("E.id", I(0)), Child: &ScanPlan{Relation: "E"}},
		// σ[id = -1]: the selection vector goes empty in the first batch and
		// stays empty; downstream operators must still stream to completion.
		&ProjectPlan{Columns: []string{"E.tag"},
			Child: &SelectPlan{Pred: Eq("E.id", I(-1)), Child: &ScanPlan{Relation: "E"}}},
		&JoinPlan{LeftCol: "E.id", RightCol: "F.id",
			Left: &ScanPlan{Relation: "E"}, Right: &ScanPlan{Relation: "F"}},
		&DistinctPlan{Child: &ProjectPlan{Columns: []string{"E.tag"}, Child: &ScanPlan{Relation: "E"}}},
		&AggregatePlan{Func: AggSum, Column: "E.id", Child: &ScanPlan{Relation: "E"}},
		&ProductPlan{Left: &ScanPlan{Relation: "E"}, Right: &ScanPlan{Relation: "F"}},
	}
	const testBatch = 8
	// Row counts hugging the batch-size boundaries for both the explicit test
	// size and the default: empty, one, exactly one batch, one over, exactly
	// one default batch.
	for _, rows := range []int{0, 1, testBatch, testBatch + 1, DefaultBatchSize} {
		db := NewInstance("edge")
		db.AddRelation(sizedRelation("E", []string{"E.id", "E.tag"}, rows))
		db.AddRelation(sizedRelation("F", []string{"F.id", "F.w"}, rows/2))
		for pi, plan := range plans {
			naiveStats := NewStats()
			want, err := NaiveExecute(bgCtx, db, plan, naiveStats)
			if err != nil {
				t.Fatalf("rows %d plan %d: naive: %v", rows, pi, err)
			}
			for _, bs := range []int{0, testBatch, 1} {
				ex := &Executor{DB: db, Stats: NewStats(), Batch: bs}
				got, err := ex.ExecuteContext(bgCtx, plan)
				if err != nil {
					t.Fatalf("rows %d plan %d batch %d: %v", rows, pi, bs, err)
				}
				label := fmt.Sprintf("rows %d plan %d batch %d", rows, pi, bs)
				requireSameRelation(t, label, want, got)
				requireSameStats(t, label, naiveStats, ex.Stats)
			}
		}
	}
}

// TestEmptyConjunctionKeepsEveryRow runs the empty conjunction through every
// place a predicate compiles: a Filter with and without an index cache, the
// batch filter, a residual level of the index-served scan and a build-side
// level of the index-served join.  Every row passes, and rows match the naive
// reference's, as do the statistics where no index stands in for a scan.
func TestEmptyConjunctionKeepsEveryRow(t *testing.T) {
	empty := &AndPredicate{}
	db := NewInstance("empty-and")
	e := NewRelation("E", []string{"E.id", "E.tag"})
	f := NewRelation("F", []string{"F.id", "F.w"})
	for i := 0; i < 20; i++ {
		e.MustAppend(Tuple{I(int64(i % 7)), S("s" + strconv.Itoa(i%3))})
		f.MustAppend(Tuple{I(int64(i % 5)), S("w" + strconv.Itoa(i))})
	}
	db.AddRelation(e)
	db.AddRelation(f)

	filter, err := CompileFilter(empty, e.Columns)
	if err != nil {
		t.Fatal(err)
	}
	for _, indexes := range []*IndexCache{nil, db.Indexes()} {
		got, err := filter.Rows(bgCtx, e.Rows, NewStats(), indexes, e)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, "Filter", e.Rows, got)
	}

	scan := func(rel string) Plan { return &ScanPlan{Relation: rel} }
	plans := []Plan{
		&SelectPlan{Pred: empty, Child: scan("E")},
		&SelectPlan{Pred: empty, Child: &SelectPlan{Pred: Eq("E.tag", S("s1")), Child: scan("E")}},
		&JoinPlan{LeftCol: "E.id", RightCol: "F.id", Left: scan("E"), Right: &SelectPlan{Pred: empty, Child: scan("F")}},
	}
	for pi, plan := range plans {
		naiveStats := NewStats()
		want, err := NaiveExecute(bgCtx, db, plan, naiveStats)
		if err != nil {
			t.Fatal(err)
		}
		if pi == 0 && len(want.Rows) != len(e.Rows) {
			t.Fatalf("naive σ[()] kept %d of %d rows", len(want.Rows), len(e.Rows))
		}
		for _, indexes := range []*IndexCache{nil, db.Indexes()} {
			for _, bs := range []int{0, 3, 1} {
				ex := &Executor{DB: db, Stats: NewStats(), Indexes: indexes, Batch: bs}
				got, err := ex.ExecuteContext(bgCtx, plan)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("plan %d indexes %v batch %d", pi, indexes != nil, bs)
				requireSameRelation(t, label, want, got)
				switch {
				case indexes == nil:
					requireSameStats(t, label, naiveStats, ex.Stats)
				case pi > 0 && ex.Stats.IndexLookups() == 0:
					t.Fatalf("%s: not served from the index", label)
				case ex.Stats.Count(OpKindSelect) != naiveStats.Count(OpKindSelect):
					t.Fatalf("%s: %d selections, want %d", label, ex.Stats.Count(OpKindSelect), naiveStats.Count(OpKindSelect))
				}
			}
		}
	}
}

// TestHashKeyConsistency pins the contract between the hash scheme and the
// canonical key encoding: tuples are EqualKey exactly when their Key strings
// match, and EqualKey tuples always share a hash.
func TestHashKeyConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tuples := make([]Tuple, 300)
	for i := range tuples {
		tpl := make(Tuple, 1+rng.Intn(3))
		for j := range tpl {
			tpl[j] = randValue(rng)
		}
		tuples[i] = tpl
	}
	// Every NaN payload renders as "NaN" in the canonical key, so
	// distinct-bit NaNs must be EqualKey and share a hash.
	tuples = append(tuples,
		Tuple{F(math.NaN())},
		Tuple{F(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1))},
		Tuple{F(math.Float64frombits(0xfff8000000000001))},
	)
	for _, a := range tuples {
		for _, b := range tuples {
			keyEq := a.Key() == b.Key()
			if got := a.EqualKey(b); got != keyEq {
				t.Fatalf("EqualKey(%v, %v) = %v, Key equality = %v", a, b, got, keyEq)
			}
			if keyEq && a.Hash64() != b.Hash64() {
				t.Fatalf("key-equal tuples %v and %v hash differently", a, b)
			}
		}
	}
}

// TestColumnIndexMatchesLinearLookup pins the cached resolution map to the
// linear reference rules for qualified, unqualified, missing and ambiguous
// names.
func TestColumnIndexMatchesLinearLookup(t *testing.T) {
	colSets := [][]string{
		{"A.x", "A.y", "B.x", "B.z"},
		{"x", "y", "z"},
		{"A.x", "x"},
		{"R.a", "R.a"},
		{},
		{"A.cid", "B.cid", "C.name"},
	}
	probes := []string{"A.x", "B.x", "x", "y", "z", "a", "cid", "name", "missing", "A.missing", "R.a"}
	for _, cols := range colSets {
		rel := &Relation{Name: "T", Columns: cols}
		for _, p := range probes {
			want := lookupColumn(cols, p)
			if got := rel.ColumnIndex(p); got != want {
				t.Errorf("cols %v: ColumnIndex(%q) = %d, linear reference = %d", cols, p, got, want)
			}
		}
	}
}

// TestTupleSetSemantics checks first-seen semantics under cross-kind
// collisions that the loose Equal would merge.
func TestTupleSetSemantics(t *testing.T) {
	s := NewTupleSet(4)
	if !s.Add(Tuple{I(1)}) {
		t.Fatal("first add should be new")
	}
	if s.Add(Tuple{I(1)}) {
		t.Fatal("duplicate add should report existing")
	}
	if !s.Add(Tuple{S("1")}) {
		t.Fatal("S(\"1\") is distinct from I(1) under key equality")
	}
	if !s.Add(Tuple{F(1)}) {
		t.Fatal("F(1) is distinct from I(1) under key equality")
	}
	if s.Len() != 3 {
		t.Fatalf("set size = %d, want 3", s.Len())
	}
}
