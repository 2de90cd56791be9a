package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// probePool is a pool of values chosen to stress every edge of the
// Compare-vs-EqualKey gap the probe analysis must bridge: cross-kind numeric
// equality, numeric-parsing strings, non-canonical renderings, signed zeros,
// NaN (which Compare-equals every number), infinities, and integers beyond
// float64's exact range (which Compare-equal each other through the float64
// conversion).
var probePool = []Value{
	Null(),
	I(0), I(1), I(-1), I(2), I(maxExactInt), I(maxExactInt + 1), I(-maxExactInt), I(-maxExactInt - 2),
	F(0), F(math.Copysign(0, -1)), F(1), F(1.5), F(-1), F(2),
	F(float64(maxExactInt)), F(float64(maxExactInt) + 2),
	F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)),
	S("0"), S("1"), S("1.0"), S("01"), S("1e0"), S("-0"), S("1.5"),
	S("abc"), S(""), S("NaN"), S("+Inf"), S("x1"),
}

// TestProbeValuesMatchCompareEquality is the core correctness property of the
// index subsystem: whenever probeValuesForEq claims a constant is answerable
// from an index, the union of its probes' EqualKey classes must select exactly
// the rows that `column = const` selects under Compare semantics — same rows,
// same order.
func TestProbeValuesMatchCompareEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	covered := 0
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(25)
		rows := make([]Tuple, n)
		for i := range rows {
			rows[i] = Tuple{probePool[rng.Intn(len(probePool))]}
		}
		idx, err := buildColumnHashIndex(bgCtx, rows, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := probePool[rng.Intn(len(probePool))]
		probes, ok := probeValuesForEq(newProbeConst(c), idx.kinds, idx.hasNaN)
		if !ok {
			continue
		}
		covered++
		matches, _, err := idx.probeMatches(bgCtx, probes)
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for i, row := range rows {
			if OpEq.Matches(row[0].Compare(c)) {
				want = append(want, int32(i))
			}
		}
		if len(matches) != len(want) {
			t.Fatalf("trial %d: const %#v over %v: index matched %v, filter matched %v",
				trial, c, rows, matches, want)
		}
		for i := range want {
			if matches[i] != want[i] {
				t.Fatalf("trial %d: const %#v: index match order %v, want %v", trial, c, matches, want)
			}
		}
	}
	if covered == 0 {
		t.Fatal("probe analysis never accepted a constant; the index can never fire")
	}
}

// randIndexedPlan builds plans in the shapes the index subsystem accelerates —
// constant-selection stacks over scans, conjunctions, and joins with bare or
// constant-filtered build sides — plus shapes it must leave alone.
func randIndexedPlan(rng *rand.Rand) Plan {
	scanL := &ScanPlan{Relation: "L"}
	scanR := &ScanPlan{Relation: "R"}
	constSel := func(child Plan, col string) Plan {
		op := OpEq
		if rng.Intn(3) == 0 {
			op = CompareOp(rng.Intn(6))
		}
		return &SelectPlan{Pred: &ConstPredicate{Column: col, Op: op, Value: randValue(rng)}, Child: child}
	}
	switch rng.Intn(8) {
	case 0:
		return constSel(scanL, "L.a")
	case 1:
		return constSel(constSel(scanL, "L.a"), "L.b")
	case 2:
		return &SelectPlan{
			Pred: And(
				&ConstPredicate{Column: "L.a", Op: OpEq, Value: randValue(rng)},
				&ConstPredicate{Column: "L.c", Op: CompareOp(rng.Intn(6)), Value: randValue(rng)},
			),
			Child: scanL,
		}
	case 3:
		return &JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: scanL, Right: scanR}
	case 4:
		return &JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: constSel(scanL, "L.b"), Right: constSel(scanR, "R.y")}
	case 5:
		return &ProjectPlan{Columns: []string{"L.c", "L.a"}, Child: constSel(scanL, "L.b")}
	case 6:
		return &SelectPlan{
			Pred:  &ColPredicate{Left: "L.a", Op: OpNe, Right: "L.b"},
			Child: constSel(scanL, "L.c"),
		}
	default:
		return &DistinctPlan{Child: &ProjectPlan{Columns: []string{"L.a", "R.y"},
			Child: &JoinPlan{LeftCol: "L.c", RightCol: "R.y", Left: constSel(scanL, "L.a"), Right: scanR}}}
	}
}

// TestIndexedExecutorMatchesNaive drives randomized index-shaped plans through
// the index-aware executor and requires results bit-identical to the naive
// reference: same rows, same order, same columns.  (Statistics legitimately
// differ — fewer scans — so only relations are compared.)  Batch sizes 1 and 7
// make index-served selections cross batch boundaries over these ≤50-row
// relations, and randValue's mixed-kind columns must drive both the probed
// path and the scan+filter fallback a column's content forces at runtime.
func TestIndexedExecutorMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	probed, fellBack := 0, 0
	for trial := 0; trial < 600; trial++ {
		db := randDB(rng, 50, 40)
		// Two in three trials draw the index-shaped plans; the rest run the
		// composable generator's join chains through the index-aware drivers.
		plan := randIndexedPlan(rng)
		if trial%3 == 2 {
			plan = randPlan(rng)
		}

		want, err1 := NaiveExecute(bgCtx, db, plan, NewStats())
		for _, bs := range []int{0, 1, 7, 1024} {
			label := fmt.Sprintf("trial %d batch %d plan %s", trial, bs, plan.Signature())
			ex := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes(), Batch: bs}
			got, err2 := ex.ExecuteContext(bgCtx, plan)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: naive err=%v, indexed err=%v", label, err1, err2)
			}
			if err1 != nil {
				continue
			}
			requireSameRelation(t, label, want, got)
			if _, _, ok := constFilterStack(plan); ok {
				// A bare constant-selection stack: the only index use is the scan.
				if ex.Stats.IndexLookups() > 0 {
					probed++
				} else if ex.Stats.Count(OpKindScan) > 0 {
					fellBack++
				}
			}

			// The cached (materialized, MQO-style) executor must agree too.
			exc := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes(), Cache: NewPlanCache(), Batch: bs}
			gotc, err3 := exc.ExecuteContext(bgCtx, plan)
			if err3 != nil {
				t.Fatalf("%s: cached indexed executor: %v", label, err3)
			}
			requireSameRelation(t, label+" (cached)", want, gotc)
		}
	}
	if probed == 0 || fellBack == 0 {
		t.Fatalf("index-served selections: %d probed, %d fell back to scan+filter; want both paths exercised", probed, fellBack)
	}
}

// TestIndexedMaterializedOperatorsMatch pins the row-list entry points the
// o-sharing evaluator uses: Filter.Rows and JoinRows over untouched base
// scans must be bit-identical with the shared indexes and without them.
func TestIndexedMaterializedOperatorsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 200; trial++ {
		db := NewInstance("D")
		left := randRelation(rng, "L", []string{"L.a", "L.b"}, rng.Intn(40))
		right := randRelation(rng, "R", []string{"R.x", "R.y"}, rng.Intn(40))
		db.AddRelation(left)
		db.AddRelation(right)
		label := fmt.Sprintf("trial %d", trial)

		pred := &ConstPredicate{Column: "L.a", Op: CompareOp(rng.Intn(6)), Value: randValue(rng)}
		f, err := CompileFilter(pred, left.Columns)
		if err != nil {
			t.Fatalf("%s select: %v", label, err)
		}
		want, err1 := f.Rows(bgCtx, left.Rows, NewStats(), nil, nil)
		got, err2 := f.Rows(bgCtx, left.Rows, NewStats(), db.Indexes(), left)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s select: %v / %v", label, err1, err2)
		}
		requireSameRows(t, label+" select", want, got)

		keep := keepAll(2)
		jwant, err1 := JoinRows(bgCtx, left.Rows, right.Rows, 0, 0, keep, keep, false, NewStats(), nil, nil)
		jgot, err2 := JoinRows(bgCtx, left.Rows, right.Rows, 0, 0, keep, keep, false, NewStats(), db.Indexes(), right)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s join: %v / %v", label, err1, err2)
		}
		requireSameRows(t, label+" join", jwant, jgot)
	}
}

// TestIndexedSelectMatchesIndexScan: a Filter served from the shared index and
// the plan driver's index-served σ(scan) run one probe and one residual, so for a
// constant conjunction over an untouched base scan they must agree on
// everything — rows and order, the selection's count and rows in/out, and the
// index lookups.  The conjunctions cover a single equality, an equality among
// residual comparisons, no equality at all, and equalities on a mixed-kind
// column whose probe set cannot cover the constant, so both fall back to a
// scan.
func TestIndexedSelectMatchesIndexScan(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cmp := func(col string, op CompareOp) Predicate {
		return &ConstPredicate{Column: col, Op: op, Value: randValue(rng)}
	}
	numeric := func() Value {
		if rng.Intn(2) == 0 {
			return I(int64(rng.Intn(4)))
		}
		return F(float64(rng.Intn(4)) / 2)
	}
	shapes := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		db := NewInstance("D")
		left := randRelation(rng, "L", []string{"L.a", "L.b", "L.n"}, 1+rng.Intn(60))
		for _, row := range left.Rows {
			row[2] = numeric() // L.n holds numbers only: its equalities probe
		}
		db.AddRelation(left)

		var pred Predicate
		shape := ""
		switch trial % 4 {
		case 0:
			pred, shape = &ConstPredicate{Column: "L.n", Op: OpEq, Value: numeric()}, "single equality"
		case 1:
			conj := []Predicate{cmp("L.a", CompareOp(1+rng.Intn(5))), cmp("L.b", CompareOp(rng.Intn(6)))}
			eq := &ConstPredicate{Column: "L.n", Op: OpEq, Value: numeric()}
			pred, shape = And(slices.Insert(conj, rng.Intn(3), Predicate(eq))...), "equality and residual"
		case 2:
			pred, shape = And(cmp("L.a", CompareOp(1+rng.Intn(5))), cmp("L.n", CompareOp(1+rng.Intn(5)))), "no equality"
		default:
			// randValue mixes numbers and numeric strings in L.a, so most of
			// these equalities have no finite probe set.
			pred, shape = And(cmp("L.a", OpEq), cmp("L.b", CompareOp(rng.Intn(6)))), "mixed-kind column"
		}
		label := fmt.Sprintf("trial %d %s %v", trial, shape, pred)

		mstats := NewStats()
		f, err := CompileFilter(pred, left.Columns)
		if err != nil {
			t.Fatalf("%s: CompileFilter: %v", label, err)
		}
		want, err := f.Rows(bgCtx, left.Rows, mstats, db.Indexes(), left)
		if err != nil {
			t.Fatalf("%s: Filter.Rows: %v", label, err)
		}
		ex := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes()}
		got, err := ex.ExecuteContext(bgCtx, &SelectPlan{Pred: pred, Child: &ScanPlan{Relation: "L"}})
		if err != nil {
			t.Fatalf("%s: plan driver: %v", label, err)
		}
		requireSameRows(t, label, want, got.Rows)
		ps := ex.Stats
		if mstats.Count(OpKindSelect) != 1 || ps.Count(OpKindSelect) != 1 {
			t.Fatalf("%s: %d and %d selections, want one each", label, mstats.Count(OpKindSelect), ps.Count(OpKindSelect))
		}
		if mstats.SelectRowsIn() != ps.SelectRowsIn() || mstats.SelectRowsOut() != ps.SelectRowsOut() {
			t.Fatalf("%s: select rows %d→%d Filter, %d→%d plan driver", label,
				mstats.SelectRowsIn(), mstats.SelectRowsOut(), ps.SelectRowsIn(), ps.SelectRowsOut())
		}
		if mstats.IndexLookups() != ps.IndexLookups() {
			t.Fatalf("%s: %d index lookups Filter, %d plan driver", label, mstats.IndexLookups(), ps.IndexLookups())
		}
		if mstats.IndexLookups() > 0 {
			shapes[shape+", probed"]++
		} else {
			shapes[shape+", scanned"]++
		}
	}
	for _, want := range []string{
		"single equality, probed", "equality and residual, probed", "no equality, scanned",
		"mixed-kind column, probed", "mixed-kind column, scanned",
	} {
		if shapes[want] == 0 {
			t.Errorf("no trial was a %s; got %v", want, shapes)
		}
	}
}

// FuzzProbeValuesForEq checks the probe analysis both index paths share:
// whenever probeValuesForEq accepts a constant for a column's content, the
// shared index probe (IndexCache.probeEq) returns exactly the rows whose value
// Compare-equals the constant, in row order.  The column and the constant are
// decoded by fuzzValues; the seed corpus in testdata/fuzz covers NaN payloads,
// both zeros, integers at and beyond 2^53, and numeric strings.
func FuzzProbeValuesForEq(f *testing.F) {
	f.Fuzz(func(t *testing.T, column, constant []byte) {
		vals := fuzzValues(column)
		consts := fuzzValues(constant)
		if len(consts) == 0 {
			return
		}
		c := consts[0]
		db := NewInstance("D")
		rel := NewRelation("T", []string{"v"})
		for _, v := range vals {
			rel.MustAppend(Tuple{v})
		}
		db.AddRelation(rel)
		rows, matches, ok, err := db.Indexes().probeEq(bgCtx, rel, 0, newProbeConst(c), NewStats())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		var want []int32
		for i, row := range rows {
			if OpEq.Matches(row[0].Compare(c)) {
				want = append(want, int32(i))
			}
		}
		if fmt.Sprint(matches) != fmt.Sprint(want) {
			t.Fatalf("const %#v over %v: probe matched rows %v, Compare matches rows %v", c, vals, matches, want)
		}
	})
}

// fuzzValues decodes a value list: each value is a kind byte (mod 4: null,
// int, float, string) followed, for an int or a float, by its 8 little-endian
// payload bytes (the float's IEEE bits, so every NaN payload is reachable) or,
// for a string, a length byte and that many bytes.  A truncated value ends the
// list.
func fuzzValues(b []byte) []Value {
	var out []Value
	for len(b) > 0 {
		kind := b[0] % 4
		b = b[1:]
		switch kind {
		case 0:
			out = append(out, Null())
		case 1, 2:
			if len(b) < 8 {
				return out
			}
			x := binary.LittleEndian.Uint64(b)
			b = b[8:]
			if kind == 1 {
				out = append(out, I(int64(x)))
			} else {
				out = append(out, F(math.Float64frombits(x)))
			}
		default:
			if len(b) == 0 || len(b) < 1+int(b[0]) {
				return out
			}
			n := int(b[0])
			out = append(out, S(string(b[1:1+n])))
			b = b[1+n:]
		}
	}
	return out
}

// TestIndexCacheSingleflight floods one column index with concurrent queries
// and requires exactly one build across all workers.
func TestIndexCacheSingleflight(t *testing.T) {
	db := NewInstance("D")
	r := NewRelation("T", []string{"id", "tag"})
	for i := 0; i < 20000; i++ {
		r.MustAppend(Tuple{I(int64(i % 97)), S("t")})
	}
	db.AddRelation(r)
	plan := &SelectPlan{Pred: Eq("T.id", I(13)), Child: &ScanPlan{Relation: "T"}}

	const workers = 16
	stats := make([]*Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		stats[w] = NewStats()
		wg.Add(1)
		go func(s *Stats) {
			defer wg.Done()
			ex := &Executor{DB: db, Stats: s, Indexes: db.Indexes()}
			if _, err := ex.Execute(plan); err != nil {
				t.Error(err)
			}
		}(stats[w])
	}
	wg.Wait()
	builds, lookups := 0, 0
	for _, s := range stats {
		builds += s.IndexBuilds()
		lookups += s.IndexLookups()
	}
	if builds != 1 {
		t.Errorf("index built %d times across %d concurrent workers, want 1", builds, workers)
	}
	if lookups != workers {
		t.Errorf("recorded %d lookups, want %d", lookups, workers)
	}
}

// TestIndexInvalidationOnAppend pins the staleness contract: appending to a
// base relation invalidates its cached indexes, and the next query sees the
// new row through a rebuilt index.
func TestIndexInvalidationOnAppend(t *testing.T) {
	db := NewInstance("D")
	r := NewRelation("T", []string{"id"})
	for i := 0; i < 100; i++ {
		r.MustAppend(Tuple{I(int64(i % 5))})
	}
	db.AddRelation(r)
	plan := &SelectPlan{Pred: Eq("T.id", I(3)), Child: &ScanPlan{Relation: "T"}}

	run := func() (int, *Stats) {
		ex := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes()}
		rel, err := ex.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		return rel.NumRows(), ex.Stats
	}
	before, s1 := run()
	if s1.IndexBuilds() != 1 {
		t.Fatalf("first run built %d indexes, want 1", s1.IndexBuilds())
	}
	r.MustAppend(Tuple{I(3)})
	after, s2 := run()
	if after != before+1 {
		t.Errorf("after append: %d rows, want %d (stale index served)", after, before+1)
	}
	if s2.IndexBuilds() != 1 {
		t.Errorf("post-append run built %d indexes, want 1 (rebuild)", s2.IndexBuilds())
	}
}

// TestIndexBuildCancellation cancels a context while an index build is in
// flight: the executing query fails with the context error, the aborted build
// does not poison the cache, and a later query with a live context rebuilds
// and answers correctly.
func TestIndexBuildCancellation(t *testing.T) {
	db := NewInstance("D")
	r := NewRelation("T", []string{"id"})
	for i := 0; i < 50000; i++ {
		r.MustAppend(Tuple{I(int64(i % 100))})
	}
	db.AddRelation(r)
	plan := &SelectPlan{Pred: Eq("T.id", I(42)), Child: &ScanPlan{Relation: "T"}}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes()}
	if _, err := ex.ExecuteContext(cancelled, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-build execute err = %v, want context.Canceled", err)
	}
	if n := db.Indexes().Len(); n != 0 {
		t.Fatalf("aborted build left %d cache entries, want 0", n)
	}

	ex2 := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes()}
	rel, err := ex2.Execute(plan)
	if err != nil {
		t.Fatalf("post-cancellation execute: %v", err)
	}
	if rel.NumRows() != 500 {
		t.Errorf("post-cancellation rows = %d, want 500", rel.NumRows())
	}
	if ex2.Stats.IndexBuilds() != 1 {
		t.Errorf("post-cancellation builds = %d, want 1", ex2.Stats.IndexBuilds())
	}
}

// TestIndexCacheLiveWaitersSurviveCancelledBuilder pins the singleflight
// fairness contract: when the goroutine that wins the build has a cancelled
// context, concurrent waiters whose contexts are live must not inherit its
// cancellation — one of them retries the build and succeeds.  Each round
// appends a row so the index is stale and a fresh build races.
func TestIndexCacheLiveWaitersSurviveCancelledBuilder(t *testing.T) {
	db := NewInstance("D")
	r := NewRelation("T", []string{"id"})
	for i := 0; i < 30000; i++ {
		r.MustAppend(Tuple{I(int64(i % 7))})
	}
	db.AddRelation(r)
	cancelledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	for round := 0; round < 25; round++ {
		r.MustAppend(Tuple{I(0)}) // invalidate: every round rebuilds under the race
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			ctx := context.Background()
			if w%2 == 0 {
				ctx = cancelledCtx
			}
			wg.Add(1)
			go func(ctx context.Context) {
				defer wg.Done()
				idx, err := db.Indexes().columnIndex(ctx, r, 0, NewStats())
				if ctx.Err() == nil && err != nil {
					t.Errorf("round %d: live-context waiter failed: %v", round, err)
				}
				if err == nil && idx == nil {
					t.Errorf("round %d: nil index without error", round)
				}
			}(ctx)
		}
		wg.Wait()
	}
}

// TestSetIndexingDisables pins the A/B switch: with indexing off the executor
// compiles plain pipelines (scans recorded, no lookups), with it on the same
// instance serves the probe from the index.
func TestSetIndexingDisables(t *testing.T) {
	db := NewInstance("D")
	r := NewRelation("T", []string{"id"})
	for i := 0; i < 100; i++ {
		r.MustAppend(Tuple{I(int64(i % 5))})
	}
	db.AddRelation(r)
	plan := &SelectPlan{Pred: Eq("T.id", I(1)), Child: &ScanPlan{Relation: "T"}}

	db.SetIndexing(false)
	if db.Indexes() != nil {
		t.Fatal("Indexes() should be nil while disabled")
	}
	ex := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes()}
	if _, err := ex.Execute(plan); err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Count(OpKindScan) != 1 || ex.Stats.IndexLookups() != 0 {
		t.Errorf("disabled: scans=%d lookups=%d, want 1/0", ex.Stats.Count(OpKindScan), ex.Stats.IndexLookups())
	}

	db.SetIndexing(true)
	ex2 := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes()}
	if _, err := ex2.Execute(plan); err != nil {
		t.Fatal(err)
	}
	if ex2.Stats.Count(OpKindScan) != 0 || ex2.Stats.IndexLookups() != 1 {
		t.Errorf("enabled: scans=%d lookups=%d, want 0/1", ex2.Stats.Count(OpKindScan), ex2.Stats.IndexLookups())
	}
}
