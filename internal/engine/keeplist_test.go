package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// randKeep draws a keep list over n columns: positions in any order, possibly
// repeated, possibly none.
func randKeep(rng *rand.Rand, n int) []int {
	keep := make([]int, rng.Intn(n+2))
	for i := range keep {
		keep[i] = rng.Intn(n)
	}
	return keep
}

// keepAll is the keep list of every one of n columns, in order.
func keepAll(n int) []int {
	keep := make([]int, n)
	for i := range keep {
		keep[i] = i
	}
	return keep
}

func keptNames(left, right *Relation, leftKeep, rightKeep []int) []string {
	names := make([]string, 0, len(leftKeep)+len(rightKeep))
	for _, j := range leftKeep {
		names = append(names, left.Columns[j])
	}
	for _, j := range rightKeep {
		names = append(names, right.Columns[j])
	}
	return names
}

// TestKeepListKernelsMatchProjectedReference drives the keep-list product and
// hash join — with the build side hashed locally and served from the shared
// index — against a projection of the naive full-width product and join: same
// rows, same order, and the same operator record as the all-columns keep
// lists.
func TestKeepListKernelsMatchProjectedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lcols := []string{"L.a", "L.b", "L.c"}
	rcols := []string{"R.x", "R.y"}
	type shape struct {
		lrows, rrows        int
		leftKeep, rightKeep []int
	}
	shapes := []shape{
		{5, 7, []int{}, []int{1}},                     // nothing kept from the left
		{5, 7, []int{2, 0}, []int{}},                  // nothing kept from the right
		{5, 7, []int{}, []int{}},                      // zero-width output
		{0, 7, []int{0}, []int{0}},                    // empty left
		{5, 0, []int{0}, []int{0}},                    // empty right
		{70, 70, []int{1}, []int{1, 0}},               // output crosses checkInterval
		{checkInterval + 3, 1, []int{0, 1}, []int{0}}, // one row past a check boundary
	}
	for len(shapes) < 80 {
		shapes = append(shapes, shape{rng.Intn(40), rng.Intn(40), randKeep(rng, len(lcols)), randKeep(rng, len(rcols))})
	}
	for trial, sh := range shapes {
		label := fmt.Sprintf("trial %d (%dx%d keep %v|%v)", trial, sh.lrows, sh.rrows, sh.leftKeep, sh.rightKeep)
		left := randRelation(rng, "L", lcols, sh.lrows)
		right := randRelation(rng, "R", rcols, sh.rrows)
		names := keptNames(left, right, sh.leftKeep, sh.rightKeep)

		full, err := NaiveProduct(bgCtx, left, right, nil)
		if err != nil {
			t.Fatalf("%s: naive product: %v", label, err)
		}
		want, err := NaiveProject(bgCtx, full, names, nil)
		if err != nil {
			t.Fatalf("%s: naive project: %v", label, err)
		}
		wantStats, gotStats := NewStats(), NewStats()
		if _, err := ProductRows(bgCtx, left.Rows, right.Rows, keepAll(len(lcols)), keepAll(len(rcols)), false, wantStats); err != nil {
			t.Fatalf("%s: product: %v", label, err)
		}
		got, err := ProductRows(bgCtx, left.Rows, right.Rows, sh.leftKeep, sh.rightKeep, false, gotStats)
		if err != nil {
			t.Fatalf("%s: keep-list product: %v", label, err)
		}
		requireSameRows(t, label+" product", want.Rows, got)
		requireSameStats(t, label+" product", wantStats, gotStats)

		full, err = NaiveHashJoin(bgCtx, left, right, "L.a", "R.x", nil)
		if err != nil {
			t.Fatalf("%s: naive join: %v", label, err)
		}
		want, err = NaiveProject(bgCtx, full, names, nil)
		if err != nil {
			t.Fatalf("%s: naive project: %v", label, err)
		}
		db := NewInstance("D")
		db.AddRelation(right)
		for _, cache := range []*IndexCache{nil, db.Indexes()} {
			wantStats, gotStats = NewStats(), NewStats()
			if _, err := JoinRows(bgCtx, left.Rows, right.Rows, 0, 0, keepAll(len(lcols)), keepAll(len(rcols)), false, wantStats, cache, right); err != nil {
				t.Fatalf("%s: join: %v", label, err)
			}
			got, err = JoinRows(bgCtx, left.Rows, right.Rows, 0, 0, sh.leftKeep, sh.rightKeep, false, gotStats, cache, right)
			if err != nil {
				t.Fatalf("%s: keep-list join: %v", label, err)
			}
			requireSameRows(t, label+" join", want.Rows, got)
			requireSameStats(t, label+" join", wantStats, gotStats)
			if shared := cache != nil && sh.rrows > 0; (gotStats.IndexLookups() == 1) != shared {
				t.Fatalf("%s join: %d index lookups with shared build = %v", label, gotStats.IndexLookups(), shared)
			}
		}
	}
}

// cancelAfter is a context that reports cancellation from its n-th poll on, so
// a test can cancel an operator at an exact point inside its loop.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Done() <-chan struct{} {
	c.polls--
	if c.polls < 0 {
		done := make(chan struct{})
		close(done)
		return done
	}
	return nil
}

func (c *cancelAfter) Err() error { return context.Canceled }

// TestProductCancelledMidway cancels the product after its up-front sizing,
// between two blocks of output rows.
func TestProductCancelledMidway(t *testing.T) {
	big := NewRelation("Big", []string{"v"})
	for i := 0; i < 3*checkInterval; i++ {
		big.MustAppend(Tuple{I(int64(i))})
	}
	pair := NewRelation("Pair", []string{"w"})
	pair.MustAppend(Tuple{I(0)})
	pair.MustAppend(Tuple{I(1)})
	// Poll 1 is the first in-loop check: that one passes and the next reports
	// cancellation.
	ctx := &cancelAfter{Context: context.Background(), polls: 1}
	if _, err := ProductRows(ctx, big.Rows, pair.Rows, []int{0}, []int{}, false, NewStats()); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-product cancellation err = %v, want context.Canceled", err)
	}
	if ctx.polls != -1 {
		t.Fatalf("product polled the context %d more times after it was cancelled", -1-ctx.polls)
	}
}

// chunkSizes returns the sizes of the chunks an arena allocates while carving
// n values one at a time.
func chunkSizes(a *valueArena, n int) (sizes []int) {
	for i := 0; i < n; i++ {
		fresh := len(a.buf) == 0
		a.tuple(1)
		if fresh {
			sizes = append(sizes, len(a.buf)+1)
		}
	}
	return sizes
}

// TestArenaSizing pins the arena's one sizing rule: an arena nobody reserved
// starts small and quadruples up to the steady chunk size, so a large output
// ends up within three chunks of fixed-size chunking; an exact reservation is
// a single slab with nothing left over.
func TestArenaSizing(t *testing.T) {
	var grown valueArena
	sizes := chunkSizes(&grown, 3*arenaChunkValues)
	want := []int{arenaFirstChunk, 4 * arenaFirstChunk, 16 * arenaFirstChunk, arenaChunkValues, arenaChunkValues}
	if len(sizes) < len(want) {
		t.Fatalf("chunk sizes %v, want them to start %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunk sizes %v, want them to start %v", sizes, want)
		}
	}
	for _, n := range []int{1, 1000, arenaChunkValues, 100000} {
		var a valueArena
		chunks := len(chunkSizes(&a, n))
		if limit := (n+arenaChunkValues-1)/arenaChunkValues + 3; chunks > limit {
			t.Errorf("%d values took %d chunks, want at most %d", n, chunks, limit)
		}
	}

	var wide valueArena
	if got := wide.tuple(3 * arenaChunkValues); len(got) != 3*arenaChunkValues || len(wide.buf) != 0 {
		t.Errorf("oversized tuple: %d values with %d left over, want its own exact chunk", len(got), len(wide.buf))
	}

	var exact valueArena
	exact.reserve(5000)
	if chunks := len(chunkSizes(&exact, 5000)); chunks != 0 || len(exact.buf) != 0 {
		t.Errorf("exactly reserved arena: %d further chunks, %d values left over, want 0 and 0", chunks, len(exact.buf))
	}
}

// allocatedBytes returns the bytes f allocates (the least of a few runs, so a
// stray allocation by the runtime does not count against f).
func allocatedBytes(f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSmallOutputsAllocateLittle bounds what the tuple-building operators
// allocate for an output of at most 32 values: each used to zero one
// 8,192-value slab (320 KiB) whatever it emitted.
func TestSmallOutputsAllocateLittle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	left := randRelation(rng, "L", []string{"L.a", "L.b"}, 4)
	right := randRelation(rng, "R", []string{"R.x", "R.y"}, 2)
	db := NewInstance("D")
	db.AddRelation(left)
	db.AddRelation(right)
	plan := &ProjectPlan{
		Columns: []string{"R.y", "L.a"},
		Child:   &ProductPlan{Left: &ScanPlan{Relation: "L"}, Right: &ScanPlan{Relation: "R"}},
	}
	cases := []struct {
		name  string
		limit uint64
		run   func() error
	}{
		{"product", 4 << 10, func() error {
			_, err := ProductRows(bgCtx, left.Rows, right.Rows, keepAll(2), keepAll(2), false, nil)
			return err
		}},
		{"join", 4 << 10, func() error {
			_, err := JoinRows(bgCtx, left.Rows, right.Rows, 0, 0, keepAll(2), keepAll(2), false, nil, nil, nil)
			return err
		}},
		{"project", 4 << 10, func() error { _, err := ProjectRows(bgCtx, left.Rows, []int{1, 0}, nil); return err }},
		// The batch pipeline also allocates its batch-sized row-header buffers.
		{"batch pipeline", 96 << 10, func() error {
			_, err := (&Executor{DB: db, Stats: NewStats()}).Execute(plan)
			return err
		}},
	}
	for _, c := range cases {
		var err error
		bytes := allocatedBytes(func() { err = c.run() })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if bytes >= c.limit {
			t.Errorf("%s allocated %d bytes for at most 32 output values, want under %d", c.name, bytes, c.limit)
		}
	}
}

// TestPrunedProductAllocatesRowHeadersOnly projects one left column out of a
// 200 × 100 product of 12-column relations: the product's rows are windows of
// its left rows, so both drivers allocate row headers and nothing else — no
// value is built, where the all-columns product built 20,000 × 24 of them
// (23 MB).
func TestPrunedProductAllocatesRowHeadersOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cols := func(rel string) []string {
		out := make([]string, 12)
		for i := range out {
			out[i] = fmt.Sprintf("%s.c%d", rel, i)
		}
		return out
	}
	db := NewInstance("D")
	db.AddRelation(randRelation(rng, "L", cols("L"), 200))
	db.AddRelation(randRelation(rng, "R", cols("R"), 100))
	plan := &ProjectPlan{
		Columns: []string{"L.c7"},
		Child:   &ProductPlan{Left: &ScanPlan{Relation: "L"}, Right: &ScanPlan{Relation: "R"}},
	}
	const rows = 200 * 100
	headers := uint64(rows * 24) // one slice header per output row
	for _, c := range []struct {
		name   string
		limit  uint64
		cached bool
	}{
		// The root drains a product of unknown size, so its row list grows
		// geometrically: under five times the final list in all.
		{"batch", 6 * headers, false},
		// π[L.c7] and π[L.c8] over the one product through one analysed cache:
		// the product is their sharing point, so it runs once and keeps both
		// columns as one window of its left rows.  Its stored list grows as the
		// batch row's does; each projection adds one exactly sized list.
		{"cached", 7 * headers, true},
	} {
		var stats *Stats
		var got *Relation
		var err error
		bytes := allocatedBytes(func() {
			ex := &Executor{DB: db, Stats: NewStats()}
			plans := []Plan{plan}
			if c.cached {
				plans = append(plans, &ProjectPlan{Columns: []string{"L.c8"}, Child: plan.Child})
				ex.Cache = AnalyzeLiveColumns(plans).NewPlanCache()
			}
			for _, p := range plans {
				if got, err = ex.Execute(p); err != nil {
					break
				}
			}
			stats = ex.Stats
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.NumRows() != rows || stats.ValuesBuilt() != 0 || stats.Count(OpKindProduct) != 1 {
			t.Fatalf("%s: %d rows with %d values built by %d products, want %d rows, no value built, one product", c.name, got.NumRows(), stats.ValuesBuilt(), stats.Count(OpKindProduct), rows)
		}
		if bytes >= c.limit {
			t.Errorf("%s allocated %d bytes for %d one-column rows, want under %d (row headers only)", c.name, bytes, rows, c.limit)
		}
	}
}
