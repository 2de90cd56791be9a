package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// randDB builds the instance the random plans run over: L(a,b,c,n) and
// R(x,y,m), where a–c and x–y draw from randValue's kind-overlapping pool and
// n and m are numeric, so SUM has a column it can fold.
func randDB(rng *rand.Rand, maxL, maxR int) *Instance {
	db := NewInstance("D")
	add := func(name string, cols []string, rows int) {
		r := NewRelation(name, cols)
		for i := 0; i < rows; i++ {
			t := make(Tuple, len(cols))
			for j := range t {
				t[j] = randValue(rng)
			}
			if rng.Intn(4) > 0 {
				t[len(t)-1] = I(int64(rng.Intn(4)))
			} else {
				t[len(t)-1] = F(float64(rng.Intn(4)) / 2)
			}
			r.MustAppend(t)
		}
		db.AddRelation(r)
	}
	add("L", []string{"a", "b", "c", "n"}, rng.Intn(maxL))
	add("R", []string{"x", "y", "m"}, rng.Intn(maxR))
	return db
}

// planGen composes random plans over randDB's relations.  It tracks the
// logical columns of what it has built, so every reference it emits resolves.
type planGen struct {
	rng     *rand.Rand
	aliases int
}

// genNode is a generated subtree with its logical output columns; numeric
// lists the ones SUM can fold, keys the join keys used inside it, and last the
// columns the most recently joined input brought in.
type genNode struct {
	plan                      Plan
	cols, numeric, keys, last []string
}

func (g *planGen) pick(cols []string) string { return cols[g.rng.Intn(len(cols))] }

// ref spells a column the way a plan would: usually qualified, sometimes by its
// bare name when that is unambiguous among cols.
func (g *planGen) ref(cols []string, col string) string {
	if uq := unqualified(col); g.rng.Intn(4) == 0 && lookupColumn(cols, uq) >= 0 && cols[lookupColumn(cols, uq)] == col {
		return uq
	}
	return col
}

// scan reads L or R, under the relation's own name or — so that self-joins keep
// their columns apart — a fresh alias.
func (g *planGen) scan() genNode {
	rel, attrs := "L", []string{"a", "b", "c", "n"}
	if g.rng.Intn(2) == 0 {
		rel, attrs = "R", []string{"x", "y", "m"}
	}
	alias := rel
	if g.rng.Intn(2) == 0 {
		g.aliases++
		alias = rel + strconv.Itoa(g.aliases)
	}
	n := genNode{plan: &ScanPlan{Relation: rel, Alias: alias}}
	for _, a := range attrs {
		n.cols = append(n.cols, alias+"."+a)
	}
	n.numeric = []string{n.cols[len(n.cols)-1]}
	n.last = n.cols
	return n
}

func (g *planGen) constPred(n genNode) Predicate {
	op := OpEq
	if g.rng.Intn(4) > 0 {
		op = CompareOp(1 + g.rng.Intn(5))
	}
	return &ConstPredicate{Column: g.ref(n.cols, g.pick(n.cols)), Op: op, Value: randValue(g.rng)}
}

func (g *planGen) colPred(n genNode) Predicate {
	return &ColPredicate{Left: g.ref(n.cols, g.pick(n.cols)), Op: CompareOp(g.rng.Intn(6)), Right: g.ref(n.cols, g.pick(n.cols))}
}

// predicate draws every predicate shape: a comparison against a constant or
// between two columns, and conjunctions of them — of constant comparisons
// only (the shape the shared index serves), mixed, and empty.
func (g *planGen) predicate(n genNode) Predicate {
	switch g.rng.Intn(7) {
	case 0, 1:
		return g.constPred(n)
	case 2:
		return g.colPred(n)
	case 3, 4:
		return And(g.constPred(n), g.constPred(n))
	case 5:
		return And(g.constPred(n), g.colPred(n), g.constPred(n))
	default:
		return And()
	}
}

func (g *planGen) filter(n genNode) genNode {
	n.plan = &SelectPlan{Pred: g.predicate(n), Child: n.plan}
	return n
}

// input is one side of a join or product: a scan, bare or under a stack of
// constant selections (the shapes the shared index serves) or any predicate.
func (g *planGen) input() genNode {
	n := g.scan()
	switch g.rng.Intn(6) {
	case 0:
		n.plan = &SelectPlan{Pred: g.constPred(n), Child: n.plan}
	case 1:
		n.plan = &SelectPlan{Pred: g.constPred(n), Child: &SelectPlan{Pred: g.constPred(n), Child: n.plan}}
	case 2:
		n = g.filter(n)
	}
	return n
}

// chain builds a left-deep chain of depth joins and products, with selections,
// a distinct or a narrowing projection between some of the steps.
func (g *planGen) chain(depth int) genNode {
	n := g.input()
	products := 0
	for i := 0; i < depth; i++ {
		right := g.input()
		lc, rc := g.pick(n.cols), g.pick(right.cols)
		if g.rng.Intn(3) > 0 && len(n.numeric) > 0 {
			// Mostly join on the numeric columns, whose few values match often.
			lc, rc = g.pick(n.numeric), g.pick(right.numeric)
		}
		if g.rng.Intn(4) == 0 && products == 0 {
			products++
			n.plan = &ProductPlan{Left: n.plan, Right: right.plan}
		} else {
			n.plan = &JoinPlan{LeftCol: g.ref(n.cols, lc), RightCol: g.ref(right.cols, rc), Left: n.plan, Right: right.plan}
			n.keys = append(n.keys[:len(n.keys):len(n.keys)], lc, rc)
		}
		n.cols = append(n.cols[:len(n.cols):len(n.cols)], right.cols...)
		n.numeric = append(n.numeric[:len(n.numeric):len(n.numeric)], right.numeric...)
		n.last = right.cols
		switch g.rng.Intn(6) {
		case 0, 1:
			n = g.filter(n)
		case 2:
			n.plan = &DistinctPlan{Child: n.plan}
		case 3:
			if i < depth-1 {
				n = g.narrow(n)
			}
		}
	}
	return n
}

// narrow projects the subtree onto a random non-empty subset of its columns,
// in column order, so the chain continues over fewer columns.
func (g *planGen) narrow(n genNode) genNode {
	var kept []string
	for _, c := range n.cols {
		if g.rng.Intn(2) == 0 {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		kept = []string{g.pick(n.cols)}
	}
	in := func(list []string) []string {
		var out []string
		for _, c := range list {
			if containsName(kept, c) {
				out = append(out, c)
			}
		}
		return out
	}
	out := genNode{plan: &ProjectPlan{Columns: kept, Child: n.plan}, cols: kept, numeric: in(n.numeric), keys: in(n.keys), last: in(n.last)}
	if len(out.last) == 0 {
		out.last = kept
	}
	return out
}

// top puts a root over the chain: nothing (every column is read), a selection,
// a projection keeping columns of the first input only, of the last only, of
// both, none at all, the join keys only, or a shuffled draw with repeats, an
// aggregate, or a distinct over a projection.
func (g *planGen) top(n genNode) Plan {
	project := func(cols ...string) Plan {
		refs := make([]string, len(cols))
		for i, c := range cols {
			refs[i] = g.ref(n.cols, c)
		}
		return &ProjectPlan{Columns: refs, Child: n.plan}
	}
	first := n.cols[:1+g.rng.Intn(2)]
	switch g.rng.Intn(12) {
	case 0:
		return n.plan
	case 1:
		return g.filter(n).plan
	case 2:
		return project(first...)
	case 3:
		return project(g.pick(n.last))
	case 4:
		return project(first[0], g.pick(n.last))
	case 5:
		return project()
	case 6:
		if len(n.keys) > 0 {
			return project(n.keys...)
		}
		return project(g.pick(n.cols))
	case 7:
		cols := make([]string, 1+g.rng.Intn(4))
		for i := range cols {
			cols[i] = g.pick(n.cols)
		}
		return project(cols...)
	case 8:
		return &AggregatePlan{Func: AggCount, Child: n.plan}
	case 9:
		if len(n.numeric) > 0 {
			return &AggregatePlan{Func: AggSum, Column: g.ref(n.cols, g.pick(n.numeric)), Child: n.plan}
		}
		return &AggregatePlan{Func: AggMax, Column: g.ref(n.cols, g.pick(n.cols)), Child: n.plan}
	case 10:
		return &DistinctPlan{Child: project(g.pick(n.cols), g.pick(n.last))}
	default:
		return &AggregatePlan{Func: AggCount, Child: g.filter(n).plan}
	}
}

// randPlanFamily builds k plans that put different roots over one chain of
// 0–3 joins and products — the shape whose join signatures a shared PlanCache
// materializes once for consumers that read different columns.
func randPlanFamily(rng *rand.Rand, k int) []Plan {
	g := &planGen{rng: rng}
	chain := g.chain(rng.Intn(4))
	plans := make([]Plan, k)
	for i := range plans {
		plans[i] = g.top(chain)
	}
	return plans
}

// randPlan builds one random plan over randDB's relations, exercising every
// node type the compiler lowers under every shape of column need.
func randPlan(rng *rand.Rand) Plan { return randPlanFamily(rng, 1)[0] }

// byteSource is a rand.Source that plays fuzz bytes back: each Int63 consumes
// one byte, repeated across the word so that Intn's low and high bits both
// depend on it, and an exhausted input yields zeros.  Every choice the
// generators make is then a byte the fuzzer can mutate.
type byteSource struct{ b []byte }

func (s *byteSource) Int63() int64 {
	if len(s.b) == 0 {
		return 0
	}
	x := uint64(s.b[0]) * 0x0101010101010101
	s.b = s.b[1:]
	return int64(x >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzPlan draws a family of plans over one join chain (randPlanFamily), a
// batch size and an instance (randDB) from the fuzz bytes, in that order, so
// the leading bytes shape the plans, and diffs every driver against
// NaiveExecute, plan by plan, with and without the shared index.  Each driver
// compiles the plan once and runs the program twice, so per-run state that
// leaked into the program — a level's row counts, an arena, a hash set —
// fails the second run's diff, and without a cache the second run must
// record the first's statistics, index lookups included:
//   - a bag program (ExecuteContext's) returns the reference's relation row
//     for row, with the same statistics where no index stands in for a scan;
//   - a set program (ExecuteSet's) returns its distinct rows in first-seen
//     order from the same operators, reading no more rows;
//   - through one PlanCache per analysis shared by the family, a bag program
//     under the bag-root analysis returns the relation row for row, and a set
//     program under the set-root analysis — the one mqo.Optimize makes, in
//     which a sharing point every consumer reads as a set carries the set
//     bit — returns its distinct rows.
//
// With the shared index and no cache, every operator but the scans the index
// stands in for records the reference's count, whichever driver runs it.
//
// The seed corpus is in testdata/fuzz/FuzzPlan.
func FuzzPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rng := rand.New(&byteSource{b: b})
		plans := randPlanFamily(rng, 1+rng.Intn(4))
		bs := []int{0, 1, 7}[rng.Intn(3)]
		db := randDB(rng, 24, 24)
		for _, indexes := range []*IndexCache{nil, db.Indexes()} {
			bagCache := AnalyzeLiveColumns(plans).NewPlanCache()
			setCache := AnalyzeSetLiveColumns(plans).NewPlanCache()
			drivers := []struct {
				name  string
				cache *PlanCache
				set   bool
			}{{"ExecuteContext", nil, false}, {"ExecuteSet", nil, true}, {"bag-analysed cache", bagCache, false}, {"set-analysed cache", setCache, true}}
			for pi, plan := range plans {
				naiveStats := NewStats()
				want, wantErr := NaiveExecute(bgCtx, db, plan, naiveStats)
				prefix := fmt.Sprintf("plan %d/%d batch %d indexes %v %s: ", pi, len(plans), bs, indexes != nil, plan.Signature())
				for _, d := range drivers {
					prog, err := Compile(db, plan, d.set, d.cache)
					var first *Stats
					for round := 1; round <= 2; round++ {
						label := fmt.Sprintf("%s%s run %d", prefix, d.name, round)
						ex := &Executor{DB: db, Stats: NewStats(), Batch: bs, Indexes: indexes, Cache: d.cache}
						var got *Relation
						if prog != nil {
							got, err = prog.Run(bgCtx, ex)
						}
						if (wantErr == nil) != (err == nil) {
							t.Fatalf("%s: naive err=%v, err=%v", label, wantErr, err)
						}
						if d.cache == nil && round == 2 {
							requireIdenticalStats(t, label, first, ex.Stats)
						}
						if wantErr == nil && indexes != nil && d.cache == nil {
							for k := OpKindSelect; k < numOpKinds; k++ {
								if naiveStats.Count(k) != ex.Stats.Count(k) {
									t.Fatalf("%s: indexed %s count = %d, want %d", label, k, ex.Stats.Count(k), naiveStats.Count(k))
								}
							}
						}
						first = ex.Stats
						switch {
						case wantErr != nil:
						case d.set:
							requireSameSet(t, label, want, got)
							if indexes == nil && d.cache == nil {
								requireSameOperators(t, label, naiveStats, ex.Stats)
							}
						default:
							requireSameRelation(t, label, want, got)
							if indexes == nil && d.cache == nil {
								requireSameStats(t, label, naiveStats, ex.Stats)
							}
						}
					}
				}
			}
		}
	})
}
