package engine

import (
	"fmt"
	"testing"
)

func errCaseDB() *Instance {
	db := NewInstance("D")
	l := NewRelation("L", []string{"a", "b", "c"})
	r := NewRelation("R", []string{"x", "y"})
	for i := 0; i < 6; i++ {
		l.MustAppend(Tuple{I(int64(i % 3)), S("b" + fmt.Sprint(i)), I(int64(i))})
		r.MustAppend(Tuple{I(int64(i % 3)), S("y" + fmt.Sprint(i))})
	}
	db.AddRelation(l)
	db.AddRelation(r)
	return db
}

// errCase is a plan that fails to bind and the error it reports.
type errCase struct {
	name string
	plan Plan
	want string
}

func errCases() []errCase {
	scan := func(rel, alias string) Plan { return &ScanPlan{Relation: rel, Alias: alias} }
	selfJoin := func() Plan {
		return &JoinPlan{LeftCol: "A.a", RightCol: "B.a", Left: scan("L", "A"), Right: scan("L", "B")}
	}
	lr := func() Plan {
		return &JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: scan("L", ""), Right: scan("R", "")}
	}
	lrr := func() Plan {
		return &JoinPlan{LeftCol: "L.c", RightCol: "R2.x", Left: lr(), Right: scan("R", "R2")}
	}
	sel := func(col string, child Plan) Plan {
		return &SelectPlan{Pred: &ConstPredicate{Column: col, Op: OpGe, Value: I(0)}, Child: child}
	}
	proj := func(child Plan, cols ...string) Plan { return &ProjectPlan{Columns: cols, Child: child} }
	return []errCase{
		{name: "ambiguous projection over self-join", plan: proj(selfJoin(), "a"), want: `project: column "a" not found in [A.a A.b A.c B.a B.b B.c]`},
		{name: "ambiguous projection beside a resolvable one", plan: proj(selfJoin(), "A.b", "c"), want: `project: column "c" not found in [A.a A.b A.c B.a B.b B.c]`},
		{name: "ambiguous predicate over self-join", plan: proj(sel("b", selfJoin()), "A.a"), want: `predicate b>=0: column "b" not found in [A.a A.b A.c B.a B.b B.c]`},
		{name: "ambiguous aggregate over self-join", plan: &AggregatePlan{Func: AggSum, Column: "c", Child: selfJoin()}, want: `aggregate SUM: column "c" not found in [A.a A.b A.c B.a B.b B.c]`},
		{name: "ambiguous join key at depth 2", plan: proj(&JoinPlan{LeftCol: "a", RightCol: "R.x", Left: selfJoin(), Right: scan("R", "")}, "R.y"), want: `join: column "a" not found in [A.a A.b A.c B.a B.b B.c]`},
		{name: "ambiguous column-column predicate", plan: proj(&SelectPlan{Pred: &ColPredicate{Left: "A.a", Op: OpEq, Right: "c"}, Child: selfJoin()}, "A.a"), want: `predicate A.a=c: column "c" not found in [A.a A.b A.c B.a B.b B.c]`},
		{name: "ambiguous under product", plan: proj(&ProductPlan{Left: scan("L", "A"), Right: scan("L", "B")}, "b"), want: `project: column "b" not found in [A.a A.b A.c B.a B.b B.c]`},
		{name: "ambiguous two levels up", plan: proj(&ProductPlan{Left: selfJoin(), Right: scan("R", "")}, "R.x", "a"), want: `project: column "a" not found in [A.a A.b A.c B.a B.b B.c R.x R.y]`},
		{name: "unknown projection column depth 1", plan: proj(lr(), "L.zz"), want: `project: column "L.zz" not found in [L.a L.b L.c R.x R.y]`},
		{name: "unknown projection column depth 2", plan: proj(lrr(), "L.a", "R.zz"), want: `project: column "R.zz" not found in [L.a L.b L.c R.x R.y R2.x R2.y]`},
		{name: "unknown projection column mid-plan", plan: proj(&JoinPlan{LeftCol: "L.a", RightCol: "R2.x", Left: proj(lr(), "L.a", "R.q"), Right: scan("R", "R2")}, "L.a"), want: `project: column "R.q" not found in [L.a L.b L.c R.x R.y]`},
		{name: "unknown predicate column above join", plan: proj(sel("L.zz", lr()), "L.a"), want: `predicate L.zz>=0: column "L.zz" not found in [L.a L.b L.c R.x R.y]`},
		{name: "unknown predicate column above join depth 2", plan: proj(sel("zz", lrr()), "L.a"), want: `predicate zz>=0: column "zz" not found in [L.a L.b L.c R.x R.y R2.x R2.y]`},
		{name: "unknown predicate column on probe side", plan: proj(&JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: sel("L.zz", scan("L", "")), Right: scan("R", "")}, "L.a"), want: `predicate L.zz>=0: column "L.zz" not found in [L.a L.b L.c]`},
		{name: "unknown predicate column on build side", plan: proj(&JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: scan("L", ""), Right: sel("R.zz", scan("R", ""))}, "L.a"), want: `predicate R.zz>=0: column "R.zz" not found in [R.x R.y]`},
		{name: "unknown AND predicate column", plan: proj(&SelectPlan{Pred: &AndPredicate{Children: []Predicate{Eq("L.a", I(1)), Eq("R.zz", I(1))}}, Child: lr()}, "L.a"), want: `predicate R.zz=1: column "R.zz" not found in [L.a L.b L.c R.x R.y]`},
		{name: "unknown left join key", plan: proj(&JoinPlan{LeftCol: "L.zz", RightCol: "R.x", Left: scan("L", ""), Right: scan("R", "")}, "L.a"), want: `join: column "L.zz" not found in [L.a L.b L.c]`},
		{name: "unknown right join key", plan: proj(&JoinPlan{LeftCol: "L.a", RightCol: "R.zz", Left: scan("L", ""), Right: scan("R", "")}, "L.a"), want: `join: column "R.zz" not found in [R.x R.y]`},
		{name: "unknown right join key over filtered build", plan: proj(&JoinPlan{LeftCol: "L.a", RightCol: "R.zz", Left: scan("L", ""), Right: sel("R.x", scan("R", ""))}, "L.a"), want: `join: column "R.zz" not found in [R.x R.y]`},
		{name: "unknown left join key depth 2", plan: proj(&JoinPlan{LeftCol: "R.q", RightCol: "R2.x", Left: lr(), Right: scan("R", "R2")}, "L.a"), want: `join: column "R.q" not found in [L.a L.b L.c R.x R.y]`},
		{name: "unknown aggregate column", plan: &AggregatePlan{Func: AggSum, Column: "L.zz", Child: lr()}, want: `aggregate SUM: column "L.zz" not found in [L.a L.b L.c R.x R.y]`},
		{name: "unknown aggregate column depth 2", plan: &AggregatePlan{Func: AggMax, Column: "zz", Child: sel("L.a", lrr())}, want: `aggregate MAX: column "zz" not found in [L.a L.b L.c R.x R.y R2.x R2.y]`},
		{name: "unsupported aggregate function", plan: &AggregatePlan{Func: AggFunc(42), Column: "L.a", Child: lr()}, want: `aggregate: unsupported function AggFunc(42)`},
		{name: "unknown relation under join", plan: proj(&JoinPlan{LeftCol: "L.a", RightCol: "Q.x", Left: scan("L", ""), Right: scan("Q", "")}, "L.a"), want: `scan: unknown relation "Q"`},
		{name: "error order: probe side before build side", plan: proj(&JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: sel("L.p", scan("L", "")), Right: sel("R.q", scan("R", ""))}, "L.zz"), want: `predicate L.p>=0: column "L.p" not found in [L.a L.b L.c]`},
		{name: "error order: build filter before join key", plan: proj(&JoinPlan{LeftCol: "L.zz", RightCol: "R.x", Left: scan("L", ""), Right: sel("R.q", scan("R", ""))}, "L.a"), want: `predicate R.q>=0: column "R.q" not found in [R.x R.y]`},
		{name: "error order: left key before right key", plan: proj(&JoinPlan{LeftCol: "L.p", RightCol: "R.q", Left: scan("L", ""), Right: scan("R", "")}, "L.zz"), want: `join: column "L.p" not found in [L.a L.b L.c]`},
		{name: "error order: join key before projection", plan: proj(&JoinPlan{LeftCol: "L.a", RightCol: "R.q", Left: scan("L", ""), Right: scan("R", "")}, "L.zz"), want: `join: column "R.q" not found in [R.x R.y]`},
		{name: "error order: predicate before projection", plan: proj(sel("L.p", lr()), "L.zz"), want: `predicate L.p>=0: column "L.p" not found in [L.a L.b L.c R.x R.y]`},
		{name: "error order: inner join before outer key", plan: proj(&JoinPlan{LeftCol: "L.p", RightCol: "R2.x", Left: &JoinPlan{LeftCol: "L.a", RightCol: "R.q", Left: scan("L", ""), Right: scan("R", "")}, Right: scan("R", "R2")}, "L.a"), want: `join: column "R.q" not found in [R.x R.y]`},
	}
}

// TestPrunedPlansKeepTheirErrors pins what a plan that does not bind reports:
// column names resolve against the full logical column list of the operator's
// input, never against the columns a pruned product or join happened to build,
// so an unqualified name that is ambiguous in the whole join output stays an
// error, the lists printed are the whole lists, and the first error reported
// is the one the unpruned drivers reported.  The strings were captured from
// the commit before pruning (2a0df9c), where all four drivers agreed on each.
func TestPrunedPlansKeepTheirErrors(t *testing.T) {
	db := errCaseDB()
	for _, c := range errCases() {
		for _, mode := range []struct {
			name           string
			indexes, cache bool
		}{{"batch", false, false}, {"batch+index", true, false}, {"cached", false, true}, {"cached+index", true, true}} {
			ex := &Executor{DB: db, Stats: NewStats()}
			if mode.indexes {
				ex.Indexes = db.Indexes()
			}
			if mode.cache {
				ex.Cache = AnalyzeLiveColumns([]Plan{c.plan}).NewPlanCache()
			}
			_, err := ex.ExecuteContext(bgCtx, c.plan)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s (%s): error %v, want %s", c.name, mode.name, err, c.want)
			}
		}
	}
}

// TestProgramOnInstanceMissingARelation runs programs compiled against
// errCaseDB on an instance that lacks R: whichever operator reads R — a plain
// scan, an index-served selection, the build side of a join over the shared
// index — reports the unknown relation as compiling against that instance
// does, with and without an index cache, instead of dereferencing a nil
// relation.  A relation whose columns changed is reported too.
func TestProgramOnInstanceMissingARelation(t *testing.T) {
	db := errCaseDB()
	lOnly := NewInstance("D")
	lOnly.AddRelation(db.Relation("L"))
	reshaped := NewInstance("D")
	reshaped.AddRelation(db.Relation("L"))
	reshaped.AddRelation(NewRelation("R", []string{"y", "x"}))
	scanR := &ScanPlan{Relation: "R"}
	for _, c := range []struct {
		name string
		plan Plan
	}{
		{"plain scan", &ProjectPlan{Columns: []string{"R.y"}, Child: scanR}},
		{"index-served selection", &ProjectPlan{Columns: []string{"R.y"}, Child: &SelectPlan{Pred: Eq("R.x", I(1)), Child: scanR}}},
		{"shared-index join build side", &ProjectPlan{Columns: []string{"L.b", "R.y"}, Child: &JoinPlan{LeftCol: "L.a", RightCol: "R.x", Left: &ScanPlan{Relation: "L"}, Right: &SelectPlan{Pred: Eq("R.x", I(1)), Child: scanR}}}},
	} {
		unknown := `scan: unknown relation "R"`
		if _, err := (&Executor{DB: lOnly, Stats: NewStats()}).ExecuteContext(bgCtx, c.plan); err == nil || err.Error() != unknown {
			t.Fatalf("%s: ExecuteContext error %v, want %s", c.name, err, unknown)
		}
		prog, err := Compile(db, c.plan, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, run := range []struct {
			db   *Instance
			want string
		}{
			{lOnly, unknown},
			{reshaped, `scan: relation "R" has columns [y x], the program was compiled for [x y]`},
		} {
			for _, indexes := range []*IndexCache{nil, run.db.Indexes()} {
				_, err := prog.Run(bgCtx, &Executor{DB: run.db, Stats: NewStats(), Indexes: indexes})
				if err == nil || err.Error() != run.want {
					t.Errorf("%s (indexes %v): error %v, want %s", c.name, indexes != nil, err, run.want)
				}
			}
		}
	}
}
