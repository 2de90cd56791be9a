package engine

import (
	"context"
	"fmt"
	"testing"
)

// Microbenchmarks comparing the live operators (hash keys, bound predicates,
// arena tuples, streaming executor) against the retained naive reference
// (string keys, per-row name lookups, per-row allocation, materialize per
// operator).  The single-operator pairs run the position-taking entry points,
// bound before the timed loop.  Run with:
//
//	go test ./internal/engine -bench . -benchmem
//
// The HashJoin and Distinct pairs are the acceptance gate of the streaming
// rewrite: the hashed implementations must stay ≥2x the naive throughput.

// benchRelation builds n rows of (int id, string tag, float score) with ~1%
// key locality so joins and distinct have realistic fan-out.
func benchRelation(name string, n int) *Relation {
	r := NewRelation(name, []string{name + ".id", name + ".tag", name + ".score"})
	r.Rows = make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, Tuple{
			I(int64(i % (n/100 + 1))),
			S(fmt.Sprintf("tag-%d", i%97)),
			F(float64(i%1000) / 3),
		})
	}
	return r
}

const benchRows = 20000

func BenchmarkSelect(b *testing.B) {
	rel := benchRelation("L", benchRows)
	pred := And(
		&ConstPredicate{Column: "L.score", Op: OpGt, Value: F(50)},
		&ConstPredicate{Column: "L.tag", Op: OpNe, Value: S("tag-13")},
	)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NaiveSelect(context.Background(), rel, pred, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	f, err := CompileFilter(pred, rel.Columns)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.Rows(context.Background(), rel.Rows, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkProject(b *testing.B) {
	rel := benchRelation("L", benchRows)
	cols := []string{"L.score", "L.id"}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NaiveProject(context.Background(), rel, cols, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("arena", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ProjectRows(context.Background(), rel.Rows, []int{2, 0}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// keyedRelation builds n rows with near-unique integer keys, the shape of a
// selective foreign-key equi-join (the cid-style joins of the workload).
func keyedRelation(name string, n, stride int) *Relation {
	r := NewRelation(name, []string{name + ".id", name + ".tag"})
	r.Rows = make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, Tuple{
			I(int64((i*stride + 1) % benchRows)),
			S(fmt.Sprintf("tag-%d", i%97)),
		})
	}
	return r
}

func BenchmarkHashJoin(b *testing.B) {
	left := keyedRelation("L", benchRows, 1)
	right := keyedRelation("R", benchRows/4, 4)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NaiveHashJoin(context.Background(), left, right, "L.id", "R.id", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hashed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := JoinRows(context.Background(), left.Rows, right.Rows, 0, 0, keepAll(2), keepAll(2), false, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDistinct(b *testing.B) {
	rel := benchRelation("L", benchRows)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NaiveDistinct(context.Background(), rel, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hashed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DistinctRows(context.Background(), rel.Rows, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAggregate(b *testing.B) {
	rel := benchRelation("L", benchRows)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NaiveAggregate(context.Background(), rel, AggSum, "L.score", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	a, err := CompileAggregate(rel.Columns, AggSum, "L.score")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.Row(context.Background(), rel.Rows, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipeline measures a fused scan→select→select→project chain — the
// shape every reformulated source query takes — where the streaming executor
// materializes nothing between operators.
func BenchmarkPipeline(b *testing.B) {
	db := NewInstance("D")
	base := benchRelation("T", benchRows)
	base.Name = "T"
	db.AddRelation(base)
	plan := &ProjectPlan{
		Columns: []string{"T.id"},
		Child: &SelectPlan{
			Pred: &ConstPredicate{Column: "T.tag", Op: OpNe, Value: S("tag-13")},
			Child: &SelectPlan{
				Pred:  &ConstPredicate{Column: "T.score", Op: OpGt, Value: F(50)},
				Child: &ScanPlan{Relation: "T"},
			},
		},
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NaiveExecute(context.Background(), db, plan, NewStats()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streaming", func(b *testing.B) {
		ex := &Executor{DB: db, Stats: NewStats()}
		for i := 0; i < b.N; i++ {
			if _, err := ex.ExecuteContext(context.Background(), plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexLookupVsScan measures a selective (~0.5%) constant-equality
// selection as a full scan+filter pipeline versus a probe of the shared
// per-column index — the acceptance gate of the index subsystem.
func BenchmarkIndexLookupVsScan(b *testing.B) {
	db := NewInstance("D")
	db.AddRelation(benchRelation("T", benchRows))
	plan := &SelectPlan{
		Pred:  &ConstPredicate{Column: "T.id", Op: OpEq, Value: I(7)},
		Child: &ScanPlan{Relation: "T"},
	}
	b.Run("scan+filter", func(b *testing.B) {
		ex := &Executor{DB: db, Stats: NewStats()}
		for i := 0; i < b.N; i++ {
			if _, err := ex.ExecuteContext(context.Background(), plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		ex := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes()}
		if _, err := ex.Execute(plan); err != nil { // warm the index build
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.ExecuteContext(context.Background(), plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSharedJoinBuild measures h=8 identical equi-joins — the e-basic
// shape, one probe per reformulated query — with h independent build-side
// hash tables versus the one shared per-column index.
func BenchmarkSharedJoinBuild(b *testing.B) {
	const h = 8
	db := NewInstance("D")
	db.AddRelation(keyedRelation("L", benchRows, 1))
	db.AddRelation(keyedRelation("R", benchRows/4, 4))
	plan := &JoinPlan{
		LeftCol: "L.id", RightCol: "R.id",
		Left:  &ScanPlan{Relation: "L"},
		Right: &ScanPlan{Relation: "R"},
	}
	run := func(b *testing.B, indexes *IndexCache) {
		for i := 0; i < b.N; i++ {
			for q := 0; q < h; q++ {
				ex := &Executor{DB: db, Stats: NewStats(), Indexes: indexes}
				if _, err := ex.ExecuteContext(context.Background(), plan); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("independent", func(b *testing.B) { run(b, nil) })
	b.Run("shared", func(b *testing.B) {
		warm := &Executor{DB: db, Stats: NewStats(), Indexes: db.Indexes()}
		if _, err := warm.Execute(plan); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, db.Indexes())
	})
}

// wideRelation builds n rows of width columns — an integer key with ~1% key
// locality, then padding of the kinds a source row carries — the shape of the
// 19–25-column rows the reformulated join queries pair to keep one column.
func wideRelation(name string, n, width int) *Relation {
	cols := []string{name + ".id"}
	for c := 1; c < width; c++ {
		cols = append(cols, fmt.Sprintf("%s.c%d", name, c))
	}
	r := NewRelation(name, cols)
	r.Rows = make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		t := make(Tuple, width)
		t[0] = I(int64(i % (n/100 + 1)))
		for c := 1; c < width; c++ {
			switch c % 3 {
			case 0:
				t[c] = I(int64(i + c))
			case 1:
				t[c] = S(fmt.Sprintf("tag-%d", (i+c)%97))
			default:
				t[c] = F(float64((i+c)%1000) / 3)
			}
		}
		r.Rows = append(r.Rows, t)
	}
	return r
}

// benchProjectOver runs a one-column projection over a pair-building plan as
// the naive reference (every pair built whole, then projected) and through the
// two plan drivers, which build only the column the projection reads.
func benchProjectOver(b *testing.B, db *Instance, plan Plan) {
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NaiveExecute(context.Background(), db, plan, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex := &Executor{DB: db, Stats: NewStats()}
			if _, err := ex.ExecuteContext(context.Background(), plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		live := AnalyzeLiveColumns([]Plan{plan})
		for i := 0; i < b.N; i++ {
			ex := &Executor{DB: db, Stats: NewStats(), Cache: live.NewPlanCache()}
			if _, err := ex.ExecuteContext(context.Background(), plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProjectOverJoin keeps 1 of the 14 columns of a 2,000 × 500 join
// that produces ~47,000 rows.
func BenchmarkProjectOverJoin(b *testing.B) {
	db := NewInstance("D")
	db.AddRelation(wideRelation("L", 2000, 8))
	db.AddRelation(wideRelation("R", 500, 6))
	benchProjectOver(b, db, &ProjectPlan{Columns: []string{"R.c3"}, Child: &JoinPlan{
		LeftCol: "L.id", RightCol: "R.id",
		Left:  &ScanPlan{Relation: "L"},
		Right: &ScanPlan{Relation: "R"},
	}})
}

// BenchmarkProjectOverProduct keeps one left column of a 200 × 100 product of
// 12-column relations — Q2's outer product, whose rows are windows of the left
// rows: nothing is built at all.
func BenchmarkProjectOverProduct(b *testing.B) {
	db := NewInstance("D")
	db.AddRelation(wideRelation("L", 200, 12))
	db.AddRelation(wideRelation("R", 100, 12))
	benchProjectOver(b, db, &ProjectPlan{Columns: []string{"L.c7"}, Child: &ProductPlan{
		Left:  &ScanPlan{Relation: "L"},
		Right: &ScanPlan{Relation: "R"},
	}})
}
