package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
)

// TestPreparedProgramsRunConcurrently runs one Prepared's compiled group
// programs from 8 goroutines at once under e-basic, e-MQO and q-sharing — and
// its u-trace's bound steps under o-sharing and top-3 over it — at
// Parallelism 1 and 8, on the served fixture (Excel, h=100, 40 MB nominal,
// seed 42).  Every execution shares the programs and the steps, so per-run
// state leaking into one — a level's row counts, an arena, a hash set, the
// shared-result cache, a walk's factor rows — shows as a race under -race or
// as answers that differ, bit for bit, from a serial execution's.  It also
// pins that a memoized list runs programs: every covering group carries one.
func TestPreparedProgramsRunConcurrently(t *testing.T) {
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ds.DB, ds.Mappings())
	const goroutines = 8
	for _, id := range []int{1, 2, 3, 5} {
		prep, err := ev.Prepare(datagen.MustWorkloadQuery(id))
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name string
			opts Options
		}{
			{"e-basic", Options{Method: MethodEBasic}},
			{"e-MQO", Options{Method: MethodEMQO}},
			{"q-sharing", Options{Method: MethodQSharing}},
			{"o-sharing", Options{Method: MethodOSharing}},
			{"top-3", Options{Method: MethodOSharing, TopK: 3}},
		} {
			for _, par := range []int{1, 8} {
				label := fmt.Sprintf("Q%d/%s/p%d", id, run.name, par)
				opts := run.opts
				opts.Parallelism = par
				want, err := prep.Execute(opts)
				if err != nil {
					t.Fatalf("%s serial: %v", label, err)
				}
				sp, _, err := prep.FrontHalf(opts.Context(context.Background()), opts)
				if err != nil {
					t.Fatal(err)
				}
				for gi, g := range sp.Groups {
					if g.Plan != nil && g.prog == nil {
						t.Fatalf("%s: group %d has no program", label, gi)
					}
				}
				got := make([]*Result, goroutines)
				errs := make([]error, goroutines)
				var wg sync.WaitGroup
				for g := range got {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						got[g], errs[g] = prep.Execute(opts)
					}(g)
				}
				wg.Wait()
				for g, res := range got {
					if errs[g] != nil {
						t.Fatalf("%s goroutine %d: %v", label, g, errs[g])
					}
					bitIdentical(t, fmt.Sprintf("%s goroutine %d", label, g), want, res)
					if res.Stats.TotalOperators() != want.Stats.TotalOperators() || res.Stats.RowsRead() != want.Stats.RowsRead() {
						t.Fatalf("%s goroutine %d: %d operators, %d rows read; serial %d, %d", label, g,
							res.Stats.TotalOperators(), res.Stats.RowsRead(), want.Stats.TotalOperators(), want.Stats.RowsRead())
					}
				}
			}
		}
	}
}

// bitIdentical asserts the same answers in the same order with the same
// probability bits, and the same empty-answer mass.
func bitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Answers) != len(got.Answers) {
		t.Fatalf("%s: %d answers, want %d", label, len(got.Answers), len(want.Answers))
	}
	for i, w := range want.Answers {
		g := got.Answers[i]
		if w.Tuple.Key() != g.Tuple.Key() || math.Float64bits(w.Prob) != math.Float64bits(g.Prob) {
			t.Fatalf("%s: answer[%d] = %v %v, want %v %v", label, i, g.Tuple, g.Prob, w.Tuple, w.Prob)
		}
	}
	if math.Float64bits(want.EmptyProb) != math.Float64bits(got.EmptyProb) {
		t.Fatalf("%s: empty prob %v, want %v", label, got.EmptyProb, want.EmptyProb)
	}
}

// TestOSharingOnInstanceMissingARelation runs a prepared o-sharing trace on
// an instance that lacks a relation the trace scans, and on one where that
// relation's columns are reordered (its rows with them, so the data is the
// same by name): each is reported before the walk runs anything, instead of
// dereferencing a missing relation or reading a column at the position it was
// planned for.  It is the u-trace's counterpart of the engine's
// TestProgramOnInstanceMissingARelation.
func TestOSharingOnInstanceMissingARelation(t *testing.T) {
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := NewEvaluator(ds.DB, ds.Mappings()).Prepare(datagen.MustWorkloadQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	ec := exec.Sequential()
	sp, _, err := prep.FrontHalf(ec, Options{Method: MethodOSharing})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.trace.rels) == 0 {
		t.Fatal("the trace scans no relation")
	}
	for _, r := range sp.trace.rels {
		base := ds.DB.Relation(r.name)
		reordered := engine.NewRelation(r.name, reversed(base.Columns))
		for _, row := range base.Rows {
			reordered.MustAppend(reversed(row))
		}
		missing, reshaped := engine.NewInstance("D"), engine.NewInstance("D")
		for _, name := range ds.DB.RelationNames() {
			if name != r.name {
				missing.AddRelation(ds.DB.Relation(name))
				reshaped.AddRelation(ds.DB.Relation(name))
			}
		}
		reshaped.AddRelation(reordered)
		for _, c := range []struct {
			db   *engine.Instance
			want string
		}{
			{missing, fmt.Sprintf("o-sharing: unknown source relation %q", r.name)},
			{reshaped, fmt.Sprintf("o-sharing: source relation %q has columns %v, the trace was planned for %v", r.name, reordered.Columns, base.Columns)},
		} {
			if _, err := sp.ExecuteOn(ec, c.db); err == nil || err.Error() != c.want {
				t.Errorf("%s: error %v, want %s", r.name, err, c.want)
			}
		}
	}
}

// reversed returns a reversed copy of s.
func reversed[S ~[]E, E any](s S) S {
	out := slices.Clone(s)
	slices.Reverse(out)
	return out
}
