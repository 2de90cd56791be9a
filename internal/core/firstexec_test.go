package core

import (
	"fmt"
	"testing"

	"github.com/probdb/urm/internal/datagen"
)

// TestFirstExecutionAllocations pins the allocations of a query's first
// execution — Prepare, then one Execute, which builds the method's front half
// — on the fixture the benchmark serves (Excel, 100 mappings, 40 MB, seed 42),
// at Parallelism 1, where they repeat exactly (under -race within a few).
// Q3/e-basic reformulates through all 100 mappings: 66,244 allocations when
// every reformulation resolved every reference again and every signature was
// rendered through fmt, 7,663 once the query is resolved at Prepare, each
// mapping reformulated by lookup, signatures written into one builder and the
// optimizer copies only the nodes it changes, and 6,991 (7,006 under -race)
// once the shape analysis stops building a child slice per plan node.
// o-sharing reads the same resolution for its normalized query and must not
// allocate more than it did with an alias cache of its own (Q1–Q5:
// 3,352/2,058/4,071/2,901/4,149).  The pins may move only down.
func TestFirstExecutionAllocations(t *testing.T) {
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ds.DB, ds.Mappings())
	pins := []struct {
		query  int
		method Method
		allocs float64
	}{
		{3, MethodEBasic, 7020},
		{1, MethodOSharing, 3352},
		{2, MethodOSharing, 2058},
		{3, MethodOSharing, 4071},
		{4, MethodOSharing, 2901},
		{5, MethodOSharing, 4149},
	}
	for _, pin := range pins {
		q := datagen.MustWorkloadQuery(pin.query)
		opts := Options{Method: pin.method, Parallelism: 1}
		label := fmt.Sprintf("Q%d/%s", pin.query, pin.method)
		got := testing.AllocsPerRun(5, func() {
			prep, err := ev.Prepare(q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if _, err := prep.Execute(opts); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		})
		t.Logf("%s: %v allocations", label, got)
		if got > pin.allocs {
			t.Errorf("%s: first execution allocated %v times, pinned at %v", label, got, pin.allocs)
		}
	}
}
