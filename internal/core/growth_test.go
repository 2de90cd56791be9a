package core

import (
	"fmt"
	"testing"

	"github.com/probdb/urm/internal/datagen"
)

// growthMethods lists the methods in the order the gate reports them.
var growthMethods = []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing}

// growthBounds bounds, per query and method, how many times more rows an
// evaluation reads on the 10× instance (SizeMB 400, 4,000-odd source rows)
// than on the 1× one (SizeMB 40, 423 rows): Excel, 100 mappings, seed 42.
// Both counts are exact, so each bound is its measured ratio rounded up to a
// tenth.  A linear path grows by about 10; a bound far above that names the
// roadmap item that owns the path.  A fix lowers its row's bound; raising one
// is a named exception.  basic × Q4 stays out: at 10× it takes seconds.
var growthBounds = map[int]map[Method]float64{
	1: {MethodBasic: 10.4, MethodEBasic: 10.3, MethodEMQO: 10.4, MethodQSharing: 10.3, MethodOSharing: 10.4},
	2: {MethodBasic: 9.1, MethodEBasic: 8.7, MethodEMQO: 8.6, MethodQSharing: 8.7, MethodOSharing: 7.3},
	3: {MethodBasic: 9.9, MethodEBasic: 9.9, MethodEMQO: 9.8, MethodQSharing: 9.9, MethodOSharing: 9.9},
	// The plan methods' Q4 pairs every PO1 ⋈ PO2 row with every Item1 row
	// below the join that reads Item1's key: quadratic until ROADMAP item 12
	// pushes Item1 ⋈ Item2 below the product.  O-sharing joins factors.
	4: {MethodEBasic: 100, MethodEMQO: 100, MethodQSharing: 100, MethodOSharing: 10.0},
	// The plan methods' Q5 counts the rows of a product (PO maps to
	// Orders × Customer); o-sharing multiplies its factors' counts.  The
	// plan methods' half is ROADMAP item 19's optional second step.
	5: {MethodBasic: 40.2, MethodEBasic: 37.7, MethodEMQO: 52.1, MethodQSharing: 37.7, MethodOSharing: 10.4},
}

// TestRowsReadGrowth is the growth gate: Q1–Q5 under every method read at
// most their bound times as many rows at 10× as at 1×, so a path that turns
// quadratic fails here instead of hiding at 423 rows.  O-sharing keeps its
// fragments factorized, so its Q1, Q2 and Q5 also stay within 2× of
// e-basic's ratio.
func TestRowsReadGrowth(t *testing.T) {
	rows := make(map[string]int)
	for _, size := range []float64{40, 400} {
		ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: size, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(ds.DB, ds.Mappings())
		for id, bounds := range growthBounds {
			for m := range bounds {
				res, err := ev.Evaluate(datagen.MustWorkloadQuery(id), Options{Method: m, Parallelism: 1})
				if err != nil {
					t.Fatalf("Q%d/%s at %g MB: %v", id, m, size, err)
				}
				rows[fmt.Sprintf("Q%d/%s/%g", id, m, size)] = res.Stats.RowsRead()
			}
		}
	}
	ratio := func(id int, m Method) float64 {
		return float64(rows[fmt.Sprintf("Q%d/%s/400", id, m)]) / float64(rows[fmt.Sprintf("Q%d/%s/40", id, m)])
	}
	for id := 1; id <= 5; id++ {
		for _, m := range growthMethods {
			bound, ok := growthBounds[id][m]
			if !ok {
				continue
			}
			label := fmt.Sprintf("Q%d/%s", id, m)
			r := ratio(id, m)
			t.Logf("%s: %d → %d rows, %.2f× (bound %.1f×, e-basic %.2f×)", label,
				rows[label+"/40"], rows[label+"/400"], r, bound, ratio(id, MethodEBasic))
			if r > bound {
				t.Errorf("%s: rows read grew %.2f× from 1× to 10× (%d → %d), bound %.1f×", label, r, rows[label+"/40"], rows[label+"/400"], bound)
			}
		}
	}
	for _, id := range []int{1, 2, 5} {
		if o, e := ratio(id, MethodOSharing), ratio(id, MethodEBasic); o > 2*e {
			t.Errorf("Q%d: o-sharing's rows grew %.2f×, more than twice e-basic's %.2f×", id, o, e)
		}
	}
}
