package bench

import (
	"fmt"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/datagen"
)

// BenchmarkMethods is the end-to-end counterpart of the engine
// microbenchmarks: one full evaluation per method over the default benchmark
// query, so regressions anywhere on the per-core hot path (reformulation,
// streaming execution, answer aggregation) show up as wall-clock.
//
//	go test ./internal/bench -bench Methods
func BenchmarkMethods(b *testing.B) {
	r := NewRunner(Config{
		Mappings: 24,
		SizeMB:   8,
		Seed:     42,
	})
	methods := []core.Method{
		core.MethodBasic, core.MethodEBasic, core.MethodEMQO,
		core.MethodQSharing, core.MethodOSharing,
	}
	// Generate the dataset once, outside the timed sections.
	if _, err := r.evaluate(4, core.MethodBasic, 24, 8); err != nil {
		b.Fatal(err)
	}
	for _, m := range methods {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.evaluate(4, m, 24, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOSharingGrowingOrders evaluates Q1 and Q2 under o-sharing on the
// served fixture (Excel, 100 mappings, 40 MB, seed 42) while the append stream
// grows Orders from its generated 60 rows to 800 (where the append_query
// workload ends) and 3,560 (where a re-evaluation per epoch used to hold the
// scenario lock for 47 ms).  The rows metric is the rows one evaluation reads.
//
//	go test ./internal/bench -run '^$' -bench OSharingGrowingOrders
func BenchmarkOSharingGrowingOrders(b *testing.B) {
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	orders := ds.DB.Relation(datagen.AppendStreamRelation)
	sizes := []int{orders.NumRows(), 800, 3560}
	stream := datagen.AppendStream(datagen.AppendStreamOptions{Rows: sizes[len(sizes)-1] - sizes[0]})
	ev := core.NewEvaluator(ds.DB, ds.Mappings())
	for _, size := range sizes {
		grow := size - orders.NumRows()
		if err := orders.AppendAll(stream[:grow]); err != nil {
			b.Fatal(err)
		}
		stream = stream[grow:]
		for _, id := range []int{1, 2} {
			prep, err := ev.Prepare(datagen.MustWorkloadQuery(id))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("Q%d/orders=%d", id, size), func(b *testing.B) {
				b.ReportAllocs()
				rows := 0
				for i := 0; i < b.N; i++ {
					res, err := prep.Execute(core.Options{Method: core.MethodOSharing, Parallelism: 1})
					if err != nil {
						b.Fatal(err)
					}
					rows = res.Stats.RowsRead()
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}
