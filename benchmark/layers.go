package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	urm "github.com/probdb/urm"
	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
)

// storeBatch is the rows per append batch of the store and delta timings.
const storeBatch = 10

// engineRows sizes the synthetic relations of the single-operator plans.
const engineRows = 20000

// engineInstance builds the synthetic instance the operator plans run over:
// R and S with engineRows rows each (a: unique key, b: 100 distinct values,
// c: string, d: float), and A × B small enough that their product has
// engineRows rows.
func engineInstance() *engine.Instance {
	db := engine.NewInstance("synthetic")
	wide := func(name string) {
		rel := engine.NewRelation(name, []string{"a", "b", "c", "d"})
		for i := 0; i < engineRows; i++ {
			rel.MustAppend(engine.Tuple{urm.Int(int64(i)), urm.Int(int64(i % 100)), urm.String(fmt.Sprintf("v%05d", i%1000)), urm.Float(float64(i) / 7)})
		}
		db.AddRelation(rel)
	}
	wide("R")
	wide("S")
	small := func(name string, n int) {
		rel := engine.NewRelation(name, []string{"x"})
		for i := 0; i < n; i++ {
			rel.MustAppend(engine.Tuple{urm.Int(int64(i))})
		}
		db.AddRelation(rel)
	}
	small("A", 200)
	small("B", engineRows/200)
	return db
}

// engineMetrics times single-operator plans through Executor.ExecuteContext.
// A row is one row the plan's operators read, as the engine's own Stats count
// them, so the unit stays meaningful for joins and index lookups alike.
func engineMetrics(ctx context.Context, out map[string]metric, reps int) error {
	db := engineInstance()
	scanR := &engine.ScanPlan{Relation: "R"}
	scanS := &engine.ScanPlan{Relation: "S"}
	selective := &engine.SelectPlan{Pred: engine.Eq("R.b", urm.Int(7)), Child: scanR}
	ops := []struct {
		name    string
		plan    engine.Plan
		indexed bool
	}{
		{"select", selective, false},
		{"project", &engine.ProjectPlan{Columns: []string{"R.a", "R.c"}, Child: scanR}, false},
		{"product", &engine.ProductPlan{Left: &engine.ScanPlan{Relation: "A"}, Right: &engine.ScanPlan{Relation: "B"}}, false},
		{"hashjoin", &engine.JoinPlan{LeftCol: "R.a", RightCol: "S.a", Left: scanR, Right: scanS}, false},
		{"distinct", &engine.DistinctPlan{Child: &engine.ProjectPlan{Columns: []string{"R.b", "R.c"}, Child: scanR}}, false},
		{"aggregate", &engine.AggregatePlan{Func: engine.AggSum, Column: "R.d", Child: scanR}, false},
		{"pipeline", &engine.ProjectPlan{Columns: []string{"R.a", "S.c"}, Child: &engine.JoinPlan{LeftCol: "R.a", RightCol: "S.a", Left: selective, Right: scanS}}, false},
		{"index_lookup", selective, true},
	}
	for _, op := range ops {
		var nsPerRow, bytesPerRow []float64
		for i := 0; i <= reps; i++ {
			ex := engine.NewExecutor(db)
			if op.indexed {
				ex.EnableIndexes()
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			rel, err := ex.ExecuteContext(ctx, op.plan)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return fmt.Errorf("engine %s: %w", op.name, err)
			}
			rows := ex.Stats.RowsRead()
			if rows == 0 {
				rows = rel.NumRows()
			}
			if rows == 0 {
				return fmt.Errorf("engine %s: plan read and produced no rows", op.name)
			}
			if i > 0 { // the first run builds the index where one is used
				nsPerRow = append(nsPerRow, float64(elapsed.Nanoseconds())/float64(rows))
				bytesPerRow = append(bytesPerRow, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(rows))
			}
		}
		out["engine."+op.name+".ns_per_row"] = metric{median(nsPerRow), "ns"}
		out["engine."+op.name+".alloc_bytes_per_row"] = metric{median(bytesPerRow), "B"}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// storeMetrics times the same append batches against a memory-only registry,
// a WAL without fsync and a WAL with fsync, so the write-ahead log's and the
// fsync's own costs fall out as differences; then a snapshot and a recovery.
func storeMetrics(ctx context.Context, out map[string]metric, dir string, h, reps int) error {
	batches := datagen.Batches(datagen.AppendStream(datagen.AppendStreamOptions{Rows: 2 * reps * storeBatch, Seed: 1}), storeBatch)
	appendAll := func(rs *urm.RegisteredScenario, batches [][]engine.Tuple) ([]float64, error) {
		var times []float64
		for _, b := range batches {
			start := time.Now()
			if err := rs.AppendRows(datagen.AppendStreamRelation, b); err != nil {
				return nil, err
			}
			times = append(times, us(time.Since(start)))
		}
		return times, nil
	}
	medians := map[string]float64{}
	var fsynced *urm.RegisteredScenario
	var fsyncDir string
	for _, mode := range []struct {
		name    string
		durable bool
		fsync   bool
	}{{"mem", false, false}, {"wal", true, false}, {"fsync", true, true}} {
		reg := urm.NewRegistry()
		storeDir := filepath.Join(dir, fmt.Sprintf("ladder-%s-%d", mode.name, time.Now().UnixNano()))
		if mode.durable {
			// Snapshots are timed on their own below, not inside an append.
			st, err := urm.OpenStore(storeDir, urm.StoreOptions{Fsync: mode.fsync, SnapshotEvery: -1})
			if err != nil {
				return err
			}
			defer os.RemoveAll(storeDir)
			reg = urm.NewRegistryWithStore(st)
		}
		_, rs, err := registerWarm(reg, "excel", h)
		if err != nil {
			return err
		}
		before, err := dirBytes(storeDir)
		if mode.durable && err != nil {
			return err
		}
		times, err := appendAll(rs, batches[:reps])
		if err != nil {
			return fmt.Errorf("store %s: %w", mode.name, err)
		}
		medians[mode.name] = median(times)
		out["store.append_"+mode.name+"_us"] = metric{medians[mode.name], "us"}
		if mode.name == "wal" {
			after, err := dirBytes(storeDir)
			if err != nil {
				return err
			}
			out["store.wal_bytes_per_row"] = metric{float64(after-before) / float64(reps*storeBatch), "B"}
		}
		if mode.fsync {
			fsynced, fsyncDir = rs, storeDir
		}
	}
	out["store.wal_self_us"] = metric{medians["wal"] - medians["mem"], "us"}
	out["store.fsync_self_us"] = metric{medians["fsync"] - medians["wal"], "us"}

	var snaps []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := fsynced.SnapshotNow(); err != nil {
			return fmt.Errorf("store snapshot: %w", err)
		}
		snaps = append(snaps, ms(time.Since(start)))
	}
	out["store.snapshot_ms"] = metric{median(snaps), "ms"}

	// Recovery replays what was appended after the last snapshot.
	if _, err := appendAll(fsynced, batches[reps:]); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var recovers []float64
	replayed := 0
	for i := 0; i < 3; i++ {
		st, err := urm.OpenStore(fsyncDir, urm.StoreOptions{Fsync: true, SnapshotEvery: -1})
		if err != nil {
			return err
		}
		reg := urm.NewRegistryWithStore(st)
		stats, err := reg.Recover(ctx, urm.RegisterOptions{WarmIndexes: true})
		if err != nil {
			return fmt.Errorf("store recover: %w", err)
		}
		if rs, ok := reg.Get("excel"); !ok || rs.Epoch() != fsynced.Epoch() {
			return fmt.Errorf("store recover: scenario not recovered to epoch %d (quarantined %v)", fsynced.Epoch(), stats.Quarantined)
		}
		recovers = append(recovers, ms(stats.Elapsed))
		replayed = stats.ReplayedRecords
	}
	out["store.recover_ms"] = metric{median(recovers), "ms"}
	out["store.recover_records"] = metric{float64(replayed), "count"}
	return nil
}

// deltaMetric is the time from an acknowledged append to its maintained
// answers being republished at the new epoch.  The server's background pass
// and the synchronous ConvergeDelta serialize on the scenario, so whichever
// runs, the answers are fresh when ConvergeDelta returns.
func deltaMetric(ctx context.Context, out map[string]metric, texts []string, h, reps int) error {
	reg := urm.NewRegistry()
	_, rs, err := registerWarm(reg, "excel", h)
	if err != nil {
		return err
	}
	srv := urm.NewServer(reg, serverConfig())
	defer func() {
		dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		_ = srv.Drain(dctx) // nothing is in flight; this stops the maintainer
	}()
	for _, q := range []int{1, 2, 3} {
		if _, err := srv.Do(ctx, urm.QueryRequest{Scenario: "excel", Query: texts[q], Method: urm.EBasic.String()}); err != nil {
			return fmt.Errorf("delta: enrolling Q%d: %w", q, err)
		}
	}
	batches := datagen.Batches(datagen.AppendStream(datagen.AppendStreamOptions{Rows: reps * storeBatch, Seed: 2}), storeBatch)
	var times []float64
	for _, b := range batches {
		if err := rs.AppendRows(datagen.AppendStreamRelation, b); err != nil {
			return err
		}
		start := time.Now()
		srv.ConvergeDelta("excel")
		times = append(times, ms(time.Since(start)))
	}
	out["delta.converge_ms"] = metric{median(times), "ms"}
	return nil
}
