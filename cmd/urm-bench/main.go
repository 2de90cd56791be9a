// Command urm-bench reproduces the tables and figures of the paper's
// evaluation (Section VIII).  Each experiment prints a table whose rows mirror
// the corresponding figure's data series.
//
// Usage:
//
//	urm-bench                          # run every experiment at default scale
//	urm-bench -fig Fig11a              # run a single figure
//	urm-bench -mappings 500 -size 100  # paper-scale run (slower)
//	urm-bench -parallel 0              # use the concurrent runtime on all cores
//	urm-bench -csv -out results/       # also write CSV files
//	urm-bench -list                    # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/probdb/urm/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "urm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("urm-bench", flag.ContinueOnError)
	var (
		figID    = fs.String("fig", "all", "experiment ID to run (e.g. Fig11a, TableIV) or 'all'")
		mappings = fs.Int("mappings", 0, "default number of possible mappings h (0 = harness default 100)")
		sizeMB   = fs.Float64("size", 0, "default database scale in MB (0 = harness default 40; the paper uses 100)")
		seed     = fs.Uint64("seed", 42, "data-generation seed")
		runs     = fs.Int("runs", 1, "repetitions averaged per measurement")
		sweepH   = fs.String("mapping-sweep", "", "comma-separated mapping counts for the sweep figures (default 100,200,300,400,500)")
		sweepMB  = fs.String("size-sweep", "", "comma-separated database sizes for the sweep figures (default 20,40,60,80,100)")
		parallel = fs.Int("parallel", 1, "evaluation worker goroutines (0 = all cores; 1 = sequential, the paper's setting)")
		batch    = fs.Int("batch", 0, "engine batch-size override: 0 = engine default, N = N rows per batch")
		csv      = fs.Bool("csv", false, "also emit CSV for each table")
		outDir   = fs.String("out", "", "directory to write <ID>.csv files into")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		jsonSnap = fs.Bool("json", false, "measure the engine perf snapshot and write BENCH_engine.json instead of running experiments")
		serve    = fs.Bool("serve", false, "run the query-service benchmark (cold vs cached latency through the HTTP layer) and merge it into BENCH_engine.json")
		storeB   = fs.Bool("store", false, "run the durable-store benchmark (WAL append fsync on/off vs in-memory, snapshot and recovery cost) and merge it into BENCH_engine.json")
		shardsB  = fs.Bool("shards", false, "run the scatter-gather scaling benchmark (shards 1/2/4/8 in-process + 2-node HTTP coordinator) and merge it into BENCH_engine.json")
		deltaB   = fs.Bool("delta", false, "run the incremental-maintenance benchmark (append+query mix, delta-maintained vs invalidate-all) and merge it into BENCH_engine.json")
		check    = fs.Bool("check", false, "validate BENCH_engine.json (operator speedups above their floors) and exit — the CI bench-regression gate")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected trailing arguments: %q", fs.Args())
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "urm-bench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "urm-bench: -memprofile:", err)
			}
		}()
	}
	if *jsonSnap {
		return writeSnapshot(*outDir, out)
	}
	if *serve {
		return serveSnapshot(*outDir, out)
	}
	if *storeB {
		return storeSnapshot(*outDir, out)
	}
	if *shardsB {
		return shardsSnapshot(*outDir, out)
	}
	if *deltaB {
		return deltaSnapshot(*outDir, out)
	}
	if *check {
		return checkSnapshot(*outDir, out)
	}
	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(out, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg := bench.DefaultConfig()
	if *mappings > 0 {
		cfg.Mappings = *mappings
	}
	if *sizeMB > 0 {
		cfg.SizeMB = *sizeMB
	}
	cfg.Seed = *seed
	cfg.Runs = *runs
	cfg.Parallelism = *parallel
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if *batch < 0 {
		return fmt.Errorf("-batch: negative batch size %d", *batch)
	}
	cfg.BatchSize = *batch
	if *sweepH != "" {
		ints, err := parseInts(*sweepH)
		if err != nil {
			return fmt.Errorf("-mapping-sweep: %w", err)
		}
		cfg.MappingSweep = ints
	}
	if *sweepMB != "" {
		floats, err := parseFloats(*sweepMB)
		if err != nil {
			return fmt.Errorf("-size-sweep: %w", err)
		}
		cfg.SizeSweep = floats
	}

	runner := bench.NewRunner(cfg)
	var experiments []bench.Experiment
	if *figID == "all" {
		experiments = bench.Experiments()
	} else {
		e, err := bench.ExperimentByID(*figID)
		if err != nil {
			return err
		}
		experiments = []bench.Experiment{e}
	}

	fmt.Fprintf(out, "urm-bench: h=%d, size=%.0fMB, seed=%d, runs=%d, parallel=%d\n\n",
		cfg.Mappings, cfg.SizeMB, cfg.Seed, cfg.Runs, cfg.Parallelism)
	for _, e := range experiments {
		start := time.Now()
		table, err := e.Run(runner)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(out, table.String())
		fmt.Fprintf(out, "(%s completed in %.2fs)\n\n", e.ID, time.Since(start).Seconds())
		if *csv {
			fmt.Fprintln(out, table.CSV())
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSnapshot measures the engine perf snapshot (operator throughput versus
// the retained naive reference, plus per-method end-to-end timings) and writes
// it as machine-readable JSON to <dir>/BENCH_engine.json.  A serve section a
// previous `urm-bench -serve` run merged into the file is preserved, mirroring
// how -serve preserves the operator measurements.
func writeSnapshot(dir string, out *os.File) error {
	fmt.Fprintln(out, "urm-bench: measuring engine perf snapshot (takes ~10s)...")
	snap, err := bench.Snapshot()
	if err != nil {
		return err
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_engine.json")
	if prev, err := bench.ReadSnapshot(path); err == nil {
		snap.Serve = prev.Serve
		snap.QoS = prev.QoS
		snap.Store = prev.Store
		snap.Shards = prev.Shards
		snap.Delta = prev.Delta
	}
	data, err := snap.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(snap.Operators))
	for name := range snap.Operators {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ob := snap.Operators[name]
		fmt.Fprintf(out, "  %-9s naive %8.3fms  engine %8.3fms  speedup %.2fx\n",
			name, float64(ob.NaiveNsOp)/1e6, float64(ob.EngineNsOp)/1e6, ob.Speedup)
	}
	methods := make([]string, 0, len(snap.Methods))
	for name := range snap.Methods {
		methods = append(methods, name)
	}
	sort.Strings(methods)
	fmt.Fprintln(out, "prepared re-execution vs cold Evaluate (h=100 workload):")
	for _, name := range methods {
		mb := snap.Methods[name]
		if mb.PreparedSpeedup == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-9s cold %8.3fms  prepared %8.3fms  speedup %.2fx\n",
			name, mb.ColdMs, mb.PreparedMs, mb.PreparedSpeedup)
	}
	if mc := snap.Multicore; mc != nil {
		fmt.Fprintf(out, "partitioned join build (GOMAXPROCS=%d, %d CPUs, %d build rows): seq %8.3fms  %d workers %8.3fms  speedup %.2fx\n",
			mc.GOMAXPROCS, mc.NumCPU, mc.BuildRows,
			float64(mc.SequentialNs)/1e6, mc.Workers, float64(mc.ParallelNs)/1e6, mc.Speedup)
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// serveSnapshot runs the query-service benchmark and the tenant-isolation
// (QoS) benchmark and merges their sections into <dir>/BENCH_engine.json,
// preserving the operator and method measurements a previous `urm-bench
// -json` run recorded (the file is created if absent — note that `-check`
// requires operator pairs, so run `-json` too before committing a fresh
// file).
func serveSnapshot(dir string, out *os.File) error {
	fmt.Fprintln(out, "urm-bench: measuring query-service snapshot (takes ~10s)...")
	sb, err := bench.ServeSnapshot()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "urm-bench: measuring tenant-isolation (QoS) snapshot (takes ~15s)...")
	qb, err := bench.QoSSnapshot()
	if err != nil {
		return err
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_engine.json")
	snap, err := bench.ReadSnapshot(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		snap = &bench.EngineSnapshot{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	}
	snap.Serve = sb
	snap.QoS = qb
	data, err := snap.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  cold:   %3d requests  p50 %8.2fms  p99 %8.2fms\n", sb.Cold.Requests, sb.Cold.P50Ms, sb.Cold.P99Ms)
	fmt.Fprintf(out, "  cached: %3d requests  p50 %8.2fms  p99 %8.2fms  %8.0f req/s\n",
		sb.Cached.Requests, sb.Cached.P50Ms, sb.Cached.P99Ms, sb.ThroughputRPS)
	fmt.Fprintf(out, "  evaluations %d, cache hits %d, misses %d, index builds %d, lookups %d\n",
		sb.Evaluations, sb.CacheHits, sb.CacheMisses, sb.IndexBuilds, sb.IndexLookups)
	fmt.Fprintf(out, "qos (hostile tenant at %.0fx budget):\n", qb.OverBudget)
	fmt.Fprintf(out, "  solo:      %3d/%3d ok  p50 %8.2fms  p99 %8.2fms\n",
		qb.Solo.Succeeded, qb.Solo.Requests, qb.Solo.Latency.P50Ms, qb.Solo.Latency.P99Ms)
	fmt.Fprintf(out, "  contended: %3d/%3d ok  p50 %8.2fms  p99 %8.2fms  (p99 ratio %.2fx, success ratio %.2fx)\n",
		qb.Contended.Succeeded, qb.Contended.Requests, qb.Contended.Latency.P50Ms, qb.Contended.Latency.P99Ms,
		qb.P99Ratio, qb.SuccessRatio)
	fmt.Fprintf(out, "  hostile: %d attempts, %d admitted, %d rejected (server shed %d)\n",
		qb.HostileAttempts, qb.HostileAdmitted, qb.HostileRejected, qb.ServerShedRateLimited)
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// storeSnapshot runs the durable-store benchmark and merges its section into
// <dir>/BENCH_engine.json, preserving every other section.
func storeSnapshot(dir string, out *os.File) error {
	fmt.Fprintln(out, "urm-bench: measuring durable-store snapshot (takes ~10s)...")
	sb, err := bench.StoreSnapshot()
	if err != nil {
		return err
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_engine.json")
	snap, err := bench.ReadSnapshot(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		snap = &bench.EngineSnapshot{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	}
	snap.Store = sb
	data, err := snap.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  register (%d rows): %8.3fms   snapshot: %8.3fms   recover: %8.3fms (%d records replayed)\n",
		sb.Rows, sb.RegisterMs, sb.SnapshotMs, sb.RecoverMs, sb.ReplayedRecords)
	fmt.Fprintf(out, "  append: memory %8d ns/op   wal %8d ns/op   wal+fsync %8d ns/op (fsync overhead %.1fx)\n",
		sb.AppendMemNs, sb.AppendNoSyncNs, sb.AppendFsyncNs, sb.FsyncOverhead)
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// shardsSnapshot runs the scatter-gather scaling benchmark and merges its
// section into <dir>/BENCH_engine.json, preserving every other section.
func shardsSnapshot(dir string, out *os.File) error {
	fmt.Fprintln(out, "urm-bench: measuring scatter-gather scaling snapshot (takes ~30s)...")
	sb, err := bench.ShardsSnapshot()
	if err != nil {
		return err
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_engine.json")
	snap, err := bench.ReadSnapshot(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		snap = &bench.EngineSnapshot{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	}
	snap.Shards = sb
	data, err := snap.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  %s over %d rows of Orders, h=%d (%d CPUs):\n", sb.Method, sb.Rows, sb.Mappings, sb.NumCPU)
	for _, p := range sb.InProcess {
		fmt.Fprintf(out, "  shards=%d  %8.3fms/op  speedup %.2fx\n", p.Shards, float64(p.NsOp)/1e6, p.Speedup)
	}
	fmt.Fprintf(out, "  2-node HTTP coordinator: %d requests  p50 %8.2fms  p99 %8.2fms\n",
		sb.TwoNode.Requests, sb.TwoNode.P50Ms, sb.TwoNode.P99Ms)
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// deltaSnapshot runs the incremental-maintenance benchmark and merges its
// section into <dir>/BENCH_engine.json, preserving every other section.
func deltaSnapshot(dir string, out *os.File) error {
	fmt.Fprintln(out, "urm-bench: measuring incremental-maintenance snapshot (takes ~30s)...")
	db, err := bench.DeltaSnapshot()
	if err != nil {
		return err
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_engine.json")
	snap, err := bench.ReadSnapshot(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		snap = &bench.EngineSnapshot{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	}
	snap.Delta = db
	data, err := snap.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  %s on %q, %d rounds x %d-row batches, %d queries/round:\n",
		db.Method, db.Scenario, db.Rounds, db.BatchSize, db.QueriesPerRound)
	fmt.Fprintf(out, "  delta:    %3d queries  p50 %8.3fms  p99 %8.3fms  (maintenance %8.2fms total)\n",
		db.Delta.Requests, db.Delta.P50Ms, db.Delta.P99Ms, db.MaintainMs)
	fmt.Fprintf(out, "  baseline: %3d queries  p50 %8.3fms  p99 %8.3fms\n",
		db.Baseline.Requests, db.Baseline.P50Ms, db.Baseline.P99Ms)
	fmt.Fprintf(out, "  p99 ratio %.2fx, mean ratio %.2fx; delta applied %d, fallbacks %d, in-place index appends %d\n",
		db.P99Ratio, db.MeanRatio, db.DeltaApplied, db.DeltaFallbacks, db.IndexInplaceAppends)
	fmt.Fprintf(out, "  evaluations: delta %d vs baseline %d\n", db.DeltaEvaluations, db.BaselineEvaluations)
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// checkSnapshot loads <dir>/BENCH_engine.json and fails if any operator pair
// regressed below its reference implementation.
func checkSnapshot(dir string, out *os.File) error {
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_engine.json")
	snap, err := bench.ReadSnapshot(path)
	if err != nil {
		return err
	}
	if err := bench.CheckRegression(snap); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(out, "bench-regression: %s ok (%d operator pairs above their floors)\n", path, len(snap.Operators))
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
