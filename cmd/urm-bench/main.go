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
	"io"
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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("urm-bench", flag.ContinueOnError)
	var (
		figID    = fs.String("fig", "all", "experiment ID to run (e.g. Fig11a, TableIV) or 'all'")
		mappings = fs.Int("mappings", 0, "default number of possible mappings h (0 = harness default 100)")
		sizeMB   = fs.Float64("size", 0, "default nominal database scale in MB, not bytes (0 = harness default 40, 423 rows; 100 generates 1,050 rows, where the paper's 100 MB instance has ~866,000)")
		seed     = fs.Uint64("seed", 42, "data-generation seed")
		runs     = fs.Int("runs", 1, "repetitions averaged per measurement")
		sweepH   = fs.String("mapping-sweep", "", "comma-separated mapping counts for the sweep figures (default 100,200,300,400,500)")
		sweepMB  = fs.String("size-sweep", "", "comma-separated database sizes for the sweep figures (default 20,40,60,80,100)")
		parallel = fs.Int("parallel", 1, "evaluation worker goroutines (0 = all cores; 1 = sequential, the paper's setting)")
		csv      = fs.Bool("csv", false, "also emit CSV for each table")
		outDir   = fs.String("out", "", "directory to write <ID>.csv files into")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		jsonSnap = fs.Bool("json", false, "measure the engine perf snapshot and write BENCH_engine.json instead of running experiments")
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
// it as machine-readable JSON to <dir>/BENCH_engine.json.
func writeSnapshot(dir string, out io.Writer) error {
	fmt.Fprintln(out, "urm-bench: measuring engine perf snapshot (takes ~40s)...")
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
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// checkSnapshot loads <dir>/BENCH_engine.json and fails if any operator pair
// regressed below its reference implementation.
func checkSnapshot(dir string, out io.Writer) error {
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
