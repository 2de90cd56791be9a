// Command benchmark is the repository's benchmark: five named workloads over
// real loopback HTTP against in-process urm.Server / urm.Coordinator
// instances, every answer checked against a library session, and a separate
// traced run that times calls into each layer from outside.
//
//	go run ./benchmark                       every workload, end to end and traced
//	go run ./benchmark -workload cold_shared -seed 7 -trace 0
//	go run ./benchmark -smoke                third-of-a-second runs of everything on an h=8 fixture
//	go run ./benchmark -compare              two sets of runs, checked against the bounds
//	go run ./benchmark -compare a.json b.json
//
// With -workload it speaks the driver's contract: the last line of standard
// output is one JSON object with correct, attempted, failed and metrics.  See
// README.md for the workloads, the metrics and what each is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// plan is how long one run sets up, warms and measures, and how strict it is.
type plan struct {
	// setupReps is how often a run sets its fixture up at least; setupBudget
	// buys a cheap set-up more repetitions, up to maxSetupReps, because setup_s
	// is their median and an 80 ms boot is mostly scheduling luck.
	setupReps   int
	setupBudget time.Duration
	warm        time.Duration
	measure     time.Duration
	// beyond is how many samples must lie beyond a reported percentile:
	// minBeyond, except in the smoke run, which checks names and answers on
	// windows too short to hold any.
	beyond int
	// dir is the scratch directory for durable stores and span files.
	dir string
	// mappings is h, the number of possible mappings of every scenario.
	mappings int
	ladder   ladderPlan
}

const (
	defaultSeconds = 16
	warmup         = 2 * time.Second
	maxSetupReps   = 9
)

// measurePlan is a measuring run of the given length.
func measurePlan(dir string, seconds int) plan {
	return plan{setupReps: 3, setupBudget: 2500 * time.Millisecond, warm: warmup, measure: time.Duration(seconds) * time.Second,
		beyond: minBeyond, dir: dir, mappings: fixtureMappings, ladder: fullLadder}
}

// smokeMappings shrinks the smoke run's scenarios: evaluation cost grows with
// h, and under the race detector the full h=100 makes a one-second look at
// every workload take minutes.
const smokeMappings = 8

// smokePlan runs everything once, for about a third of a second.
func smokePlan(dir string) plan {
	return plan{setupReps: 1, warm: 40 * time.Millisecond, measure: 320 * time.Millisecond, dir: dir, mappings: smokeMappings, ladder: smokeLadder}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports: the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	errs      []string
	// table is the traced run's per-cell evaluation times.
	table []cellTimes
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload and print the driver's JSON line (default: all, as a table)")
		seed    = fs.Uint64("seed", 42, "traffic seed: request order, Zipf draws and the append stream")
		seconds = fs.Int("seconds", defaultSeconds, "measured seconds per run")
		trace   = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs traced and reports the per-layer metrics")
		smoke   = fs.Bool("smoke", false, "run every workload end to end and traced for about a second each")
		compare = fs.Bool("compare", false, "run two sets of -runs runs per workload (or read two saved sets) and check spreads and medians against the bounds")
		runs    = fs.Int("runs", 10, "with -compare: runs per workload in a set, each with its own seed")
		out     = fs.String("out", "", "with -compare and no files: save the two sets as <out>.1.json and <out>.2.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *compare {
		return runCompare(fs.Args(), *seed, *seconds, *runs, *out)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %q", fs.Args())
	}
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.Remove(dir) // succeeds only when the run left nothing behind
	fmt.Fprintln(os.Stderr, "benchmark: scratch directory", dir)
	p := measurePlan(dir, *seconds)
	if *smoke {
		p = smokePlan(dir)
	}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		var res *result
		var err error
		if *trace != 0 {
			res, err = runTraced(w, *seed, p, nil)
		} else {
			res, err = runEndToEnd(w, *seed, p)
		}
		if err != nil {
			return err
		}
		for _, e := range res.errs {
			fmt.Fprintln(os.Stderr, "benchmark: failed operation:", e)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	return runAll(*seed, p)
}

// runAll runs every workload end to end and traced and prints every metric
// by name with its unit.  It fails on any failed operation.
func runAll(seed uint64, p plan) error {
	printEnvironment()
	bad := 0
	var ladder *result
	for _, w := range workloads {
		for _, label := range []string{"end-to-end", "traced"} {
			var res *result
			var err error
			if label == "traced" {
				res, err = runTraced(w, seed, p, ladder)
			} else {
				res, err = runEndToEnd(w, seed, p)
			}
			if err != nil {
				return fmt.Errorf("%s (%s): %w", w.name, label, err)
			}
			fmt.Printf("\n%s  %s  attempted %d  failed %d\n", w.name, label, res.Attempted, res.Failed)
			names := make([]string, 0, len(res.Metrics))
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("  %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
			}
			for _, e := range res.errs {
				fmt.Printf("  FAILED: %s\n", e)
			}
			bad += res.Failed
			if res.table != nil {
				printTimeTable(res.table)
				ladder = res
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d failed operation(s)", bad)
	}
	return nil
}

// printTimeTable prints where the time goes: per query and method, the
// first-sight premium (parse, reformulate, compile) and the phases of a warm
// execution, in milliseconds.
func printTimeTable(table []cellTimes) {
	fmt.Printf("\n  where the time goes (ms; prepare = first execution on a fresh session minus a warm one)\n")
	fmt.Printf("  %-14s %9s %9s %9s %9s %8s %9s\n", "cell", "prepare", "exec", "aggregate", "execute", "ops", "rows read")
	for _, ct := range table {
		fmt.Printf("  %-14s %9.3f %9.3f %9.3f %9.3f %8d %9d\n", ct.cell, ct.prepare, ct.exec, ct.aggregate, ct.execute, ct.operators, ct.rowsRead)
	}
}

// printEnvironment records what the numbers were measured on.
func printEnvironment() {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("go %s  GOMAXPROCS %d  nproc %d  commit %s\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit)
	fmt.Printf("fixture %s h=%d size=%g data seed %d; %d closed-loop clients; MaxConcurrent 2, Parallelism 1\n",
		fixtureTarget, fixtureMappings, float64(fixtureSizeMB), fixtureDataSeed, numClients)
}

// scratchDir makes this run's own directory for durable stores and span
// files.  The issue wanted it outside the repository; the driver allows
// writes only inside the checkout, so it goes under the directory the driver
// already uses for build output, which .gitignore names.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

// runEndToEnd sets the workload up (several times, for a steady setup_s),
// warms it, measures it with tracing off, checks it, and reports the
// end-to-end metrics.
func runEndToEnd(w workload, seed uint64, p plan) (*result, error) {
	e := &env{seed: seed, mappings: p.mappings, dir: p.dir, planned: p.warm + p.measure}
	var fx fixture
	var err error
	var setups []float64
	var spent time.Duration
	for i := 0; i < p.setupReps || (spent < p.setupBudget && i < maxSetupReps); i++ {
		if fx != nil {
			fx.close()
		}
		start := time.Now()
		if fx, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
	}
	defer fx.close()

	warm := fx.drive(p.warm)
	s := fx.drive(p.measure)
	fx.finish(s)

	res := &result{Metrics: map[string]metric{}}
	res.Attempted = warm.attempted + s.attempted
	res.Failed = warm.failed + s.failed
	res.errs = append(warm.errs, s.errs...)
	res.Correct = res.Failed == 0

	op, err := classLatency(s.gated, p.beyond)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["op_p10_ms"] = metric{op, "ms"}
	return res, nil
}

// liveHeapMB is HeapAlloc after a forced collection.  Two collections: the
// first may only queue finalizers (response bodies, listeners) whose objects
// the second then frees.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
