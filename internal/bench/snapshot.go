package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
)

// OperatorBench compares the live implementation of one engine operator
// against the retained naive reference (the pre-streaming engine) on the same
// input: the "before/after" record of the streaming-pipeline rewrite.
type OperatorBench struct {
	Rows       int     `json:"rows"`
	NaiveNsOp  int64   `json:"naive_ns_per_op"`
	EngineNsOp int64   `json:"engine_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

// MethodBench is one full evaluation of the default benchmark query.
// IndexBuilds/IndexLookups surface the shared base-relation index subsystem's
// work for the run: how many per-column indexes were constructed versus how
// many operators were served from one.
//
// ColdMs/PreparedMs compare one-shot evaluation (parse-validated query,
// reformulation through every mapping, plan compilation, execution) against
// re-executing a prepared query (execution and aggregation only), both
// measured under the Go benchmark harness.  PreparedSpeedup = ColdMs /
// PreparedMs is what the session API's amortization buys per request.
type MethodBench struct {
	TotalMs      float64 `json:"total_ms"`
	Operators    int     `json:"operators"`
	Answers      int     `json:"answers"`
	IndexBuilds  int     `json:"index_builds"`
	IndexLookups int     `json:"index_lookups"`

	ColdMs          float64 `json:"cold_ms,omitempty"`
	PreparedMs      float64 `json:"prepared_ms,omitempty"`
	PreparedSpeedup float64 `json:"prepared_speedup,omitempty"`
}

// EngineSnapshot is the machine-readable perf snapshot urm-bench -json emits
// (BENCH_engine.json): per-operator reference-vs-engine throughput plus
// end-to-end per-method timings.  Most operator pairs compare against the
// retained naive reference; the index pairs ("index-lookup",
// "shared-join-build") compare the shared base-relation index subsystem
// against the non-indexed streaming pipeline.
type EngineSnapshot struct {
	GoVersion  string                   `json:"go_version"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	BenchRows  int                      `json:"bench_rows"`
	Operators  map[string]OperatorBench `json:"operators"`
	Methods    map[string]MethodBench   `json:"methods"`
}

// snapshotRows is the input size for the operator measurements.
const snapshotRows = 20000

// snapshotSharedH is the number of identical source queries the shared
// join-build pair evaluates per measurement — the e-basic shape, one probe per
// reformulated mapping.
const snapshotSharedH = 8

func snapshotRelation(name string, n int) *engine.Relation {
	r := engine.NewRelation(name, []string{name + ".id", name + ".tag", name + ".score"})
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, engine.Tuple{
			engine.I(int64(i % (n/100 + 1))),
			engine.S(fmt.Sprintf("tag-%d", i%97)),
			engine.F(float64(i%1000) / 3),
		})
	}
	return r
}

// snapshotWideKeyedRelation is snapshotKeyedRelation with width columns: the
// key, then padding of the kinds a source row carries.  The reformulated join
// queries pair 19–25-column rows and keep one column; this is that shape.
func snapshotWideKeyedRelation(name string, n, stride, width int) *engine.Relation {
	cols := []string{name + ".id"}
	for c := 1; c < width; c++ {
		cols = append(cols, fmt.Sprintf("%s.c%d", name, c))
	}
	r := engine.NewRelation(name, cols)
	for i := 0; i < n; i++ {
		t := make(engine.Tuple, width)
		t[0] = engine.I(int64((i*stride + 1) % snapshotRows))
		for c := 1; c < width; c++ {
			switch c % 3 {
			case 0:
				t[c] = engine.I(int64(i + c))
			case 1:
				t[c] = engine.S(fmt.Sprintf("tag-%d", (i+c)%97))
			default:
				t[c] = engine.F(float64((i+c)%1000) / 3)
			}
		}
		r.Rows = append(r.Rows, t)
	}
	return r
}

func snapshotKeyedRelation(name string, n, stride int) *engine.Relation {
	r := engine.NewRelation(name, []string{name + ".id", name + ".tag"})
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, engine.Tuple{
			engine.I(int64((i*stride + 1) % snapshotRows)),
			engine.S(fmt.Sprintf("tag-%d", i%97)),
		})
	}
	return r
}

// measureRuns is how many times each side of a pair runs under the benchmark
// harness; the fastest counts.  On a shared box noise only ever adds time
// (benchmark/README.md), so the least of a few runs is the repeatable figure
// and a single run is what made `project`'s 1.2 floor flaky.
const measureRuns = 3

// measurePair benchmarks the naive and live implementations of one operator.
// The sides alternate — naive, live, naive, live, … — so a slow patch on a
// shared box lands on both sides rather than on whichever ran during it.
func measurePair(rows int, naive, live func() error) (OperatorBench, error) {
	var firstErr error
	bench := func(fn func() error) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					b.Fatal(err)
				}
			}
		}).NsPerOp()
	}
	var nb, eb int64
	for r := 0; r < measureRuns && firstErr == nil; r++ {
		if ns := bench(naive); nb == 0 || ns < nb {
			nb = ns
		}
		if firstErr != nil {
			break
		}
		if ns := bench(live); eb == 0 || ns < eb {
			eb = ns
		}
	}
	if firstErr != nil {
		return OperatorBench{}, firstErr
	}
	out := OperatorBench{Rows: rows, NaiveNsOp: nb, EngineNsOp: eb}
	if eb > 0 {
		out.Speedup = float64(nb) / float64(eb)
	}
	return out, nil
}

// Snapshot measures the engine's operator throughput against the naive
// reference and times every evaluation method end to end.  It takes about a
// minute and a half: each side of each operator pair runs measureRuns times
// under the standard Go benchmark harness.
func Snapshot() (*EngineSnapshot, error) {
	ctx := context.Background()
	snap := &EngineSnapshot{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BenchRows:  snapshotRows,
		Operators:  make(map[string]OperatorBench),
		Methods:    make(map[string]MethodBench),
	}

	execPlan := func(db *engine.Instance, plan engine.Plan, indexes *engine.IndexCache) error {
		ex := &engine.Executor{DB: db, Stats: engine.NewStats(), Indexes: indexes}
		_, err := ex.ExecuteContext(ctx, plan)
		return err
	}
	selectPred := func() engine.Predicate {
		return engine.And(
			&engine.ConstPredicate{Column: "L.score", Op: engine.OpGt, Value: engine.F(50)},
			&engine.ConstPredicate{Column: "L.tag", Op: engine.OpNe, Value: engine.S("tag-13")},
		)
	}

	// Every pair builds its fixtures inside its own setup closure, so the only
	// live heap during a measurement is that pair's own input — a fixture for
	// a later pair must not tax an earlier pair's GC cycles.  The explicit GC
	// between pairs returns the previous fixtures before the next timing run.
	// The single-operator pairs measure the engine side through the
	// position-taking entry points o-sharing runs, bound in the setup as
	// o-sharing binds them when it plans its u-trace.
	type opCase struct {
		name  string
		rows  int
		setup func() (naive, live func() error, err error)
	}
	cases := []opCase{
		{"select", snapshotRows, func() (func() error, func() error, error) {
			rel := snapshotRelation("L", snapshotRows)
			pred := selectPred()
			f, err := engine.CompileFilter(pred, rel.Columns)
			return func() error { _, err := engine.NaiveSelect(ctx, rel, pred, nil); return err },
				func() error { _, err := f.Rows(ctx, rel.Rows, nil, nil, nil); return err }, err
		}},
		{"project", snapshotRows, func() (func() error, func() error, error) {
			rel := snapshotRelation("L", snapshotRows)
			cols := []string{"L.score", "L.id"}
			idx, err := engine.ColumnPositions(rel.Columns, cols)
			return func() error { _, err := engine.NaiveProject(ctx, rel, cols, nil); return err },
				func() error { _, err := engine.ProjectRows(ctx, rel.Rows, idx, nil); return err }, err
		}},
		{"hashjoin", snapshotRows + snapshotRows/4, func() (func() error, func() error, error) {
			joinLeft := snapshotKeyedRelation("L", snapshotRows, 1)
			joinRight := snapshotKeyedRelation("R", snapshotRows/4, 4)
			// Joined on id, column 0 of each side; both columns of each side
			// are kept, as the reference keeps them.
			keep := []int{0, 1}
			return func() error {
					_, err := engine.NaiveHashJoin(ctx, joinLeft, joinRight, "L.id", "R.id", nil)
					return err
				}, func() error {
					_, err := engine.JoinRows(ctx, joinLeft.Rows, joinRight.Rows, 0, 0, keep, keep, false, nil, nil, nil)
					return err
				}, nil
		}},
		{"distinct", snapshotRows, func() (func() error, func() error, error) {
			rel := snapshotRelation("L", snapshotRows)
			return func() error { _, err := engine.NaiveDistinct(ctx, rel, nil); return err },
				func() error { _, err := engine.DistinctRows(ctx, rel.Rows, nil); return err }, nil
		}},
		{"aggregate", snapshotRows, func() (func() error, func() error, error) {
			rel := snapshotRelation("L", snapshotRows)
			a, err := engine.CompileAggregate(rel.Columns, engine.AggSum, "L.score")
			return func() error { _, err := engine.NaiveAggregate(ctx, rel, engine.AggSum, "L.score", nil); return err },
				func() error { _, err := a.Row(ctx, rel.Rows, nil); return err }, err
		}},
		{"pipeline", snapshotRows, func() (func() error, func() error, error) {
			pipelineDB := engine.NewInstance("D")
			pipelineDB.AddRelation(snapshotRelation("T", snapshotRows))
			pipelinePlan := &engine.ProjectPlan{
				Columns: []string{"T.id"},
				Child: &engine.SelectPlan{
					Pred: &engine.ConstPredicate{Column: "T.score", Op: engine.OpGt, Value: engine.F(50)},
					Child: &engine.SelectPlan{
						Pred:  &engine.ConstPredicate{Column: "T.tag", Op: engine.OpNe, Value: engine.S("tag-13")},
						Child: &engine.ScanPlan{Relation: "T"},
					},
				},
			}
			return func() error {
					_, err := engine.NaiveExecute(ctx, pipelineDB, pipelinePlan, engine.NewStats())
					return err
				}, func() error {
					ex := &engine.Executor{DB: pipelineDB, Stats: engine.NewStats()}
					_, err := ex.ExecuteContext(ctx, pipelinePlan)
					return err
				}, nil
		}},
		// Keeping 1 of the 14 columns of a join: the reference builds every
		// joined row whole and projects it; the plan's join builds only the
		// column the projection reads.
		{"project-join", snapshotRows + snapshotRows/4, func() (func() error, func() error, error) {
			db := engine.NewInstance("DW")
			left := snapshotWideKeyedRelation("L", snapshotRows, 1, 8)
			right := snapshotWideKeyedRelation("R", snapshotRows/4, 4, 6)
			db.AddRelation(left)
			db.AddRelation(right)
			cols := []string{"R.c3"}
			plan := &engine.ProjectPlan{Columns: cols, Child: &engine.JoinPlan{
				LeftCol: "L.id", RightCol: "R.id",
				Left:  &engine.ScanPlan{Relation: "L"},
				Right: &engine.ScanPlan{Relation: "R"},
			}}
			return func() error {
				joined, err := engine.NaiveHashJoin(ctx, left, right, "L.id", "R.id", nil)
				if err != nil {
					return err
				}
				_, err = engine.NaiveProject(ctx, joined, cols, nil)
				return err
			}, func() error { return execPlan(db, plan, nil) }, nil
		}},
		// Index subsystem pairs: a selective (~0.5%) constant-equality
		// selection served from the shared per-column index versus the full
		// scan+filter pipeline, and h identical joins probing the shared build
		// versus h independent builds.  The setups warm the shared indexes so
		// the pairs measure steady-state lookups, not the one-time builds.
		{"index-lookup", snapshotRows, func() (func() error, func() error, error) {
			idxDB := engine.NewInstance("DX")
			idxDB.AddRelation(snapshotRelation("T", snapshotRows))
			idxSelPlan := &engine.SelectPlan{
				Pred:  &engine.ConstPredicate{Column: "T.id", Op: engine.OpEq, Value: engine.I(7)},
				Child: &engine.ScanPlan{Relation: "T"},
			}
			if err := execPlan(idxDB, idxSelPlan, idxDB.Indexes()); err != nil {
				return nil, nil, err
			}
			return func() error { return execPlan(idxDB, idxSelPlan, nil) },
				func() error { return execPlan(idxDB, idxSelPlan, idxDB.Indexes()) }, nil
		}},
		{"shared-join-build", snapshotRows + snapshotRows/4, func() (func() error, func() error, error) {
			joinDB := engine.NewInstance("DJ")
			joinDB.AddRelation(snapshotKeyedRelation("L", snapshotRows, 1))
			joinDB.AddRelation(snapshotKeyedRelation("R", snapshotRows/4, 4))
			idxJoinPlan := &engine.JoinPlan{
				LeftCol: "L.id", RightCol: "R.id",
				Left:  &engine.ScanPlan{Relation: "L"},
				Right: &engine.ScanPlan{Relation: "R"},
			}
			if err := execPlan(joinDB, idxJoinPlan, joinDB.Indexes()); err != nil {
				return nil, nil, err
			}
			return func() error {
					for q := 0; q < snapshotSharedH; q++ {
						if err := execPlan(joinDB, idxJoinPlan, nil); err != nil {
							return err
						}
					}
					return nil
				}, func() error {
					for q := 0; q < snapshotSharedH; q++ {
						if err := execPlan(joinDB, idxJoinPlan, joinDB.Indexes()); err != nil {
							return err
						}
					}
					return nil
				}, nil
		}},
	}
	for _, c := range cases {
		naive, live, err := c.setup()
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", c.name, err)
		}
		runtime.GC()
		ob, err := measurePair(c.rows, naive, live)
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", c.name, err)
		}
		snap.Operators[c.name] = ob
	}

	// End-to-end per-method timings on the default benchmark query, plus the
	// cold-versus-prepared pair: how much of each method's per-request cost
	// the session API's prepare-once amortizes away.
	// Mappings is the *maximum* h any measurement below asks for: the
	// per-method timings use a renormalised 24-mapping prefix, the prepared
	// pair the full paper-scale 100.
	r := NewRunner(Config{Mappings: preparedBenchMappings, SizeMB: 8, Seed: 42})
	for _, m := range []core.Method{
		core.MethodBasic, core.MethodEBasic, core.MethodEMQO,
		core.MethodQSharing, core.MethodOSharing,
	} {
		res, err := r.evaluate(4, m, 24, 8)
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", m, err)
		}
		mb := MethodBench{
			TotalMs:      float64(res.TotalTime.Microseconds()) / 1000,
			Operators:    res.Stats.TotalOperators(),
			Answers:      len(res.Answers),
			IndexBuilds:  res.Stats.IndexBuilds(),
			IndexLookups: res.Stats.IndexLookups(),
		}
		cold, prepared, err := r.preparedPair(preparedBenchQuery, m, preparedBenchMappings, preparedBenchSizeMB)
		if err != nil {
			return nil, fmt.Errorf("snapshot %s prepared pair: %w", m, err)
		}
		mb.ColdMs = float64(cold) / 1e6
		mb.PreparedMs = float64(prepared) / 1e6
		if prepared > 0 {
			mb.PreparedSpeedup = float64(cold) / float64(prepared)
		}
		snap.Methods[m.String()] = mb
	}

	return snap, nil
}

// The prepared-versus-cold pair runs the paper's Q1 — a selection chain the
// shared indexes answer with point probes — at the paper's mapping scale on a
// small instance: with h=100 and microsecond executions the front half
// (reformulate through every mapping, optimize, compile — and for e-MQO the
// Θ(Q³) global-plan search) is a large share of each request, which is
// exactly the serving regime the session API targets (many mappings, indexed
// point queries behind the answer cache).
const (
	preparedBenchQuery    = 1
	preparedBenchMappings = 100
	preparedBenchSizeMB   = 4
)

// preparedPair measures one workload query under the method twice, returning
// ns/op for each: prepared re-executes one core.Prepared, cold makes a fresh
// one per iteration (Evaluator.Evaluate is Prepare + Execute), so it pays the
// front half — the method's group list — and the execution every time.  The
// two sides run the same code; the ratio is what the front half costs.
func (r *Runner) preparedPair(queryID int, m core.Method, h int, sizeMB float64) (coldNs, preparedNs int64, err error) {
	target, err := datagen.QueryTarget(queryID)
	if err != nil {
		return 0, 0, err
	}
	ds, maps, err := r.dataset(target, sizeMB, h)
	if err != nil {
		return 0, 0, err
	}
	q, err := datagen.WorkloadQuery(queryID)
	if err != nil {
		return 0, 0, err
	}
	opts := core.Options{Method: m, Parallelism: 1}
	ev := core.NewEvaluator(ds.DB, maps)

	prep, err := ev.Prepare(q)
	if err != nil {
		return 0, 0, err
	}
	// Warm the front half (and the shared base-relation indexes) so both
	// sides measure steady state: cold still pays reformulation and plan
	// compilation every iteration, prepared only execution.
	if _, err := prep.Execute(opts); err != nil {
		return 0, 0, err
	}

	var firstErr error
	run := func(fn func() error) int64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					b.Fatal(err)
				}
			}
		})
		return res.NsPerOp()
	}
	coldNs = run(func() error { _, err := ev.Evaluate(q, opts); return err })
	preparedNs = run(func() error { _, err := prep.Execute(opts); return err })
	if firstErr != nil {
		return 0, 0, firstErr
	}
	return coldNs, preparedNs, nil
}

// JSON renders the snapshot with stable indentation.
func (s *EngineSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
