package bench

import (
	"fmt"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/query"
)

// Experiment is one reproducible figure or table.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) (*Table, error)
}

// Experiments lists every figure and table of the paper's evaluation in the
// order they appear in Section VIII.
func Experiments() []Experiment {
	return []Experiment{
		{"Fig9a", "Overlap (o-ratio) of possible mappings vs. number of mappings", (*Runner).Figure9a},
		{"Fig10a", "basic: breakdown into evaluation and aggregation time, Q1-Q10", (*Runner).Figure10a},
		{"Fig10b", "Simple solutions vs. database size (Q4)", (*Runner).Figure10b},
		{"Fig10c", "Simple solutions vs. number of mappings (Q4)", (*Runner).Figure10c},
		{"Fig11a", "e-basic vs. q-sharing vs. o-sharing, Q1-Q10", (*Runner).Figure11a},
		{"Fig11b", "e-basic vs. q-sharing vs. o-sharing vs. database size (Q4)", (*Runner).Figure11b},
		{"Fig11c", "e-basic vs. q-sharing vs. o-sharing vs. number of mappings (Q4)", (*Runner).Figure11c},
		{"Fig11d", "Query time vs. number of selection operators", (*Runner).Figure11d},
		{"Fig11e", "Query time vs. number of Cartesian product operators", (*Runner).Figure11e},
		{"Fig11f", "Operator selection strategies (Random/SNF/SEF), Q1-Q5", (*Runner).Figure11f},
		{"TableIV", "Operator selection strategies: time and executed source operators (Q4)", (*Runner).TableIV},
		{"Fig12a", "Top-k vs. o-sharing, Q4 (Excel)", (*Runner).Figure12a},
		{"Fig12b", "Top-k vs. o-sharing, Q7 (Noris)", (*Runner).Figure12b},
		{"Fig12c", "Top-k vs. o-sharing, Q10 (Paragon)", (*Runner).Figure12c},
	}
}

// ExperimentByID returns the experiment with the given ID.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", id)
}

// evaluate runs one query with one method and returns its result.
func (r *Runner) evaluate(queryID int, method core.Method, h int, sizeMB float64) (*core.Result, error) {
	target, err := datagen.QueryTarget(queryID)
	if err != nil {
		return nil, err
	}
	ds, maps, err := r.dataset(target, sizeMB, h)
	if err != nil {
		return nil, err
	}
	q, err := datagen.WorkloadQuery(queryID)
	if err != nil {
		return nil, err
	}
	return core.NewEvaluator(ds.DB, maps).Evaluate(q, r.options(method))
}

// evaluateTime returns the mean total evaluation time of a query/method pair.
func (r *Runner) evaluateTime(queryID int, method core.Method, h int, sizeMB float64) (time.Duration, error) {
	return r.timed(func() (time.Duration, error) {
		res, err := r.evaluate(queryID, method, h, sizeMB)
		if err != nil {
			return 0, err
		}
		return res.TotalTime, nil
	})
}

// Figure9a reproduces Figure 9(a): the average pairwise o-ratio of the
// possible mappings between TPC-H and Excel as the number of mappings grows.
// The paper reports 73%-79%.
func (r *Runner) Figure9a() (*Table, error) {
	t := &Table{ID: "Fig9a", Title: "o-ratio vs. number of mappings (TPC-H / Excel)",
		Columns: []string{"#mappings", "o-ratio"}}
	ds, _, err := r.dataset(datagen.TargetExcel, r.cfg.SizeMB, r.cfg.Mappings)
	if err != nil {
		return nil, err
	}
	for _, h := range r.cfg.MappingSweep {
		maps := ds.MappingsPrefix(h)
		t.AddRow(fmt.Sprintf("%d", len(maps)), fmt.Sprintf("%.3f", maps.ORatio()))
	}
	// The per-schema o-ratios quoted in the text (79%, 68%, 72%).
	for _, tgt := range datagen.AllTargets() {
		dsT, _, err := r.dataset(tgt, r.cfg.SizeMB, r.cfg.Mappings)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(tgt)+" (h="+fmt.Sprintf("%d", r.cfg.Mappings)+")",
			fmt.Sprintf("%.3f", dsT.MappingsPrefix(r.cfg.Mappings).ORatio()))
	}
	return t, nil
}

// Figure10a reproduces Figure 10(a): for every workload query, the time basic
// spends in query evaluation (rewrite + execution) versus answer aggregation.
func (r *Runner) Figure10a() (*Table, error) {
	t := &Table{ID: "Fig10a", Title: "basic: evaluation vs. aggregation time (s)",
		Columns: []string{"query", "evaluation(s)", "aggregation(s)", "evaluation-share"}}
	for id := 1; id <= datagen.NumWorkloadQueries; id++ {
		res, err := r.evaluate(id, core.MethodBasic, r.cfg.Mappings, r.cfg.SizeMB)
		if err != nil {
			return nil, err
		}
		eval := res.RewriteTime + res.ExecTime
		total := eval + res.AggregateTime
		share := 0.0
		if total > 0 {
			share = eval.Seconds() / total.Seconds()
		}
		t.AddRow(fmt.Sprintf("Q%d", id), seconds(eval), seconds(res.AggregateTime), fmt.Sprintf("%.2f", share))
	}
	return t, nil
}

// Figure10b reproduces Figure 10(b): basic, e-basic and e-MQO on Q4 as the
// database size grows.
func (r *Runner) Figure10b() (*Table, error) {
	t := &Table{ID: "Fig10b", Title: "simple solutions vs. database size, Q4 (s)",
		Columns: []string{"sizeMB", "basic", "e-basic", "e-MQO"}}
	for _, size := range r.cfg.SizeSweep {
		row := []string{fmt.Sprintf("%.0f", size)}
		for _, m := range []core.Method{core.MethodBasic, core.MethodEBasic, core.MethodEMQO} {
			d, err := r.evaluateTime(4, m, r.cfg.Mappings, size)
			if err != nil {
				return nil, err
			}
			row = append(row, seconds(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure10c reproduces Figure 10(c): basic, e-basic and e-MQO on Q4 as the
// number of mappings grows.
func (r *Runner) Figure10c() (*Table, error) {
	t := &Table{ID: "Fig10c", Title: "simple solutions vs. number of mappings, Q4 (s)",
		Columns: []string{"#mappings", "basic", "e-basic", "e-MQO"}}
	for _, h := range r.cfg.MappingSweep {
		row := []string{fmt.Sprintf("%d", h)}
		for _, m := range []core.Method{core.MethodBasic, core.MethodEBasic, core.MethodEMQO} {
			d, err := r.evaluateTime(4, m, h, r.cfg.SizeMB)
			if err != nil {
				return nil, err
			}
			row = append(row, seconds(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// sharingMethods are the methods compared throughout Figure 11.
var sharingMethods = []core.Method{core.MethodEBasic, core.MethodQSharing, core.MethodOSharing}

// Figure11a reproduces Figure 11(a): e-basic, q-sharing and o-sharing on every
// workload query.
func (r *Runner) Figure11a() (*Table, error) {
	t := &Table{ID: "Fig11a", Title: "e-basic vs. q-sharing vs. o-sharing, Q1-Q10 (s)",
		Columns: []string{"query", "e-basic", "q-sharing", "o-sharing"}}
	for id := 1; id <= datagen.NumWorkloadQueries; id++ {
		row := []string{fmt.Sprintf("Q%d", id)}
		for _, m := range sharingMethods {
			d, err := r.evaluateTime(id, m, r.cfg.Mappings, r.cfg.SizeMB)
			if err != nil {
				return nil, err
			}
			row = append(row, seconds(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure11b reproduces Figure 11(b): the three sharing methods on Q4 as the
// database size grows.
func (r *Runner) Figure11b() (*Table, error) {
	t := &Table{ID: "Fig11b", Title: "sharing methods vs. database size, Q4 (s)",
		Columns: []string{"sizeMB", "e-basic", "q-sharing", "o-sharing"}}
	for _, size := range r.cfg.SizeSweep {
		row := []string{fmt.Sprintf("%.0f", size)}
		for _, m := range sharingMethods {
			d, err := r.evaluateTime(4, m, r.cfg.Mappings, size)
			if err != nil {
				return nil, err
			}
			row = append(row, seconds(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure11c reproduces Figure 11(c): the three sharing methods on Q4 as the
// number of mappings grows.
func (r *Runner) Figure11c() (*Table, error) {
	t := &Table{ID: "Fig11c", Title: "sharing methods vs. number of mappings, Q4 (s)",
		Columns: []string{"#mappings", "e-basic", "q-sharing", "o-sharing"}}
	for _, h := range r.cfg.MappingSweep {
		row := []string{fmt.Sprintf("%d", h)}
		for _, m := range sharingMethods {
			d, err := r.evaluateTime(4, m, h, r.cfg.SizeMB)
			if err != nil {
				return nil, err
			}
			row = append(row, seconds(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// runCustomQuery measures a non-Table-III query (the parametric families of
// Figures 11(d) and 11(e)) with the given method on the Excel dataset.
func (r *Runner) runCustomQuery(build func() (*query.Query, error), method core.Method) (time.Duration, error) {
	ds, maps, err := r.dataset(datagen.TargetExcel, r.cfg.SizeMB, r.cfg.Mappings)
	if err != nil {
		return 0, err
	}
	return r.timed(func() (time.Duration, error) {
		q, err := build()
		if err != nil {
			return 0, err
		}
		res, err := core.NewEvaluator(ds.DB, maps).Evaluate(q, r.options(method))
		if err != nil {
			return 0, err
		}
		return res.TotalTime, nil
	})
}

// Figure11d reproduces Figure 11(d): 1-5 selection operators on the Excel PO
// relation for the three sharing methods.
func (r *Runner) Figure11d() (*Table, error) {
	t := &Table{ID: "Fig11d", Title: "query time vs. number of selection operators (s)",
		Columns: []string{"#selections", "e-basic", "q-sharing", "o-sharing"}}
	for n := 1; n <= 5; n++ {
		n := n
		row := []string{fmt.Sprintf("%d", n)}
		for _, m := range sharingMethods {
			d, err := r.runCustomQuery(func() (*query.Query, error) {
				return datagen.SelectionChainQuery(n)
			}, m)
			if err != nil {
				return nil, err
			}
			row = append(row, seconds(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure11e reproduces Figure 11(e): 1-3 Cartesian product operators (PO
// self-joins) for the three sharing methods.
func (r *Runner) Figure11e() (*Table, error) {
	t := &Table{ID: "Fig11e", Title: "query time vs. number of Cartesian products (s)",
		Columns: []string{"#products", "e-basic", "q-sharing", "o-sharing"}}
	for p := 1; p <= 3; p++ {
		p := p
		row := []string{fmt.Sprintf("%d", p)}
		for _, m := range sharingMethods {
			d, err := r.runCustomQuery(func() (*query.Query, error) {
				return datagen.SelfJoinQuery(p)
			}, m)
			if err != nil {
				return nil, err
			}
			row = append(row, seconds(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// strategies compared by Figure 11(f) and Table IV.
var strategies = []core.Strategy{core.StrategyRandom, core.StrategySNF, core.StrategySEF}

// osharing returns the options for o-sharing under the strategy, Random
// seeded with the runner's seed.
func (r *Runner) osharing(s core.Strategy) core.Options {
	opts := r.options(core.MethodOSharing)
	opts.Strategy, opts.RandomSeed = s, int64(r.cfg.Seed)
	return opts
}

// Figure11f reproduces Figure 11(f): o-sharing under Random, SNF and SEF on
// the Excel queries Q1-Q5.
func (r *Runner) Figure11f() (*Table, error) {
	t := &Table{ID: "Fig11f", Title: "o-sharing operator selection strategies, Q1-Q5 (s)",
		Columns: []string{"query", "Random", "SNF", "SEF"}}
	for id := 1; id <= 5; id++ {
		row := []string{fmt.Sprintf("Q%d", id)}
		for _, s := range strategies {
			target, _ := datagen.QueryTarget(id)
			ds, maps, err := r.dataset(target, r.cfg.SizeMB, r.cfg.Mappings)
			if err != nil {
				return nil, err
			}
			q, err := datagen.WorkloadQuery(id)
			if err != nil {
				return nil, err
			}
			d, err := r.timed(func() (time.Duration, error) {
				res, err := core.NewEvaluator(ds.DB, maps).Evaluate(q, r.osharing(s))
				if err != nil {
					return 0, err
				}
				return res.TotalTime, nil
			})
			if err != nil {
				return nil, err
			}
			row = append(row, seconds(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// TableIV reproduces Table IV: evaluation time and the number of executed
// source operators for o-sharing under each strategy, with e-MQO's optimal
// operator count for reference.
func (r *Runner) TableIV() (*Table, error) {
	t := &Table{ID: "TableIV", Title: "operator selection strategies on Q4",
		Columns: []string{"strategy", "time(s)", "#source operators"}}
	ds, maps, err := r.dataset(datagen.TargetExcel, r.cfg.SizeMB, r.cfg.Mappings)
	if err != nil {
		return nil, err
	}
	q, err := datagen.WorkloadQuery(4)
	if err != nil {
		return nil, err
	}
	operatorCount := func(res *core.Result) int {
		total := res.Stats.TotalOperators()
		return total - res.Stats.Count(engine.OpKindScan)
	}
	for _, s := range strategies {
		res, err := core.NewEvaluator(ds.DB, maps).Evaluate(q, r.osharing(s))
		if err != nil {
			return nil, err
		}
		t.AddRow(s.String(), seconds(res.TotalTime), fmt.Sprintf("%d", operatorCount(res)))
	}
	emqo, err := core.NewEvaluator(ds.DB, maps).Evaluate(q, r.options(core.MethodEMQO))
	if err != nil {
		return nil, err
	}
	t.AddRow("e-MQO", seconds(emqo.TotalTime), fmt.Sprintf("%d", operatorCount(emqo)))
	return t, nil
}

// figure12 reproduces one Figure 12 panel: top-k versus full o-sharing for a
// given query as k grows.  Each method first runs once untimed, so neither
// column carries the dataset's first evaluations; then each row times its
// top-k and o-sharing evaluations alternately, cfg.Runs of each, and reports
// their means.
func (r *Runner) figure12(id string, queryID int) (*Table, error) {
	t := &Table{ID: id, Title: fmt.Sprintf("top-k vs. o-sharing, Q%d (s)", queryID),
		Columns: []string{"k", "top-k", "o-sharing"}}
	target, err := datagen.QueryTarget(queryID)
	if err != nil {
		return nil, err
	}
	ds, maps, err := r.dataset(target, r.cfg.SizeMB, r.cfg.Mappings)
	if err != nil {
		return nil, err
	}
	q, err := datagen.WorkloadQuery(queryID)
	if err != nil {
		return nil, err
	}
	// evaluate runs o-sharing cold, for the top k answers when k > 0.
	evaluate := func(k int) (time.Duration, error) {
		opts := r.options(core.MethodOSharing)
		opts.TopK = k
		res, err := core.NewEvaluator(ds.DB, maps).Evaluate(q, opts)
		if err != nil {
			return 0, err
		}
		return res.TotalTime, nil
	}
	warm := []int{0}
	if len(r.cfg.KSweep) > 0 {
		warm = append(warm, r.cfg.KSweep[0])
	}
	for _, k := range warm {
		if _, err := evaluate(k); err != nil {
			return nil, err
		}
	}
	for _, k := range r.cfg.KSweep {
		var top, full time.Duration
		for i := 0; i < r.cfg.Runs; i++ {
			d, err := evaluate(k)
			if err != nil {
				return nil, err
			}
			top += d
			if d, err = evaluate(0); err != nil {
				return nil, err
			}
			full += d
		}
		runs := time.Duration(r.cfg.Runs)
		t.AddRow(fmt.Sprintf("%d", k), seconds(top/runs), seconds(full/runs))
	}
	return t, nil
}

// Figure12a reproduces Figure 12(a): Q4 on Excel.
func (r *Runner) Figure12a() (*Table, error) { return r.figure12("Fig12a", 4) }

// Figure12b reproduces Figure 12(b): Q7 on Noris.
func (r *Runner) Figure12b() (*Table, error) { return r.figure12("Fig12b", 7) }

// Figure12c reproduces Figure 12(c): Q10 on Paragon.
func (r *Runner) Figure12c() (*Table, error) { return r.figure12("Fig12c", 10) }
