// Package bench is the experiment harness of Section VIII: one runner per
// table and figure of the paper's evaluation, producing the same rows or data
// series the paper reports (query times per workload query, sweeps over
// database size, mapping-set size, query size, operator-selection strategy,
// executed source operators, and top-k performance).
//
// Absolute times differ from the paper — this reproduction runs an in-memory
// Go engine on synthetic data rather than the authors' C++ system on a 100 MB
// disk-resident TPC-H instance — but the comparisons the paper draws (who
// wins, how methods scale, where crossovers happen) are preserved.  By default
// the harness evaluates sequentially, matching the paper's single-threaded
// setting; Config.Parallelism (urm-bench -parallel) measures the concurrent
// evaluation runtime instead.
package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/schema"
)

// Config controls the scale of the experiments.
type Config struct {
	// Mappings is the default mapping-set size h (paper default: 100).
	Mappings int
	// SizeMB is the default nominal source-instance scale (see
	// datagen.SourceOptions.SizeMB): the harness default 40 generates 423
	// rows, and 100, the paper's nominal size, 1,050 — where the paper's
	// 100 MB instance has about 866,000.
	SizeMB float64
	// Seed drives data generation.
	Seed uint64
	// MappingSweep is the list of mapping-set sizes for Figures 9(a), 10(c)
	// and 11(c).
	MappingSweep []int
	// SizeSweep is the list of database sizes (MB) for Figures 10(b) and 11(b).
	SizeSweep []float64
	// KSweep is the list of k values for Figure 12.
	KSweep []int
	// Runs is the number of repetitions averaged per measurement.
	Runs int
	// Parallelism is the evaluation runtime's worker bound.  The harness
	// defaults to 1 (sequential) so that reported timings reproduce the
	// paper's single-threaded comparisons; pass -parallel to urm-bench to
	// measure the concurrent runtime.
	Parallelism int
}

// DefaultConfig returns the configuration used by cmd/urm-bench when no flags
// are given.
func DefaultConfig() Config {
	return Config{
		Mappings:     100,
		SizeMB:       40,
		Seed:         42,
		MappingSweep: []int{100, 200, 300, 400, 500},
		SizeSweep:    []float64{20, 40, 60, 80, 100},
		KSweep:       []int{1, 5, 10, 15, 20},
		Runs:         1,
		Parallelism:  1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Mappings <= 0 {
		c.Mappings = d.Mappings
	}
	if c.SizeMB <= 0 {
		c.SizeMB = d.SizeMB
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if len(c.MappingSweep) == 0 {
		c.MappingSweep = d.MappingSweep
	}
	if len(c.SizeSweep) == 0 {
		c.SizeSweep = d.SizeSweep
	}
	if len(c.KSweep) == 0 {
		c.KSweep = d.KSweep
	}
	if c.Runs <= 0 {
		c.Runs = d.Runs
	}
	if c.Parallelism == 0 {
		c.Parallelism = d.Parallelism
	}
	return c
}

// Table is one reproduced figure or table: a title, column headers and
// formatted rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(values ...string) { t.Rows = append(t.Rows, values) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, v := range row {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, v := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// Runner caches generated datasets and mapping sets across experiments so a
// full reproduction run generates each instance and mapping set once.
type Runner struct {
	cfg Config
	// mapping sets per target, generated once at the largest h needed.
	mappings map[datagen.TargetName]schema.MappingSet
	// datasets per (target, sizeMB).
	datasets map[string]*datagen.Dataset
}

// NewRunner returns a runner for the configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:      cfg.withDefaults(),
		mappings: make(map[datagen.TargetName]schema.MappingSet),
		datasets: make(map[string]*datagen.Dataset),
	}
}

// Config returns the runner's effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// options returns the core evaluation options for the given method under the
// runner's configuration.
func (r *Runner) options(method core.Method) core.Options {
	return core.Options{Method: method, Parallelism: r.cfg.Parallelism}
}

func (r *Runner) maxMappings() int {
	max := r.cfg.Mappings
	for _, h := range r.cfg.MappingSweep {
		if h > max {
			max = h
		}
	}
	return max
}

// dataset returns a dataset for the target at the given size, with exactly h
// mappings (a renormalised prefix of the cached top-maxMappings set).
func (r *Runner) dataset(target datagen.TargetName, sizeMB float64, h int) (*datagen.Dataset, schema.MappingSet, error) {
	key := fmt.Sprintf("%s|%.1f", target, sizeMB)
	ds, ok := r.datasets[key]
	if !ok {
		var err error
		ds, err = datagen.NewDataset(datagen.DatasetOptions{
			Target:      target,
			NumMappings: r.maxMappings(),
			SizeMB:      sizeMB,
			Seed:        r.cfg.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		r.datasets[key] = ds
		if _, ok := r.mappings[target]; !ok {
			r.mappings[target] = ds.Mappings()
		}
	}
	maps := ds.MappingsPrefix(h)
	return ds, maps, nil
}

// seconds formats a duration as seconds with millisecond resolution.
func seconds(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

// timed runs fn cfg.Runs times and returns the mean duration it reports.
func (r *Runner) timed(fn func() (time.Duration, error)) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < r.cfg.Runs; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total / time.Duration(r.cfg.Runs), nil
}
