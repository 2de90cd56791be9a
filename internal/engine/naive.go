package engine

import (
	"context"
	"fmt"
)

// This file retains the engine's original materialize-per-operator
// implementation, verbatim in behaviour: string-keyed hashing via Tuple.Key,
// per-row predicate evaluation with linear column lookups, and one tuple
// allocation per output row.  It is NOT used by any evaluation method.  It
// exists as the reference the streaming pipeline is tested against — the
// equivalence tests in stream_test.go assert identical rows, row order and
// statistics for randomized inputs — and as the "before" side of the
// microbenchmarks in bench_test.go, so the speedup of the hash-based
// streaming engine stays measurable against the implementation it replaced.

// NaiveSelect is the reference Select: per-row Predicate.Eval with a column
// name lookup on every row.
func NaiveSelect(ctx context.Context, rel *Relation, pred Predicate, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	out := NewRelation(rel.Name, rel.Columns)
	for i, row := range rel.Rows {
		if i%checkInterval == checkInterval-1 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		ok, err := pred.Eval(rel, row)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, row)
		}
	}
	stats.record(OpKindSelect, len(rel.Rows), len(out.Rows))
	return out, nil
}

// NaiveProject is the reference Project: one tuple allocation per output row.
func NaiveProject(ctx context.Context, rel *Relation, columns []string, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	idx := make([]int, len(columns))
	outCols := make([]string, len(columns))
	for i, c := range columns {
		j := lookupColumn(rel.Columns, c)
		if j < 0 {
			return nil, fmt.Errorf("project: column %q not found in %v", c, rel.Columns)
		}
		idx[i] = j
		outCols[i] = rel.Columns[j]
	}
	out := NewRelation(rel.Name, outCols)
	out.Rows = make([]Tuple, 0, len(rel.Rows))
	for i, row := range rel.Rows {
		if i%checkInterval == checkInterval-1 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		t := make(Tuple, len(idx))
		for i, j := range idx {
			t[i] = row[j]
		}
		out.Rows = append(out.Rows, t)
	}
	stats.record(OpKindProject, len(rel.Rows), len(out.Rows))
	return out, nil
}

// NaiveProduct is the reference Cartesian product, including its original
// unguarded rows(left)·rows(right) pre-allocation (callers beware: that
// product can overflow — the live kernel checks the multiplication).
func NaiveProduct(ctx context.Context, left, right *Relation, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	cols := make([]string, 0, len(left.Columns)+len(right.Columns))
	cols = append(cols, left.Columns...)
	cols = append(cols, right.Columns...)
	out := NewRelation(left.Name+"x"+right.Name, cols)
	out.Rows = make([]Tuple, 0, len(left.Rows)*len(right.Rows))
	produced := 0
	for _, lr := range left.Rows {
		for _, rr := range right.Rows {
			produced++
			if produced%checkInterval == 0 {
				if err := canceled(ctx); err != nil {
					return nil, err
				}
			}
			t := make(Tuple, 0, len(lr)+len(rr))
			t = append(t, lr...)
			t = append(t, rr...)
			out.Rows = append(out.Rows, t)
		}
	}
	stats.record(OpKindProduct, len(left.Rows)+len(right.Rows), len(out.Rows))
	return out, nil
}

// NaiveHashJoin is the reference equi-join: the hash table is keyed by
// formatted canonical key strings.
func NaiveHashJoin(ctx context.Context, left, right *Relation, leftCol, rightCol string, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	li := lookupColumn(left.Columns, leftCol)
	if li < 0 {
		return nil, fmt.Errorf("join: column %q not found in %v", leftCol, left.Columns)
	}
	ri := lookupColumn(right.Columns, rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("join: column %q not found in %v", rightCol, right.Columns)
	}
	cols := make([]string, 0, len(left.Columns)+len(right.Columns))
	cols = append(cols, left.Columns...)
	cols = append(cols, right.Columns...)
	out := NewRelation(left.Name+"⋈"+right.Name, cols)

	build := make(map[string][]Tuple, len(right.Rows))
	for i, rr := range right.Rows {
		if i%checkInterval == checkInterval-1 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		k := Tuple{rr[ri]}.Key()
		build[k] = append(build[k], rr)
	}
	probed := 0
	for _, lr := range left.Rows {
		k := Tuple{lr[li]}.Key()
		for _, rr := range build[k] {
			probed++
			if probed%checkInterval == 0 {
				if err := canceled(ctx); err != nil {
					return nil, err
				}
			}
			t := make(Tuple, 0, len(lr)+len(rr))
			t = append(t, lr...)
			t = append(t, rr...)
			out.Rows = append(out.Rows, t)
		}
	}
	stats.record(OpKindJoin, len(left.Rows)+len(right.Rows), len(out.Rows))
	return out, nil
}

// NaiveDistinct is the reference duplicate elimination: a set of formatted
// canonical key strings.
func NaiveDistinct(ctx context.Context, rel *Relation, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	out := NewRelation(rel.Name, rel.Columns)
	seen := make(map[string]bool, len(rel.Rows))
	for i, row := range rel.Rows {
		if i%checkInterval == checkInterval-1 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		k := row.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Rows = append(out.Rows, row)
	}
	stats.record(OpKindDistinct, len(rel.Rows), len(out.Rows))
	return out, nil
}

// NaiveAggregate is the reference single-row aggregate.
func NaiveAggregate(ctx context.Context, rel *Relation, fn AggFunc, column string, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	outCol := fn.String()
	if column != "" {
		outCol = fn.String() + "(" + column + ")"
	}
	out := NewRelation(rel.Name, []string{outCol})

	switch fn {
	case AggCount:
		out.Rows = append(out.Rows, Tuple{I(int64(len(rel.Rows)))})
	case AggSum, AggAvg:
		idx := lookupColumn(rel.Columns, column)
		if idx < 0 {
			return nil, fmt.Errorf("aggregate %s: column %q not found in %v", fn, column, rel.Columns)
		}
		sum := 0.0
		n := 0
		for i, row := range rel.Rows {
			if i%checkInterval == checkInterval-1 {
				if err := canceled(ctx); err != nil {
					return nil, err
				}
			}
			f, ok := row[idx].AsFloat()
			if !ok {
				return nil, fmt.Errorf("aggregate %s: non-numeric value %v in column %q", fn, row[idx], column)
			}
			sum += f
			n++
		}
		if fn == AggSum {
			out.Rows = append(out.Rows, Tuple{F(sum)})
		} else {
			if n == 0 {
				out.Rows = append(out.Rows, Tuple{Null()})
			} else {
				out.Rows = append(out.Rows, Tuple{F(sum / float64(n))})
			}
		}
	case AggMin, AggMax:
		idx := lookupColumn(rel.Columns, column)
		if idx < 0 {
			return nil, fmt.Errorf("aggregate %s: column %q not found in %v", fn, column, rel.Columns)
		}
		if len(rel.Rows) == 0 {
			out.Rows = append(out.Rows, Tuple{Null()})
			break
		}
		best := rel.Rows[0][idx]
		for _, row := range rel.Rows[1:] {
			cmp := row[idx].Compare(best)
			if (fn == AggMin && cmp < 0) || (fn == AggMax && cmp > 0) {
				best = row[idx]
			}
		}
		out.Rows = append(out.Rows, Tuple{best})
	default:
		return nil, fmt.Errorf("aggregate: unsupported function %v", fn)
	}
	stats.record(OpKindAggregate, len(rel.Rows), 1)
	return out, nil
}

// NaiveExecute evaluates the plan with the reference operators, materializing
// every node's result — the executor's behaviour before the streaming
// pipeline.  Equivalence tests run it next to Executor.ExecuteContext.
func NaiveExecute(ctx context.Context, db *Instance, p Plan, stats *Stats) (*Relation, error) {
	if p == nil {
		return nil, fmt.Errorf("execute: nil plan")
	}
	switch n := p.(type) {
	case *ScanPlan:
		base := db.Relation(n.Relation)
		if base == nil {
			return nil, fmt.Errorf("scan: unknown relation %q", n.Relation)
		}
		alias := n.Alias
		if alias == "" {
			alias = n.Relation
		}
		stats.record(OpKindScan, 0, len(base.Rows))
		return base.QualifyColumns(alias), nil
	case *MaterialPlan:
		if n.Rel == nil {
			return nil, fmt.Errorf("materialized plan %q has nil relation", n.Label)
		}
		return n.Rel, nil
	case *SelectPlan:
		child, err := NaiveExecute(ctx, db, n.Child, stats)
		if err != nil {
			return nil, err
		}
		return NaiveSelect(ctx, child, n.Pred, stats)
	case *ProjectPlan:
		child, err := NaiveExecute(ctx, db, n.Child, stats)
		if err != nil {
			return nil, err
		}
		return NaiveProject(ctx, child, n.Columns, stats)
	case *ProductPlan:
		left, err := NaiveExecute(ctx, db, n.Left, stats)
		if err != nil {
			return nil, err
		}
		right, err := NaiveExecute(ctx, db, n.Right, stats)
		if err != nil {
			return nil, err
		}
		return NaiveProduct(ctx, left, right, stats)
	case *JoinPlan:
		left, err := NaiveExecute(ctx, db, n.Left, stats)
		if err != nil {
			return nil, err
		}
		right, err := NaiveExecute(ctx, db, n.Right, stats)
		if err != nil {
			return nil, err
		}
		return NaiveHashJoin(ctx, left, right, n.LeftCol, n.RightCol, stats)
	case *AggregatePlan:
		child, err := NaiveExecute(ctx, db, n.Child, stats)
		if err != nil {
			return nil, err
		}
		return NaiveAggregate(ctx, child, n.Func, n.Column, stats)
	case *DistinctPlan:
		child, err := NaiveExecute(ctx, db, n.Child, stats)
		if err != nil {
			return nil, err
		}
		return NaiveDistinct(ctx, child, stats)
	default:
		return nil, fmt.Errorf("execute: unsupported plan node %T", p)
	}
}
