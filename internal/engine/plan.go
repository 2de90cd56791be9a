package engine

import (
	"context"
	"strings"
)

// Plan is a node of a physical source-query plan tree.  Plans are built by the
// query-reformulation layer and executed by Execute.  Each node can produce a
// canonical Signature; two plans with equal signatures compute the same result
// on every instance, which is what e-basic uses to cluster identical source
// queries and what the MQO substrate uses to find common subexpressions.
type Plan interface {
	// Signature returns the canonical rendering of the plan.
	Signature() string
	// Children returns the child plans (empty for leaves).
	Children() []Plan
}

// ScanPlan reads a base relation from the instance, qualifying its columns
// with the alias ("alias.column").  If Alias is empty the relation name is
// used.
type ScanPlan struct {
	Relation string
	Alias    string
}

// Signature implements Plan.
func (p *ScanPlan) Signature() string { return signature(p) }

// Children implements Plan.
func (p *ScanPlan) Children() []Plan { return nil }

// MaterialPlan wraps an already-materialized relation (an intermediate result
// produced earlier, e.g. by o-sharing).  Its signature incorporates an
// identity label provided by the producer so that distinct intermediates do
// not collide.
type MaterialPlan struct {
	Rel   *Relation
	Label string
}

// Signature implements Plan.
func (p *MaterialPlan) Signature() string { return signature(p) }

// Children implements Plan.
func (p *MaterialPlan) Children() []Plan { return nil }

// SelectPlan filters its child by a predicate.
type SelectPlan struct {
	Pred  Predicate
	Child Plan
}

// Signature implements Plan.
func (p *SelectPlan) Signature() string { return signature(p) }

// Children implements Plan.
func (p *SelectPlan) Children() []Plan { return []Plan{p.Child} }

// ProjectPlan projects its child onto the named columns.
type ProjectPlan struct {
	Columns []string
	Child   Plan
}

// Signature implements Plan.
func (p *ProjectPlan) Signature() string { return signature(p) }

// Children implements Plan.
func (p *ProjectPlan) Children() []Plan { return []Plan{p.Child} }

// ProductPlan is the Cartesian product of its children.
type ProductPlan struct {
	Left, Right Plan
}

// Signature implements Plan.
func (p *ProductPlan) Signature() string { return signature(p) }

// Children implements Plan.
func (p *ProductPlan) Children() []Plan { return []Plan{p.Left, p.Right} }

// JoinPlan is the equi-join of its children on LeftCol = RightCol.
type JoinPlan struct {
	LeftCol, RightCol string
	Left, Right       Plan
}

// Signature implements Plan.
func (p *JoinPlan) Signature() string { return signature(p) }

// Children implements Plan.
func (p *JoinPlan) Children() []Plan { return []Plan{p.Left, p.Right} }

// AggregatePlan computes a single aggregate over its child.
type AggregatePlan struct {
	Func   AggFunc
	Column string
	Child  Plan
}

// Signature implements Plan.
func (p *AggregatePlan) Signature() string { return signature(p) }

// Children implements Plan.
func (p *AggregatePlan) Children() []Plan { return []Plan{p.Child} }

// DistinctPlan removes duplicate rows from its child.
type DistinctPlan struct {
	Child Plan
}

// Signature implements Plan.
func (p *DistinctPlan) Signature() string { return signature(p) }

// Children implements Plan.
func (p *DistinctPlan) Children() []Plan { return []Plan{p.Child} }

// signature renders the plan tree into one builder:
//
//	scan(R) | scan(R as A) | mat(label) | select[pred](child)
//	project[c1,c2](child) | product(left,right) | join[l=r](left,right)
//	agg[FUNC(col)](child) | distinct(child)
func signature(p Plan) string {
	var b strings.Builder
	writeSignature(&b, p)
	return b.String()
}

func writeSignature(b *strings.Builder, p Plan) {
	switch n := p.(type) {
	case *ScanPlan:
		b.WriteString("scan(")
		b.WriteString(n.Relation)
		if n.Alias != "" && n.Alias != n.Relation {
			b.WriteString(" as ")
			b.WriteString(n.Alias)
		}
		b.WriteByte(')')
	case *MaterialPlan:
		b.WriteString("mat(")
		b.WriteString(n.Label)
		b.WriteByte(')')
	case *SelectPlan:
		b.WriteString("select[")
		writePredicate(b, n.Pred)
		b.WriteString("](")
		writeSignature(b, n.Child)
		b.WriteByte(')')
	case *ProjectPlan:
		b.WriteString("project[")
		for i, c := range n.Columns {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c)
		}
		b.WriteString("](")
		writeSignature(b, n.Child)
		b.WriteByte(')')
	case *ProductPlan:
		b.WriteString("product(")
		writeSignature(b, n.Left)
		b.WriteByte(',')
		writeSignature(b, n.Right)
		b.WriteByte(')')
	case *JoinPlan:
		b.WriteString("join[")
		b.WriteString(n.LeftCol)
		b.WriteByte('=')
		b.WriteString(n.RightCol)
		b.WriteString("](")
		writeSignature(b, n.Left)
		b.WriteByte(',')
		writeSignature(b, n.Right)
		b.WriteByte(')')
	case *AggregatePlan:
		b.WriteString("agg[")
		b.WriteString(n.Func.String())
		b.WriteByte('(')
		b.WriteString(n.Column)
		b.WriteString(")](")
		writeSignature(b, n.Child)
		b.WriteByte(')')
	case *DistinctPlan:
		b.WriteString("distinct(")
		writeSignature(b, n.Child)
		b.WriteByte(')')
	default:
		b.WriteString(p.Signature())
	}
}

// CountOperators returns the number of operator nodes in the plan tree,
// excluding leaves (scans and materialized inputs), which matches the paper's
// notion of "source query operators".
func CountOperators(p Plan) int {
	if p == nil {
		return 0
	}
	n := 0
	switch p.(type) {
	case *ScanPlan, *MaterialPlan:
		// leaves are not operators
	default:
		n = 1
	}
	for _, c := range p.Children() {
		n += CountOperators(c)
	}
	return n
}

// Executor evaluates plans against an instance, optionally caching results of
// identical sub-plans (used by the MQO substrate to share common
// subexpressions) and recording statistics.
type Executor struct {
	DB    *Instance
	Stats *Stats
	// Cache shares the results of common subexpressions.  When non-nil, a plan
	// node whose result has more than one consumer (a sharing point) is
	// computed once, kept under its signature and scanned by every consumer;
	// later requests do not count as executed operators.  A PlanCache may be
	// shared by several executors running concurrently — each sharing point is
	// still computed exactly once.  A cache made from a live-column analysis
	// (LiveColumns.NewPlanCache) may only run the plans that analysis covered:
	// its results carry the columns those plans read.
	Cache *PlanCache
	// Indexes is the shared base-relation index subsystem (usually the
	// instance's own, DB.Indexes()).  When non-nil, a run serves
	// constant-equality selections directly above a scan from a per-column
	// hash index, and reuses the same index as a hash join's build table when
	// the build side is a bare or constant-filtered scan.  Answers are
	// bit-identical with or without it, and one Program serves both.  nil
	// disables index use.
	Indexes *IndexCache
	// Batch is the batch pipeline's rows per batch; zero (or any non-positive
	// value) means DefaultBatchSize.  Purely a physical knob — answers and
	// logical operator statistics are identical at every size, which is what
	// the property tests use it for: tiny sizes straddle every batch boundary.
	Batch int
}

// NewExecutor returns an executor over the instance with a fresh Stats.
func NewExecutor(db *Instance) *Executor {
	return &Executor{DB: db, Stats: NewStats()}
}

// EnableCache turns on common-subexpression result caching.
func (e *Executor) EnableCache() { e.Cache = NewPlanCache() }

// EnableIndexes attaches the instance's shared index cache.
func (e *Executor) EnableIndexes() {
	if e.DB != nil {
		e.Indexes = e.DB.Indexes()
	}
}

// Execute evaluates the plan and returns its materialized result.
func (e *Executor) Execute(p Plan) (*Relation, error) {
	return e.ExecuteContext(context.Background(), p)
}

// ExecuteContext evaluates the plan under the context: operators check it
// periodically and the execution stops promptly with the context's error once
// it is cancelled or its deadline passes.
//
// There is one plan driver, in two halves (program.go): Compile lowers the
// plan into a Program for the executor's schema and Cache analysis, and
// Program.Run instantiates its operators over the executor's rows, Stats,
// Indexes and batch size.  ExecuteContext is the two back to back; a caller
// that runs one plan many times keeps the Program and calls Run.  The program
// is the vectorized batch pipeline: scan→select→project chains are fused and
// produce no intermediate Relations; only pipeline breakers (join build side,
// product inner side, distinct, aggregate) buffer rows, and the root
// materializes the result.  An executor with a Cache differs in one place: a
// sharing point is materialized once into the cache and every consumer's
// pipeline scans the stored rows, so fusion never crosses one.  Products and
// joins build only the columns an ancestor reads (live.go); the root's own
// columns are all read, so the result always carries every column the plan
// names.
func (e *Executor) ExecuteContext(ctx context.Context, p Plan) (*Relation, error) {
	return e.execute(ctx, p, false)
}

// ExecuteSet is ExecuteContext for a caller that reads the result as a set:
// it returns the same distinct rows in the same first-seen order, but not
// necessarily every duplicate.  Below the root and down to the first
// aggregate or sharing point, a product side nothing above reads contributes
// its first row only, and a join whose build side contributes nothing, or only
// its key, stops each probe row's walk at its first match (newPairShape).
// Every operator still drains its inputs, so the operators executed are the
// same; the rows they read and produce, and the values they build, fall.
func (e *Executor) ExecuteSet(ctx context.Context, p Plan) (*Relation, error) {
	return e.execute(ctx, p, true)
}

func (e *Executor) execute(ctx context.Context, p Plan, set bool) (*Relation, error) {
	prog, err := Compile(e.DB, p, set, e.Cache)
	if err != nil {
		return nil, err
	}
	return prog.Run(ctx, e)
}
