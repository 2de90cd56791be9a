package engine

import (
	"context"
	"fmt"
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
func (p *ScanPlan) Signature() string {
	if p.Alias != "" && p.Alias != p.Relation {
		return fmt.Sprintf("scan(%s as %s)", p.Relation, p.Alias)
	}
	return fmt.Sprintf("scan(%s)", p.Relation)
}

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
func (p *MaterialPlan) Signature() string { return fmt.Sprintf("mat(%s)", p.Label) }

// Children implements Plan.
func (p *MaterialPlan) Children() []Plan { return nil }

// SelectPlan filters its child by a predicate.
type SelectPlan struct {
	Pred  Predicate
	Child Plan
}

// Signature implements Plan.
func (p *SelectPlan) Signature() string {
	return fmt.Sprintf("select[%s](%s)", p.Pred.String(), p.Child.Signature())
}

// Children implements Plan.
func (p *SelectPlan) Children() []Plan { return []Plan{p.Child} }

// ProjectPlan projects its child onto the named columns.
type ProjectPlan struct {
	Columns []string
	Child   Plan
}

// Signature implements Plan.
func (p *ProjectPlan) Signature() string {
	return fmt.Sprintf("project[%s](%s)", strings.Join(p.Columns, ","), p.Child.Signature())
}

// Children implements Plan.
func (p *ProjectPlan) Children() []Plan { return []Plan{p.Child} }

// ProductPlan is the Cartesian product of its children.
type ProductPlan struct {
	Left, Right Plan
}

// Signature implements Plan.
func (p *ProductPlan) Signature() string {
	return fmt.Sprintf("product(%s,%s)", p.Left.Signature(), p.Right.Signature())
}

// Children implements Plan.
func (p *ProductPlan) Children() []Plan { return []Plan{p.Left, p.Right} }

// JoinPlan is the equi-join of its children on LeftCol = RightCol.
type JoinPlan struct {
	LeftCol, RightCol string
	Left, Right       Plan
}

// Signature implements Plan.
func (p *JoinPlan) Signature() string {
	return fmt.Sprintf("join[%s=%s](%s,%s)", p.LeftCol, p.RightCol, p.Left.Signature(), p.Right.Signature())
}

// Children implements Plan.
func (p *JoinPlan) Children() []Plan { return []Plan{p.Left, p.Right} }

// AggregatePlan computes a single aggregate over its child.
type AggregatePlan struct {
	Func   AggFunc
	Column string
	Child  Plan
}

// Signature implements Plan.
func (p *AggregatePlan) Signature() string {
	return fmt.Sprintf("agg[%s(%s)](%s)", p.Func, p.Column, p.Child.Signature())
}

// Children implements Plan.
func (p *AggregatePlan) Children() []Plan { return []Plan{p.Child} }

// DistinctPlan removes duplicate rows from its child.
type DistinctPlan struct {
	Child Plan
}

// Signature implements Plan.
func (p *DistinctPlan) Signature() string {
	return fmt.Sprintf("distinct(%s)", p.Child.Signature())
}

// Children implements Plan.
func (p *DistinctPlan) Children() []Plan { return []Plan{p.Child} }

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
	// instance's own, DB.Indexes()).  When non-nil, plan compilation serves
	// constant-equality selections directly above a scan from a per-column
	// hash index, and reuses the same index as a hash join's build table when
	// the build side is a bare or constant-filtered scan.  Answers are
	// bit-identical with or without it.  nil disables index use.
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
// There is one plan driver.  The plan is compiled into the vectorized batch
// pipeline: scan→select→project chains are fused and produce no intermediate
// Relations; only pipeline breakers (join build side, product inner side,
// distinct, aggregate) buffer rows, and the root materializes the result.  An
// executor with a Cache differs in one place: a sharing point is materialized
// once into the cache and every consumer's pipeline scans the stored rows, so
// fusion never crosses one.  Products and joins build only the columns an
// ancestor reads (live.go); the root's own columns are all read, so the result
// always carries every column the plan names.
func (e *Executor) ExecuteContext(ctx context.Context, p Plan) (*Relation, error) {
	return e.execute(ctx, p, needAll)
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
	return e.execute(ctx, p, colNeed{all: true, set: true})
}

func (e *Executor) execute(ctx context.Context, p Plan, need colNeed) (*Relation, error) {
	if p == nil {
		return nil, fmt.Errorf("execute: nil plan")
	}
	res, shared, err := e.shared(ctx, p)
	if err == nil && !shared {
		res, err = e.materialize(ctx, p, need)
	}
	if err != nil {
		return nil, err
	}
	return res.rel, nil
}

// shared returns the node's result from the cache when the node is a sharing
// point, materializing it on first request with the columns its consumers
// read; ok=false for every other node and for an executor without a cache.
func (e *Executor) shared(ctx context.Context, p Plan) (res *planResult, ok bool, err error) {
	if e.Cache == nil {
		return nil, false, nil
	}
	sig, need, ok := e.Cache.sharingPoint(p)
	if !ok {
		return nil, false, nil
	}
	res, err = e.Cache.getOrCompute(sig, func() (*planResult, error) {
		if n, isScan := p.(*ScanPlan); isScan {
			// A shared scan is the base rows under qualified names: no copy.
			base, alias, err := e.scanBase(n)
			if err != nil {
				return nil, err
			}
			e.Stats.record(OpKindScan, 0, len(base.Rows))
			return fullResult(base.QualifyColumns(alias)), nil
		}
		return e.materialize(ctx, p, need)
	})
	return res, true, err
}

func fullResult(rel *Relation) *planResult {
	return &planResult{rel: rel, lay: colLayout{cols: rel.Columns}}
}

// materialize runs the node itself (shared or not, it is built here) as the
// root of a batch pipeline and drains it into a relation.
func (e *Executor) materialize(ctx context.Context, p Plan, need colNeed) (*planResult, error) {
	if n, ok := p.(*MaterialPlan); ok {
		// Identity at the root: hand back the producer's relation unchanged.
		if n.Rel == nil {
			return nil, fmt.Errorf("materialized plan %q has nil relation", n.Label)
		}
		return fullResult(n.Rel), nil
	}
	if n, ok := p.(*ProjectPlan); ok {
		// Root projection — the shape every reformulated query ends in —
		// materializes fused: the child pipeline is drained to row headers and
		// the column gather runs once at the exact output size, instead of
		// carving per-batch tuples that the root would copy again.
		rel, err := e.executeBatchProjectRoot(ctx, n, need)
		if err != nil {
			return nil, err
		}
		return fullResult(rel), nil
	}
	src, err := e.compileNode(ctx, p, need)
	if err != nil {
		return nil, err
	}
	rel, err := MaterializeBatches(src)
	if err != nil {
		return nil, err
	}
	return &planResult{rel: rel, lay: src.layout()}, nil
}

// executeBatchProjectRoot compiles the projection's child as a batch pipeline
// and gathers the projected columns straight into the result relation.  Column
// resolution, error messages and recorded statistics are identical to the
// batchProject operator's.
func (e *Executor) executeBatchProjectRoot(ctx context.Context, n *ProjectPlan, need colNeed) (*Relation, error) {
	need, _ = childNeeds(n, need)
	child, err := e.compile(ctx, n.Child, need)
	if err != nil {
		return nil, err
	}
	idx, outCols, err := resolveProjection(child.layout(), n.Columns)
	if err != nil {
		return nil, err
	}
	var rows []Tuple
	if err := drainBatches(child, &rows); err != nil {
		return nil, err
	}
	// The drained headers are private to this call, so they are the
	// destination too: projectRows rewrites each header in place — into its
	// capacity-clamped column window when the columns are contiguous, after
	// gathering its values into one slab otherwise.
	out := NewRelation(child.Name(), outCols)
	out.Rows = rows
	if err := projectRows(ctx, rows, idx, &out.Rows); err != nil {
		return nil, err
	}
	e.Stats.record(OpKindProject, len(rows), len(out.Rows))
	e.Stats.recordValues(projectCopied(idx) * len(out.Rows))
	return out, nil
}

// batchSize resolves the executor's configured batch size: any non-positive
// value is the default.
func (e *Executor) batchSize() int {
	if e.Batch > 0 {
		return e.Batch
	}
	return DefaultBatchSize
}

// scanBase resolves a scan to its base relation and the alias qualifying its
// columns.
func (e *Executor) scanBase(n *ScanPlan) (*Relation, string, error) {
	base := e.DB.Relation(n.Relation)
	if base == nil {
		return nil, "", fmt.Errorf("scan: unknown relation %q", n.Relation)
	}
	if n.Alias == "" {
		return base, n.Relation, nil
	}
	return base, n.Alias, nil
}

// compile lowers a plan node into the vectorized batch pipeline.  need is the
// set of the node's output columns its consumer reads.  A sharing point is not
// lowered into the consumer's pipeline: its cached result — built from the need
// the analysis unioned over all its consumers — is scanned instead.
func (e *Executor) compile(ctx context.Context, p Plan, need colNeed) (BatchSource, error) {
	res, shared, err := e.shared(ctx, p)
	if err != nil {
		return nil, err
	}
	if shared {
		return &batchScan{
			ctx: ctx, name: res.rel.Name, lay: res.lay,
			rows: res.rel.Rows, size: e.batchSize(), stats: e.Stats,
		}, nil
	}
	return e.compileNode(ctx, p, need)
}

// compileNode builds the node's own operator over its compiled children.
// childNeeds threads need down, and the products and joins build only those
// columns.  Column references are resolved once here, against each input's
// full logical column list, so the per-row path does no name lookups and a
// pruned plan binds — and fails to bind — exactly as the unpruned one.
func (e *Executor) compileNode(ctx context.Context, p Plan, need colNeed) (BatchSource, error) {
	first, second := childNeeds(p, need)
	switch n := p.(type) {
	case *ScanPlan:
		base, alias, err := e.scanBase(n)
		if err != nil {
			return nil, err
		}
		return &batchScan{
			ctx: ctx, name: alias, lay: colLayout{cols: qualifiedScanColumns(base, alias)},
			rows: base.Rows, size: e.batchSize(), stats: e.Stats, record: true,
		}, nil
	case *MaterialPlan:
		if n.Rel == nil {
			return nil, fmt.Errorf("materialized plan %q has nil relation", n.Label)
		}
		return &batchScan{
			ctx: ctx, name: n.Rel.Name, lay: colLayout{cols: n.Rel.Columns},
			rows: n.Rel.Rows, size: e.batchSize(), stats: e.Stats,
		}, nil
	case *SelectPlan:
		if e.Indexes != nil {
			src, ok, err := e.compileIndexedSelect(ctx, n)
			if err != nil {
				return nil, err
			}
			if ok {
				return src, nil
			}
		}
		child, err := e.compile(ctx, n.Child, first)
		if err != nil {
			return nil, err
		}
		in := child.layout()
		vp, err := compileVecPredicate(n.Pred, in.resolve, in.cols)
		if err != nil {
			return nil, err
		}
		return &batchFilter{ctx: ctx, src: child, pred: vp, stats: e.Stats}, nil
	case *ProjectPlan:
		child, err := e.compile(ctx, n.Child, first)
		if err != nil {
			return nil, err
		}
		idx, outCols, err := resolveProjection(child.layout(), n.Columns)
		if err != nil {
			return nil, err
		}
		return &batchProject{ctx: ctx, src: child, name: child.Name(), cols: outCols, idx: idx, stats: e.Stats}, nil
	case *ProductPlan:
		left, err := e.compile(ctx, n.Left, first)
		if err != nil {
			return nil, err
		}
		right, err := e.compile(ctx, n.Right, second)
		if err != nil {
			return nil, err
		}
		shape, lay := pairLayout(left.layout(), right.layout(), need, -1)
		return &batchProduct{
			ctx: ctx, left: left, right: right,
			name: left.Name() + "x" + right.Name(), lay: lay, shape: shape,
			size: e.batchSize(), stats: e.Stats,
		}, nil
	case *JoinPlan:
		left, err := e.compile(ctx, n.Left, first)
		if err != nil {
			return nil, err
		}
		if e.Indexes != nil {
			src, ok, err := e.compileSharedJoin(ctx, n, left, need)
			if err != nil {
				return nil, err
			}
			if ok {
				return src, nil
			}
		}
		right, err := e.compile(ctx, n.Right, second)
		if err != nil {
			return nil, err
		}
		li, ri, err := resolveJoinKeys(left.layout(), right.layout(), n.LeftCol, n.RightCol)
		if err != nil {
			return nil, err
		}
		shape, lay := pairLayout(left.layout(), right.layout(), need, ri)
		return &batchJoin{
			ctx: ctx, left: left, right: right, li: li, ri: ri,
			name: left.Name() + "⋈" + right.Name(), lay: lay, shape: shape,
			size: e.batchSize(), stats: e.Stats,
		}, nil
	case *AggregatePlan:
		child, err := e.compile(ctx, n.Child, first)
		if err != nil {
			return nil, err
		}
		return newBatchAgg(ctx, child, n.Func, n.Column, e.Stats)
	case *DistinctPlan:
		child, err := e.compile(ctx, n.Child, first)
		if err != nil {
			return nil, err
		}
		return &batchDistinct{ctx: ctx, src: child, seen: NewTupleSet(64), stats: e.Stats}, nil
	default:
		return nil, fmt.Errorf("execute: unsupported plan node %T", p)
	}
}

// qualifiedScanColumns returns the alias-qualified output columns of a scan,
// exactly as QualifyColumns names them.
func qualifiedScanColumns(base *Relation, alias string) []string {
	cols := make([]string, len(base.Columns))
	for i, c := range base.Columns {
		cols[i] = alias + "." + unqualified(c)
	}
	return cols
}

// constFilterStack unwraps a chain of constant-only selections down to a scan,
// returning the scan and the per-level predicates in bottom-to-top order.
// ok=false for any other shape (a non-constant predicate anywhere in the
// chain, or a non-scan leaf).
func constFilterStack(p Plan) (*ScanPlan, []Predicate, bool) {
	var preds []Predicate // collected top to bottom
	for {
		switch n := p.(type) {
		case *ScanPlan:
			for i, j := 0, len(preds)-1; i < j; i, j = i+1, j-1 {
				preds[i], preds[j] = preds[j], preds[i]
			}
			return n, preds, true
		case *SelectPlan:
			if _, ok := constPreds(n.Pred); !ok {
				return nil, nil, false
			}
			preds = append(preds, n.Pred)
			p = n.Child
		default:
			return nil, nil, false
		}
	}
}

// sharedBelow reports whether a selection of the stack rooted at p is a sharing
// point.  An index-served stack fuses its selections into one operator, and
// fusion never crosses a sharing point: each consumer would run the selection
// again.  The scan under the stack does not count — the index stands in for it
// and nothing reads it.
func (e *Executor) sharedBelow(p Plan) bool {
	for e.Cache != nil {
		n, ok := p.(*SelectPlan)
		if !ok {
			break
		}
		if _, _, shared := e.Cache.sharingPoint(n); shared {
			return true
		}
		p = n.Child
	}
	return false
}

// compileIndexedSelect lowers a stack of constant selections directly above a
// scan into an index probe: the bottom-most constant equality whose column
// resolves becomes the probe, and every other comparison is evaluated as a
// residual over the matched rows.  ok=false hands the plan back to the plain
// compiler (wrong shape, or no equality to probe with).  Whether the probe is
// actually answerable from the index depends on the column's content and is
// decided when the source starts; if not, it runs the plain pipeline itself.
func (e *Executor) compileIndexedSelect(ctx context.Context, top *SelectPlan) (BatchSource, bool, error) {
	scan, stack, ok := constFilterStack(top)
	if !ok || e.sharedBelow(top.Child) {
		return nil, false, nil
	}
	base, alias, err := e.scanBase(scan)
	if err != nil {
		return nil, false, nil // the plain compiler reports the unknown relation
	}
	cols := qualifiedScanColumns(base, alias)
	resolve := func(name string) int { return lookupColumn(cols, name) }

	// Binding errors for unresolvable columns surface below, in the same
	// bottom-to-top order as the plain compiler's.
	probe, ok := pickProbe(stack, resolve)
	if !ok {
		return nil, false, nil
	}
	levels := make([]indexLevel, len(stack))
	for li, pred := range stack {
		full, err := compileVecPredicate(pred, resolve, cols)
		if err != nil {
			return nil, false, err
		}
		levels[li] = indexLevel{full: full, residual: full}
	}
	// The probe answers its equality exactly; what remains of its level is a
	// sub-conjunction of a predicate that just compiled.
	if levels[probe.level].residual, err = probe.residual(resolve, cols); err != nil {
		return nil, false, err
	}
	return &batchIndexScan{
		ctx: ctx, cache: e.Indexes, base: base, alias: alias, cols: cols,
		size: e.batchSize(), stats: e.Stats, probe: probe, levels: levels,
	}, true, nil
}

// compileSharedJoin lowers an equi-join whose build (right) side is a bare or
// constant-filtered scan of a base relation into a join over the shared
// per-column index: the build table is the instance's index and the build-side
// constant filters run per probed candidate, as levels.  The levels carry
// per-execution row counts, so they are constructed fresh per compile.
// ok=false hands the join back to the plain compiler.
func (e *Executor) compileSharedJoin(ctx context.Context, n *JoinPlan, left BatchSource, need colNeed) (BatchSource, bool, error) {
	scan, stack, ok := constFilterStack(n.Right)
	if !ok || e.sharedBelow(n.Right) {
		return nil, false, nil
	}
	base, alias, err := e.scanBase(scan)
	if err != nil {
		return nil, false, nil // the plain compiler reports the unknown relation
	}
	right := colLayout{cols: qualifiedScanColumns(base, alias)}
	levels := make([]selectLevel, len(stack))
	for i, pred := range stack {
		vp, err := compileVecPredicate(pred, right.resolve, right.cols)
		if err != nil {
			return nil, false, err
		}
		levels[i].pred = vp
	}
	li, ri, err := resolveJoinKeys(left.layout(), right, n.LeftCol, n.RightCol)
	if err != nil {
		return nil, false, err
	}
	shape, lay := pairLayout(left.layout(), right, need, ri)
	return &batchJoin{
		ctx: ctx, left: left, li: li, ri: ri, cache: e.Indexes, base: base, levels: levels,
		name: left.Name() + "⋈" + alias, lay: lay, shape: shape, size: e.batchSize(),
		stats: e.Stats,
	}, true, nil
}
