package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
)

// This file is the batch compiler.  Lowering a plan into the batch pipeline
// depends on the plan and the schema, never on the rows, so it is split in
// two.  The plan-time half, Compile, resolves everything a plan node needs
// once: qualified scan columns, compiled predicates, the index-probe choice
// and its residual levels, join key positions, the pair layouts of products
// and joins, aggregate bindings, and each sharing point as a reference by
// signature whose layout is known.  The result is an immutable Program.  The
// run-time half, Program.Run, only instantiates operators: it resolves base
// rows by name on the executor's instance and gives every operator its fresh
// per-run state (row counters, arenas, hash sets, the shared-result cache).
// ExecuteContext and ExecuteSet are Compile followed by Run; a prepared
// query keeps its programs and runs them on every execution.

// Program is a plan compiled for one schema and one sharing analysis.  It is
// immutable and safe for concurrent use: runs on any number of goroutines and
// instances share it.  It is not tied to an instance: every run reads the
// rows its executor's instance holds under the relation names the plan scans,
// which must carry the columns they carried at compile time.  Nor is it tied
// to the index choice: a run with an index cache serves constant selections
// and join build sides over base relations from it, a run without one scans.
type Program struct {
	out   output
	share bool         // compiled for executors with a Cache
	live  *LiveColumns // the analysis that Cache is made from; nil shares every node
}

// Compiler lowers plans into Programs for one instance's schema and one
// sharing analysis.  The programs one Compiler makes share the compiled form
// of every sharing point they have in common, so a plan set compiled through
// one Compiler — e-MQO's group plans — compiles each common subexpression
// once.  A Compiler is not safe for concurrent use; its programs are.
type Compiler struct {
	db       *Instance
	cache    *PlanCache
	points   map[string]*point
	scanCols map[[2]string][]string // by relation and alias
}

// NewCompiler returns a compiler for plans over db's relations that run on
// executors whose Cache is made like cache: nil for none; a cache of an
// analysis (LiveColumns.NewPlanCache) for that analysis's sharing points; a
// NewPlanCache for every node.  Only the cache's analysis is read, never its
// results.
func NewCompiler(db *Instance, cache *PlanCache) *Compiler {
	return &Compiler{db: db, cache: cache, points: make(map[string]*point), scanCols: make(map[[2]string][]string)}
}

// Compile is NewCompiler(db, cache).Compile(p, set).
func Compile(db *Instance, p Plan, set bool, cache *PlanCache) (*Program, error) {
	return NewCompiler(db, cache).Compile(p, set)
}

// Compile lowers the plan into a program.  set says the caller reads the
// result as a set (ExecuteSet) rather than as a bag (ExecuteContext).  Every
// binding error — an unknown relation or column, an unsupported node or
// aggregate — is reported here, in the order the operators read their inputs.
func (c *Compiler) Compile(p Plan, set bool) (*Program, error) {
	if p == nil {
		return nil, fmt.Errorf("execute: nil plan")
	}
	need := needAll
	if set {
		need = colNeed{all: true, set: true}
	}
	prog := &Program{share: c.cache != nil}
	if c.cache != nil {
		prog.live = c.cache.live
	}
	pt, err := c.sharingPoint(p)
	switch {
	case err != nil:
		return nil, err
	case pt != nil:
		prog.out = output{name: pt.out.name, lay: pt.out.lay, make: pt.get}
	default:
		if prog.out, err = c.materialize(p, need); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// Run executes the program on the executor: the rows of ex.DB, its Stats,
// its Indexes and its batch size, and — the program must have been compiled
// for a cache of the same analysis — its Cache.  It honours the context as
// ExecuteContext does.
func (p *Program) Run(ctx context.Context, ex *Executor) (*Relation, error) {
	if (ex.Cache != nil) != p.share || ex.Cache != nil && ex.Cache.live != p.live {
		return nil, errors.New("engine: program run with a cache of another sharing analysis than it was compiled for")
	}
	size := ex.Batch
	if size <= 0 {
		size = DefaultBatchSize
	}
	res, err := p.out.make(&run{ctx: ctx, ex: ex, stats: ex.Stats, size: size})
	if err != nil {
		return nil, err
	}
	return res.rel, nil
}

// run is one execution of a program: what operators are instantiated with.
type run struct {
	ctx   context.Context
	ex    *Executor
	stats *Stats
	size  int
}

// base resolves a scanned relation on the run's instance: the one under the
// name, which must have the columns the program was compiled against.
func (r *run) base(name string, cols []string) (*Relation, error) {
	rel := r.ex.DB.Relation(name)
	if rel == nil {
		return nil, fmt.Errorf("scan: unknown relation %q", name)
	}
	if !slices.Equal(rel.Columns, cols) {
		return nil, fmt.Errorf("scan: relation %q has columns %v, the program was compiled for %v", name, rel.Columns, cols)
	}
	return rel, nil
}

// node is one compiled pipeline node: the relation name and column layout of
// its output, fixed at compile time, and open, which instantiates its
// operator over its children's for one run.
type node struct {
	name string
	lay  colLayout
	open func(r *run) (BatchSource, error)
}

// output is a compiled materialization — a plan root or a sharing point: the
// name and layout of the relation it makes, and make, which makes it on one
// run.
type output struct {
	name string
	lay  colLayout
	make func(r *run) (*planResult, error)
}

// point is a compiled sharing point: its signature, which keys its one result
// in the run's cache, and how that result is materialized.
type point struct {
	sig string
	out output
}

// get returns the point's result from the run's cache, materializing it on
// the first request with the requesting run's context and statistics.
func (pt *point) get(r *run) (*planResult, error) {
	return r.ex.Cache.getOrCompute(pt.sig, func() (*planResult, error) { return pt.out.make(r) })
}

// sharingPoint returns the compiled sharing point p is, or nil when p is not
// one (or the compiler has no cache).  A shared scan is the base rows under
// qualified names, with no copy.
func (c *Compiler) sharingPoint(p Plan) (*point, error) {
	if c.cache == nil {
		return nil, nil
	}
	sig, need, ok := c.cache.sharingPoint(p)
	if !ok {
		return nil, nil
	}
	if pt := c.points[sig]; pt != nil {
		return pt, nil
	}
	pt := &point{sig: sig}
	if n, isScan := p.(*ScanPlan); isScan {
		base, alias, err := c.scanBase(n)
		if err != nil {
			return nil, err
		}
		rel, baseCols, lay := n.Relation, base.Columns, colLayout{cols: c.scanColumns(base, alias)}
		pt.out = output{name: alias, lay: lay, make: func(r *run) (*planResult, error) {
			base, err := r.base(rel, baseCols)
			if err != nil {
				return nil, err
			}
			r.stats.record(OpKindScan, 0, len(base.Rows))
			return &planResult{rel: &Relation{Name: alias, Columns: lay.cols, Rows: base.Rows}, lay: lay}, nil
		}}
	} else {
		out, err := c.materialize(p, need)
		if err != nil {
			return nil, err
		}
		pt.out = out
	}
	c.points[sig] = pt
	return pt, nil
}

// materialize compiles the node itself (shared or not, it is built here) as
// the root of a batch pipeline drained into a relation.
func (c *Compiler) materialize(p Plan, need colNeed) (output, error) {
	switch n := p.(type) {
	case *MaterialPlan:
		// Identity at the root: hand back the producer's relation unchanged.
		if n.Rel == nil {
			return output{}, fmt.Errorf("materialized plan %q has nil relation", n.Label)
		}
		res := fullResult(n.Rel)
		return output{name: n.Rel.Name, lay: res.lay, make: func(*run) (*planResult, error) { return res, nil }}, nil
	case *ProjectPlan:
		return c.projectRoot(n, need)
	}
	nd, err := c.compileNode(p, need)
	if err != nil {
		return output{}, err
	}
	cols := nd.lay.built()
	return output{name: nd.name, lay: nd.lay, make: func(r *run) (*planResult, error) {
		src, err := nd.open(r)
		if err != nil {
			return nil, err
		}
		out := &Relation{Name: nd.name, Columns: cols}
		if err := appendBatches(src, &out.Rows); err != nil {
			return nil, err
		}
		return &planResult{rel: out, lay: nd.lay}, nil
	}}, nil
}

// projectRoot compiles a root projection — the shape every reformulated
// query ends in — fused: the child pipeline is drained to row headers and the
// column gather runs once at the exact output size, instead of carving
// per-batch tuples that the root would copy again.  Column resolution, error
// messages and recorded statistics are the batchProject operator's.
func (c *Compiler) projectRoot(n *ProjectPlan, need colNeed) (output, error) {
	need, _ = childNeeds(n, need)
	child, err := c.compile(n.Child, need)
	if err != nil {
		return output{}, err
	}
	idx, cols, err := resolveProjection(child.lay, n.Columns)
	if err != nil {
		return output{}, err
	}
	lay := colLayout{cols: cols}
	return output{name: child.name, lay: lay, make: func(r *run) (*planResult, error) {
		src, err := child.open(r)
		if err != nil {
			return nil, err
		}
		var rows []Tuple
		if err := drainBatches(src, &rows); err != nil {
			return nil, err
		}
		// The drained headers are private to this run, so they are the
		// destination too: projectRows rewrites each header in place — into
		// its capacity-clamped column window when the columns are contiguous,
		// after gathering its values into one slab otherwise.
		out := &Relation{Name: child.name, Columns: cols, Rows: rows}
		if err := projectRows(r.ctx, rows, idx, &out.Rows); err != nil {
			return nil, err
		}
		r.stats.record(OpKindProject, len(rows), len(out.Rows))
		r.stats.recordValues(projectCopied(idx) * len(out.Rows))
		return &planResult{rel: out, lay: lay}, nil
	}}, nil
}

func fullResult(rel *Relation) *planResult {
	return &planResult{rel: rel, lay: colLayout{cols: rel.Columns}}
}

// scanBase resolves a scan to its base relation and the alias qualifying its
// columns.
func (c *Compiler) scanBase(n *ScanPlan) (*Relation, string, error) {
	base := c.db.Relation(n.Relation)
	if base == nil {
		return nil, "", fmt.Errorf("scan: unknown relation %q", n.Relation)
	}
	if n.Alias == "" {
		return base, n.Relation, nil
	}
	return base, n.Alias, nil
}

// compile lowers a plan node into a pipeline node.  need is the set of the
// node's output columns its consumer reads.  A sharing point is not lowered
// into the consumer's pipeline: its cached result — built from the need the
// analysis unioned over all its consumers — is scanned instead.
func (c *Compiler) compile(p Plan, need colNeed) (node, error) {
	pt, err := c.sharingPoint(p)
	if err != nil {
		return node{}, err
	}
	if pt == nil {
		return c.compileNode(p, need)
	}
	return node{name: pt.out.name, lay: pt.out.lay, open: func(r *run) (BatchSource, error) {
		res, err := pt.get(r)
		if err != nil {
			return nil, err
		}
		return &batchScan{ctx: r.ctx, rows: res.rel.Rows, size: r.size, stats: r.stats}, nil
	}}, nil
}

// compileNode compiles the node's own operator over its compiled children.
// childNeeds threads need down, and the products and joins build only those
// columns.  Column references are resolved once here, against each input's
// full logical column list, so the per-row path does no name lookups and a
// pruned plan binds — and fails to bind — exactly as the unpruned one.
func (c *Compiler) compileNode(p Plan, need colNeed) (node, error) {
	first, second := childNeeds(p, need)
	switch n := p.(type) {
	case *ScanPlan:
		base, alias, err := c.scanBase(n)
		if err != nil {
			return node{}, err
		}
		rel, baseCols := n.Relation, base.Columns
		return node{name: alias, lay: colLayout{cols: c.scanColumns(base, alias)}, open: func(r *run) (BatchSource, error) {
			base, err := r.base(rel, baseCols)
			if err != nil {
				return nil, err
			}
			return &batchScan{ctx: r.ctx, rows: base.Rows, size: r.size, stats: r.stats, record: true}, nil
		}}, nil
	case *MaterialPlan:
		if n.Rel == nil {
			return node{}, fmt.Errorf("materialized plan %q has nil relation", n.Label)
		}
		rows := n.Rel.Rows
		return node{name: n.Rel.Name, lay: colLayout{cols: n.Rel.Columns}, open: func(r *run) (BatchSource, error) {
			return &batchScan{ctx: r.ctx, rows: rows, size: r.size, stats: r.stats}, nil
		}}, nil
	case *SelectPlan:
		if nd, ok, err := c.indexedSelect(n); err != nil || ok {
			return nd, err
		}
		child, err := c.compile(n.Child, first)
		if err != nil {
			return node{}, err
		}
		pred, err := compileVecPredicate(n.Pred, child.lay.resolve, child.lay.cols)
		if err != nil {
			return node{}, err
		}
		return filtered(child, pred), nil
	case *ProjectPlan:
		child, err := c.compile(n.Child, first)
		if err != nil {
			return node{}, err
		}
		idx, cols, err := resolveProjection(child.lay, n.Columns)
		if err != nil {
			return node{}, err
		}
		return over(child, colLayout{cols: cols}, func(r *run, src BatchSource) BatchSource {
			return &batchProject{ctx: r.ctx, src: src, idx: idx, stats: r.stats}
		}), nil
	case *ProductPlan:
		left, err := c.compile(n.Left, first)
		if err != nil {
			return node{}, err
		}
		right, err := c.compile(n.Right, second)
		if err != nil {
			return node{}, err
		}
		shape, lay := pairLayout(left.lay, right.lay, need, -1)
		return node{name: left.name + "x" + right.name, lay: lay, open: func(r *run) (BatchSource, error) {
			ls, err := left.open(r)
			if err != nil {
				return nil, err
			}
			rs, err := right.open(r)
			if err != nil {
				return nil, err
			}
			return &batchProduct{ctx: r.ctx, left: ls, right: rs, shape: shape, size: r.size, stats: r.stats}, nil
		}}, nil
	case *JoinPlan:
		left, err := c.compile(n.Left, first)
		if err != nil {
			return node{}, err
		}
		if nd, ok, err := c.sharedJoin(n, left, need); err != nil || ok {
			return nd, err
		}
		right, err := c.compile(n.Right, second)
		if err != nil {
			return node{}, err
		}
		li, ri, err := resolveJoinKeys(left.lay, right.lay, n.LeftCol, n.RightCol)
		if err != nil {
			return node{}, err
		}
		shape, lay := pairLayout(left.lay, right.lay, need, ri)
		return joinNode(left, right, li, ri, shape, lay), nil
	case *AggregatePlan:
		child, err := c.compile(n.Child, first)
		if err != nil {
			return node{}, err
		}
		acc, err := newAggAccumulator(child.lay, n.Func, n.Column)
		if err != nil {
			return node{}, err
		}
		return over(child, colLayout{cols: []string{aggOutputColumn(acc.fn, acc.column)}}, func(r *run, src BatchSource) BatchSource {
			return &batchAgg{ctx: r.ctx, src: src, acc: acc, stats: r.stats}
		}), nil
	case *DistinctPlan:
		child, err := c.compile(n.Child, first)
		if err != nil {
			return node{}, err
		}
		return over(child, child.lay, func(r *run, src BatchSource) BatchSource {
			return &batchDistinct{ctx: r.ctx, src: src, seen: NewTupleSet(64), stats: r.stats}
		}), nil
	default:
		return node{}, fmt.Errorf("execute: unsupported plan node %T", p)
	}
}

// filtered is child under one filter per predicate, bottom to top.
func filtered(child node, preds ...vecPredicate) node {
	for _, pred := range preds {
		child = over(child, child.lay, func(r *run, src BatchSource) BatchSource {
			return &batchFilter{ctx: r.ctx, src: src, pred: pred, stats: r.stats}
		})
	}
	return child
}

// joinNode is the hash join of left and right, whose build table is built
// from the drained right input on every run.
func joinNode(left, right node, li, ri int, shape pairShape, lay colLayout) node {
	return node{name: left.name + "⋈" + right.name, lay: lay, open: func(r *run) (BatchSource, error) {
		ls, err := left.open(r)
		if err != nil {
			return nil, err
		}
		rs, err := right.open(r)
		if err != nil {
			return nil, err
		}
		return &batchJoin{ctx: r.ctx, left: ls, right: rs, probe: joinProbe{li: li, ri: ri, shape: shape}, stats: r.stats}, nil
	}}
}

// over is the node of a one-input operator: it keeps child's name, lays out
// its output as lay, and opens child's source wrapped by op.
func over(child node, lay colLayout, op func(r *run, src BatchSource) BatchSource) node {
	return node{name: child.name, lay: lay, open: func(r *run) (BatchSource, error) {
		src, err := child.open(r)
		if err != nil {
			return nil, err
		}
		return op(r, src), nil
	}}
}

// scanColumns returns the alias-qualified output columns of a scan of base,
// exactly as QualifyColumns names them, built once per compiler: the plans of
// a group list scan the same few relations under the same aliases.
func (c *Compiler) scanColumns(base *Relation, alias string) []string {
	key := [2]string{base.Name, alias}
	cols, ok := c.scanCols[key]
	if !ok {
		cols = make([]string, len(base.Columns))
		for i, col := range base.Columns {
			cols[i] = alias + "." + unqualified(col)
		}
		c.scanCols[key] = cols
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
			slices.Reverse(preds)
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
func (c *Compiler) sharedBelow(p Plan) bool {
	for c.cache != nil {
		n, ok := p.(*SelectPlan)
		if !ok {
			break
		}
		if _, _, shared := c.cache.sharingPoint(n); shared {
			return true
		}
		p = n.Child
	}
	return false
}

// indexedSelect compiles a stack of constant selections directly above a
// scan into an index probe: the bottom-most constant equality whose column
// resolves becomes the probe, and every other comparison is evaluated as a
// residual over the matched rows.  ok=false hands the plan back to the plain
// compiler (wrong shape, or no equality to probe with).  The node keeps the
// plain pipeline the stack stands for — the scan, a sharing point's or not,
// under one filter per selection — and a run without an index cache opens
// that.  Whether the probe is answerable from the index depends on the
// column's content and is decided when the source starts, which scans and
// filters the base rows itself if not.
func (c *Compiler) indexedSelect(top *SelectPlan) (node, bool, error) {
	scan, stack, ok := constFilterStack(top)
	if !ok || c.sharedBelow(top.Child) {
		return node{}, false, nil
	}
	base, _, err := c.scanBase(scan)
	if err != nil {
		return node{}, false, nil // the plain compiler reports the unknown relation
	}
	scanned, err := c.compile(scan, colNeed{})
	if err != nil {
		return node{}, false, err
	}
	lay := scanned.lay
	probe, ok := pickProbe(stack, lay.resolve)
	if !ok {
		return node{}, false, nil
	}
	// Binding errors for unresolvable columns surface here, in the same
	// bottom-to-top order as the plain compiler's.
	full := make([]vecPredicate, len(stack))
	for i, pred := range stack {
		if full[i], err = compileVecPredicate(pred, lay.resolve, lay.cols); err != nil {
			return node{}, false, err
		}
	}
	spec, err := probe.scan(full, lay.resolve, lay.cols)
	if err != nil {
		return node{}, false, err
	}
	plain := filtered(scanned, full...)
	rel, baseCols := scan.Relation, base.Columns
	return node{name: scanned.name, lay: lay, open: func(r *run) (BatchSource, error) {
		if r.ex.Indexes == nil {
			return plain.open(r)
		}
		base, err := r.base(rel, baseCols)
		if err != nil {
			return nil, err
		}
		return &batchIndexScan{ctx: r.ctx, cache: r.ex.Indexes, base: base, size: r.size, stats: r.stats, spec: spec}, nil
	}}, true, nil
}

// sharedJoin compiles an equi-join whose build (right) side is a bare or
// constant-filtered scan of a base relation into a join over the shared
// per-column index: the build table is the instance's index and the
// build-side constant filters run per probed candidate, as levels, made fresh
// per run because they carry its row counts.  The node keeps the plain join
// — its build table built from the scan under one filter per selection — and
// a run without an index cache opens that.  ok=false hands the join back to
// the plain compiler.
func (c *Compiler) sharedJoin(n *JoinPlan, left node, need colNeed) (node, bool, error) {
	scan, stack, ok := constFilterStack(n.Right)
	if !ok || c.sharedBelow(n.Right) {
		return node{}, false, nil
	}
	base, _, err := c.scanBase(scan)
	if err != nil {
		return node{}, false, nil // the plain compiler reports the unknown relation
	}
	scanned, err := c.compile(scan, colNeed{})
	if err != nil {
		return node{}, false, err
	}
	right := scanned.lay
	preds := make([]vecPredicate, len(stack))
	for i, pred := range stack {
		if preds[i], err = compileVecPredicate(pred, right.resolve, right.cols); err != nil {
			return node{}, false, err
		}
	}
	li, ri, err := resolveJoinKeys(left.lay, right, n.LeftCol, n.RightCol)
	if err != nil {
		return node{}, false, err
	}
	shape, lay := pairLayout(left.lay, right, need, ri)
	plain := joinNode(left, filtered(scanned, preds...), li, ri, shape, lay)
	rel, baseCols := scan.Relation, base.Columns
	return node{name: plain.name, lay: lay, open: func(r *run) (BatchSource, error) {
		if r.ex.Indexes == nil {
			return plain.open(r)
		}
		ls, err := left.open(r)
		if err != nil {
			return nil, err
		}
		base, err := r.base(rel, baseCols)
		if err != nil {
			return nil, err
		}
		s := &batchJoin{ctx: r.ctx, left: ls, cache: r.ex.Indexes, base: base, stats: r.stats, probe: joinProbe{li: li, ri: ri, shape: shape}}
		if len(preds) > 0 {
			s.probe.filter = &buildFilter{preds: preds, levels: make([]levelCounts, len(preds))}
		}
		return s, nil
	}}, true, nil
}
