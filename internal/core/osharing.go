package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// uTrace is o-sharing's u-trace (Algorithm 2) planned over the mapping set
// alone.  Which operator runs next in an e-unit, and how the e-unit's mappings
// split for it, depend only on which operators are done, which relation
// occurrences share a fragment and which fragments are materialized — never on
// rows — so a Prepared plans the trace once per (query, strategy, seed) and
// every execution walks it: query rewriting and execution interleave over
// e-units, and the result of one source operator is shared by every mapping
// that translates the target operator identically, even when the mappings
// differ elsewhere.  Planning also binds each node's operator (boundStep), so
// a walk names no column and only moves rows.  Only Case 2 (an empty fragment
// prunes the subtree below it), a leaf's emptiness and which factors a
// flatten drops depend on the data.  A trace is read-only once planned, so any
// number of executions may walk it at once.
type uTrace struct {
	root *traceNode
	// rels are the source relations the steps scan, each with the columns
	// the trace was planned against; a walk resolves them by name on its
	// instance, once.
	rels []traceRel
	// set says every consumer reads a leaf's rows as a set: the final
	// operator does not aggregate.
	set bool
	// emptyRows is Case 2's answer: the final aggregate's value over an empty
	// input (COUNT = 0, SUM = 0), nil when the final operator does not
	// aggregate.
	emptyRows []engine.Tuple
}

// traceRel is a source relation a trace scans, by name and planned columns.
type traceRel struct {
	name string
	cols []string
}

// traceNode is one e-unit of a planned u-trace: the partition of its parent's
// mappings it holds — representative, mappings, mass — reached by running op
// for the representative, bound as step.  Its children run the operator
// chosen next, once per partition of its mappings, in visit order.  A node
// without children is a leaf: every operator has run, or the partition's
// mappings do not cover op (uncovered) and the leaf runs nothing at all.  The
// root holds the top-level representatives and no op.
type traceNode struct {
	// id is the node's pre-order position: the group index its rows are
	// handed to the consumer under.
	id        int
	op        *targetOp
	part      *Partition
	uncovered bool
	step      *boundStep
	children  []*traceNode
}

// boundStep is a trace node's operator bound at plan time for its partition's
// representative: what a walk runs to turn the parent e-unit's factors into
// the node's.  Its ops run in order over a working list of factor rows — the
// parent's factors, in order, then one factor per op, which builds it from
// factors earlier in the list — and out lists the working factors the node
// keeps, in its factor order.  Every column an op reads was resolved to a
// position when it was bound.  scans and products count the operators the
// step records that read no rows: a scan shares the base rows, and a product
// appends a factor.  A step is immutable, so concurrent walks share it.
type boundStep struct {
	ops             []stepOp
	out             []int
	scans, products int
}

// stepOp is one bound operator of a step: it returns the rows of the factor
// it builds from the working factors it was bound to.
type stepOp func(w *walker, work [][]engine.Tuple) ([]engine.Tuple, error)

// planTrace plans the u-trace of q over the mappings under the strategy: the
// query normalized into the operator/fragment form e-units manipulate, the
// mappings partitioned into top-level representatives, each carrying its
// partition's mass (Steps 1–2), and from the initial e-unit over them
// (Step 3) every next-operator choice and partition.  Each child e-unit is
// reached through executeOp, which binds the child's step from the columns of
// db's relations and reads none of their rows.  The plan lists the nodes in
// pre-order, and is linear unless the final operator aggregates.  seed drives
// StrategyRandom; 0 selects a fixed default so runs stay reproducible.
func planTrace(ec *exec.Context, m Method, res *query.Resolution, maps schema.MappingSet, db *engine.Instance, strategy Strategy, seed int64) (*ScatterPlan, error) {
	nq, err := normalizeQuery(res)
	if err != nil {
		return nil, err
	}
	parts := PartitionMappings(res, maps)
	if seed == 0 {
		seed = 1
	}
	planner := &osharer{nq: nq, db: db, ec: ec, strategy: strategy, set: !nq.aggregates(), relIndex: make(map[string]int)}
	root := &traceNode{part: &Partition{Mappings: Represent(parts)}}
	if err := planner.plan(root, newEUnit(nq, root.part.Mappings), seed); err != nil {
		return nil, err
	}
	tr := &uTrace{root: root, rels: planner.rels, set: planner.set}
	if agg, ok := nq.ops[len(nq.ops)-1].final.(*query.Aggregate); ok {
		if tr.emptyRows, err = emptyAggregate(ec.Ctx(), agg); err != nil {
			return nil, err
		}
	}
	sp := &ScatterPlan{Method: m, Groups: planner.groups, Partitions: len(root.part.Mappings), trace: tr}
	sp.setShape(planner.scans, planner.set)
	return sp, nil
}

// emptyAggregate is the aggregate's one row over an empty input.
func emptyAggregate(ctx context.Context, agg *query.Aggregate) ([]engine.Tuple, error) {
	col := ""
	if agg.Func != engine.AggCount {
		col = "v"
	}
	a, err := engine.CompileAggregate([]string{"v"}, agg.Func, col)
	if err != nil {
		return nil, err
	}
	row, err := a.Row(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	return []engine.Tuple{row}, nil
}

// plan expands the trace below n, whose e-unit is u, listing n — its mass
// and its scans — and then its subtree as groups, so a node's id is its
// pre-order position.  It is run_qt's Case 3 with the data-dependent Cases 1
// and 2 left to the walk.  seed is the node's position-derived seed for
// StrategyRandom.
func (os *osharer) plan(n *traceNode, u *eUnit, seed int64) error {
	if err := os.ec.Err(); err != nil {
		return err
	}
	n.id = len(os.groups)
	os.groups = append(os.groups, ScatterGroup{Prob: n.part.Prob})
	os.scans = append(os.scans, u.scans())
	if u.allDone() {
		if len(u.fragments) != 1 {
			return fmt.Errorf("o-sharing: malformed terminal e-unit (%d fragments)", len(u.fragments))
		}
		return nil
	}
	op, parts, err := os.chooseNext(u, seed)
	if err != nil {
		return err
	}
	// Visit large partitions first: harmless for o-sharing, and it tightens
	// the top-k bounds as early as possible.
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].Prob > parts[j].Prob })
	for idx, p := range parts {
		child := &traceNode{op: op, part: p}
		n.children = append(n.children, child)
		next, step, err := os.executeOp(u, op, p)
		if errors.Is(err, query.ErrNotCovered) {
			// None of the partition's mappings can answer the query.
			child.id, child.uncovered = len(os.groups), true
			os.groups = append(os.groups, ScatterGroup{Prob: p.Prob})
			os.scans = append(os.scans, nil)
			continue
		}
		if err != nil {
			return err
		}
		child.step = step
		if err := os.plan(child, next, splitSeed(seed, idx)); err != nil {
			return err
		}
	}
	os.groups[n.id].Below = len(os.groups) - n.id - 1
	return nil
}

// executeInto walks the trace over the instance (Step 4 of Algorithm 2),
// handing every leaf's rows — and a pruned node's, once — to the consumer in
// pre-order on the calling goroutine until the consumer stops it, and adds the
// operator statistics and the operators' execution time to run.  The source
// relations the trace scans are resolved by name on db first: one that is
// missing, or whose columns are not those the trace was planned for, fails
// the walk before it runs anything.  Every consumer reads a leaf's rows as a
// set, so unless the final operator aggregates, the walk's joins and flattens
// skip the pairs that only repeat a row, and a factor no later operator reads
// stands for one row.
//
// The subtrees below the first branching node are independent, so they run on
// the runtime's worker pool, and each branch's rows are handed over in branch
// order: the consumer sees exactly the sequential walk.  Top-k callers pass a
// sequential context: where it stops depends on the visit order.
func (tr *uTrace) executeInto(ec *exec.Context, db *engine.Instance, run *ShardRun, c groupConsumer) error {
	rels := make([]*engine.Relation, len(tr.rels))
	for i, r := range tr.rels {
		rel := db.Relation(r.name)
		if rel == nil {
			return fmt.Errorf("o-sharing: unknown source relation %q", r.name)
		}
		if !slices.Equal(rel.Columns, r.cols) {
			return fmt.Errorf("o-sharing: source relation %q has columns %v, the trace was planned for %v", r.name, rel.Columns, r.cols)
		}
		rels[i] = rel
	}
	var spent atomic.Int64
	w := &walker{tr: tr, ec: ec, rels: rels, stats: run.Stats, indexes: db.Indexes(), spent: &spent}
	_, err := w.walk(tr.root, nil, c)
	run.ExecTime += time.Duration(spent.Load())
	if err != nil {
		return fmt.Errorf("o-sharing: %w", err)
	}
	return nil
}

// splitSeed derives a deterministic child seed for the idx-th branch below a
// u-trace node (SplitMix64 finalizer).  Deriving per-branch seeds from the
// trace position instead of consuming a shared generator is what makes
// StrategyRandom's trace a function of its seed alone.
func splitSeed(seed int64, idx int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// opKind enumerates the target-operator classes handled by o-sharing.
type opKind int

const (
	opSelect opKind = iota
	opJoinSelect
	opProduct
	opFinal
)

func (k opKind) String() string {
	switch k {
	case opSelect:
		return "select"
	case opJoinSelect:
		return "join-select"
	case opProduct:
		return "product"
	case opFinal:
		return "final"
	default:
		return fmt.Sprintf("opKind(%d)", int(k))
	}
}

// targetOp is one operator of the normalized target query.
type targetOp struct {
	id   int
	kind opKind

	sel  *query.Select
	jsel *query.JoinSelect

	// Product operands: the alias sets under the left and right subtrees.
	leftAliases  []string
	rightAliases []string

	// final is the root projection/aggregation node, or nil when the query has
	// neither (the final op then only merges and materializes fragments).
	final query.Node

	// refs are the attribute references the operator reads, alias-qualified
	// and resolved to target attributes.
	refs []query.Resolved
}

// normalizedQuery is the target query decomposed into relation occurrences,
// selection operators, Cartesian-product operators and a final operator, which
// is the form the o-sharing e-units manipulate.  Queries whose internal nodes
// include projections or aggregates below other operators are not supported by
// o-sharing (they are by the other methods).
type normalizedQuery struct {
	res     *query.Resolution
	ref     *query.Reformulator
	aliases []string
	ops     []*targetOp
}

func normalizeQuery(res *query.Resolution) (*normalizedQuery, error) {
	nq := &normalizedQuery{res: res, ref: query.NewReformulator(res)}

	root := res.Query.Root
	body := root
	var final query.Node
	switch root.(type) {
	case *query.Project, *query.Aggregate:
		final = root
		body = root.Children()[0]
	}

	var collect func(n query.Node) error
	collect = func(n query.Node) error {
		switch op := n.(type) {
		case *query.Scan:
			nq.aliases = append(nq.aliases, op.AliasName())
			return nil
		case *query.Select:
			nq.ops = append(nq.ops, &targetOp{kind: opSelect, sel: op})
			return collect(op.Child)
		case *query.JoinSelect:
			nq.ops = append(nq.ops, &targetOp{kind: opJoinSelect, jsel: op})
			return collect(op.Child)
		case *query.Product:
			nq.ops = append(nq.ops, &targetOp{
				kind:         opProduct,
				leftAliases:  subtreeAliases(op.Left),
				rightAliases: subtreeAliases(op.Right),
			})
			if err := collect(op.Left); err != nil {
				return err
			}
			return collect(op.Right)
		case *query.Project, *query.Aggregate:
			return fmt.Errorf("o-sharing does not support %T below other operators", n)
		default:
			return fmt.Errorf("o-sharing: unsupported node type %T", n)
		}
	}
	if err := collect(body); err != nil {
		return nil, err
	}
	// The final operator is always present; it merges remaining fragments and
	// applies the root projection/aggregation if any.
	nq.ops = append(nq.ops, &targetOp{kind: opFinal, final: final})
	for i, op := range nq.ops {
		op.id = i
		var node query.Node
		switch op.kind {
		case opSelect:
			node = op.sel
		case opJoinSelect:
			node = op.jsel
		case opFinal:
			node = op.final
		}
		if node == nil {
			continue
		}
		for _, ref := range query.NodeRefs(node) {
			r, err := res.Ref(ref)
			if err != nil {
				return nil, err
			}
			op.refs = append(op.refs, r)
		}
	}
	return nq, nil
}

// aggregates reports whether the query's final operator is an aggregate.
func (nq *normalizedQuery) aggregates() bool {
	_, ok := nq.ops[len(nq.ops)-1].final.(*query.Aggregate)
	return ok
}

func subtreeAliases(n query.Node) []string {
	var out []string
	var walk func(query.Node)
	walk = func(n query.Node) {
		if s, ok := n.(*query.Scan); ok {
			out = append(out, s.AliasName())
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// factor is one factor of a planned fragment: the engine columns its rows
// carry and, while it is an untouched scan, the trace relation whose base rows
// it shares (-1 once a selection, join or flatten built it).  Only an
// untouched factor can be served from the shared index.
type factor struct {
	cols []string
	rel  int
}

// fragment is a set of relation occurrences of the target query together with
// the factors that materialize them inside an e-unit.  The fragment's relation
// is the Cartesian product of its factors — one per included source relation
// or joined group, each with its own selections applied — and is never built:
// a product appends factors, and only an operator that reads two factors at
// once, or the root, flattens them (FDB's factorized representation, Bakibayev,
// Olteanu & Závodný, VLDB 2012).  A fragment that includes no source relation
// has not been touched yet.
type fragment struct {
	// aliases and included are shared between a fragment and its clones and
	// never written once built: attach replaces included with a copy.
	aliases  map[string]bool
	included map[string]map[string]bool // alias -> source relations scanned in
	factors  []*factor
}

func (f *fragment) clone() *fragment {
	return &fragment{aliases: f.aliases, included: f.included, factors: slices.Clone(f.factors)}
}

// materialized reports whether some source relation has been scanned into
// the fragment.
func (f *fragment) materialized() bool { return len(f.included) > 0 }

// factorOf returns the position of the factor carrying the column, or -1.
func (f *fragment) factorOf(col string) int {
	for i, fc := range f.factors {
		if slices.Contains(fc.cols, col) {
			return i
		}
	}
	return -1
}

// without returns the fragment's factors but the one at i, in order.
func (f *fragment) without(i int) []*factor {
	out := make([]*factor, 0, len(f.factors)-1)
	out = append(out, f.factors[:i]...)
	return append(out, f.factors[i+1:]...)
}

func (f *fragment) hasAlias(a string) bool { return f.aliases[a] }

// eUnit is an execution unit (Section V): the partially executed target query
// (fragments plus the set of operators already executed) and the mapping set
// that shares this state.
type eUnit struct {
	fragments []*fragment
	done      []bool
	maps      schema.MappingSet
}

func newEUnit(nq *normalizedQuery, maps schema.MappingSet) *eUnit {
	u := &eUnit{done: make([]bool, len(nq.ops)), maps: maps}
	for _, alias := range nq.aliases {
		u.fragments = append(u.fragments, &fragment{
			aliases:  map[string]bool{alias: true},
			included: make(map[string]map[string]bool),
		})
	}
	return u
}

func (u *eUnit) clone() *eUnit {
	out := &eUnit{
		fragments: make([]*fragment, len(u.fragments)),
		done:      make([]bool, len(u.done)),
		maps:      u.maps,
	}
	for i, f := range u.fragments {
		out.fragments[i] = f.clone()
	}
	copy(out.done, u.done)
	return out
}

// factors lists the e-unit's factors fragment by fragment: the order of the
// rows a walk carries for it.
func (u *eUnit) factors() []*factor {
	var out []*factor
	for _, f := range u.fragments {
		out = append(out, f.factors...)
	}
	return out
}

// scans counts the e-unit's scans of each source relation: one per relation
// occurrence whose fragment includes the relation.  These are the sets
// executeOp filled, so the fragment rules are written once.
func (u *eUnit) scans() map[string]int {
	counts := make(map[string]int)
	for _, f := range u.fragments {
		for _, rels := range f.included {
			for rel := range rels {
				counts[rel]++
			}
		}
	}
	return counts
}

func (u *eUnit) allDone() bool {
	for _, d := range u.done {
		if !d {
			return false
		}
	}
	return true
}

func (u *eUnit) fragmentOf(alias string) *fragment {
	for _, f := range u.fragments {
		if f.hasAlias(alias) {
			return f
		}
	}
	return nil
}

func (u *eUnit) fragmentCovering(aliases []string) *fragment {
	if len(aliases) == 0 {
		return nil
	}
	f := u.fragmentOf(aliases[0])
	if f == nil {
		return nil
	}
	for _, a := range aliases[1:] {
		if !f.hasAlias(a) {
			return nil
		}
	}
	return f
}

// replaceFragments removes the given fragments from the unit and adds the
// replacement.
func (u *eUnit) replaceFragments(remove []*fragment, add *fragment) {
	out := u.fragments[:0]
	for _, f := range u.fragments {
		skip := false
		for _, r := range remove {
			if f == r {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, f)
		}
	}
	u.fragments = append(out, add)
}

// osharer plans a u-trace: it chooses each next operator and binds it for
// each partition of the e-unit's mappings.
type osharer struct {
	nq       *normalizedQuery
	db       *engine.Instance
	ec       *exec.Context
	strategy Strategy
	// set says every product and join output is read as a set: the walk's,
	// when the final operator does not aggregate.
	set bool

	// groups and scans list the nodes; rels lists the source relations the
	// steps scan, relIndex their positions by name.
	groups   []ScatterGroup
	scans    []map[string]int
	rels     []traceRel
	relIndex map[string]int
}

// stepBinder binds one executeOp into a step.  work lists the factors the
// step's ops can read, in the walk's order: the parent e-unit's factors, then
// one per op.  A factor is identified by its pointer: every op builds a new
// one.
type stepBinder struct {
	work []*factor
	step *boundStep
}

// add appends the op building f.
func (b *stepBinder) add(f *factor, op stepOp) *factor {
	b.work = append(b.work, f)
	b.step.ops = append(b.step.ops, op)
	return f
}

// slot returns f's position in the working list.
func (b *stepBinder) slot(f *factor) int {
	i := slices.Index(b.work, f)
	if i < 0 {
		panic("o-sharing: a step reads a factor it cannot reach")
	}
	return i
}

// filter binds the selection of in by pred.  An untouched in may be served
// from the walk's shared index.
func (b *stepBinder) filter(in *factor, pred engine.Predicate) (*factor, error) {
	f, err := engine.CompileFilter(pred, in.cols)
	if err != nil {
		return nil, err
	}
	src, rel := b.slot(in), in.rel
	return b.add(&factor{cols: in.cols, rel: -1}, func(w *walker, work [][]engine.Tuple) ([]engine.Tuple, error) {
		return f.Rows(w.ec.Ctx(), work[src], w.stats, w.indexes, w.rel(rel))
	}), nil
}

// join binds the hash join of l and r on leftCol = rightCol, keeping lk of
// each left row and rk of each right row.  An untouched r may have its build
// table served from the walk's shared index.
func (b *stepBinder) join(l, r *factor, leftCol, rightCol string, lk, rk []int, set bool) (*factor, error) {
	li, err := engine.ColumnPositions(l.cols, []string{leftCol})
	if err != nil {
		return nil, err
	}
	ri, err := engine.ColumnPositions(r.cols, []string{rightCol})
	if err != nil {
		return nil, err
	}
	ls, rs, rel := b.slot(l), b.slot(r), r.rel
	return b.add(&factor{cols: append(keptCols(l, lk), keptCols(r, rk)...), rel: -1}, func(w *walker, work [][]engine.Tuple) ([]engine.Tuple, error) {
		return engine.JoinRows(w.ec.Ctx(), work[ls], work[rs], li[0], ri[0], lk, rk, set, w.stats, w.indexes, w.rel(rel))
	}), nil
}

// flatSpec is a bound flatten: the working factors it reads, each with its
// keep list, and all, the keep list of every kept column, whose prefixes are
// the keep lists of a partial product.
type flatSpec struct {
	slots []int
	keeps [][]int
	all   []int
}

// flatSpec binds a flatten of the factors, each cut to its keep list, and
// returns it with the columns of its result when two or more factors take
// part: the kept columns, in order.
func (b *stepBinder) flatSpec(factors []*factor, keeps [][]int) (*flatSpec, []string) {
	fs := &flatSpec{slots: make([]int, len(factors)), keeps: keeps}
	var cols []string
	for i, f := range factors {
		fs.slots[i] = b.slot(f)
		cols = append(cols, keptCols(f, keeps[i])...)
	}
	fs.all = allColumns(len(cols))
	return fs, cols
}

// flatten binds a flatten of two or more factors, each keeping at least one
// column, whose result therefore always carries the kept columns.  Only the
// root flattens factors that may drop out (see finish).
func (b *stepBinder) flatten(factors []*factor, keeps [][]int) (*factor, error) {
	for _, k := range keeps {
		if len(k) == 0 {
			return nil, fmt.Errorf("o-sharing: flattening a factor no later operator reads")
		}
	}
	fs, cols := b.flatSpec(factors, keeps)
	return b.add(&factor{cols: cols, rel: -1}, func(w *walker, work [][]engine.Tuple) ([]engine.Tuple, error) {
		return w.flatten(work, fs)
	}), nil
}

// keptCols returns the columns of f at the keep positions.
func keptCols(f *factor, keep []int) []string {
	cols := make([]string, len(keep))
	for k, j := range keep {
		cols[k] = f.cols[j]
	}
	return cols
}

// allColumns is the keep list 0, 1, …, n-1.
func allColumns(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// executable reports whether the operator can be chosen as next-op in the
// e-unit (the "correctness" criterion of Section VI-A).
func (os *osharer) executable(u *eUnit, op *targetOp) bool {
	if u.done[op.id] {
		return false
	}
	switch op.kind {
	case opSelect, opJoinSelect:
		return true
	case opProduct:
		// Both operand alias sets must each already live inside a single
		// fragment (their own sub-products or join conditions have merged
		// them), mirroring a bottom-up execution of the product tree.
		return u.fragmentCovering(op.leftAliases) != nil && u.fragmentCovering(op.rightAliases) != nil
	case opFinal:
		for i, d := range u.done {
			if i != op.id && !d {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// partitionAttrs returns the target attributes whose correspondences determine
// how the operator reformulates in the e-unit: the attributes the operator
// references plus, for relation occurrences it must materialize, every query
// attribute of those occurrences.
func (os *osharer) partitionAttrs(u *eUnit, op *targetOp) []schema.Attribute {
	var attrs []schema.Attribute
	add := func(a schema.Attribute) {
		if !slices.Contains(attrs, a) {
			attrs = append(attrs, a)
		}
	}
	addAlias := func(alias string) {
		frag := u.fragmentOf(alias)
		if frag != nil && frag.materialized() {
			return // already materialized; its shape is fixed
		}
		for _, a := range os.nq.res.AliasAttributes(alias) {
			add(a)
		}
	}
	for _, ref := range op.refs {
		add(ref.Target)
	}
	switch op.kind {
	case opProduct:
		for _, alias := range op.leftAliases {
			addAlias(alias)
		}
		for _, alias := range op.rightAliases {
			addAlias(alias)
		}
	case opFinal:
		for _, alias := range os.nq.aliases {
			addAlias(alias)
		}
	}
	return attrs
}

// chooseNext implements the next() function of Algorithm 2 with the strategy
// of Section VI-A: among executable operators, pick by Random, SNF (fewest
// partitions) or SEF (lowest entropy), and return the chosen operator together
// with the partitioning of the e-unit's mappings with respect to it.  seed
// drives StrategyRandom for this node only.
func (os *osharer) chooseNext(u *eUnit, seed int64) (*targetOp, []*Partition, error) {
	type candidate struct {
		op    *targetOp
		parts []*Partition
	}
	var cands []candidate
	for _, op := range os.nq.ops {
		if !os.executable(u, op) {
			continue
		}
		cands = append(cands, candidate{op: op, parts: PartitionByAttributes(os.partitionAttrs(u, op), u.maps)})
	}
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("o-sharing: no executable operator in e-unit")
	}
	best := 0
	switch os.strategy {
	case StrategyRandom:
		best = rand.New(rand.NewSource(seed)).Intn(len(cands))
	case StrategySNF:
		for i := 1; i < len(cands); i++ {
			if len(cands[i].parts) < len(cands[best].parts) {
				best = i
			}
		}
	case StrategySEF:
		bestE := Entropy(cands[best].parts, len(u.maps))
		for i := 1; i < len(cands); i++ {
			e := Entropy(cands[i].parts, len(u.maps))
			if e < bestE-1e-12 {
				best, bestE = i, e
			}
		}
	default:
		return nil, nil, fmt.Errorf("o-sharing: unknown strategy %v", os.strategy)
	}
	return cands[best].op, cands[best].parts, nil
}

// liveSet is the set of engine columns a product or join has to carry.
type liveSet struct {
	all  bool
	cols map[string]bool
}

// keep returns the positions of f's columns that are in the set, in order.
func (l liveSet) keep(f *factor) []int {
	idx := make([]int, 0, len(f.cols))
	for i, c := range f.cols {
		if l.all || l.cols[c] {
			idx = append(idx, i)
		}
	}
	return idx
}

// liveColumns returns the columns that tuples built while running executes in
// e-unit u still have to carry: those an operator not yet executed in u — and
// running itself, which reads its columns after the products that bring them
// in (nil when it does not) — references under some mapping of u.  Every other
// column of a product or join output is dead: no later operator of the u-trace
// below u can name it, because descending the trace only removes mappings and
// pending operators.  A query without a root projection or aggregate outputs
// whole rows, so everything stays live.
func (os *osharer) liveColumns(u *eUnit, running *targetOp) liveSet {
	if os.nq.ops[len(os.nq.ops)-1].final == nil {
		return liveSet{all: true}
	}
	type sourceCol struct {
		alias string
		src   schema.Attribute
	}
	seen := make(map[sourceCol]bool)
	live := liveSet{cols: make(map[string]bool)}
	for _, op := range os.nq.ops {
		if u.done[op.id] && op != running {
			continue
		}
		for _, ref := range op.refs {
			for _, m := range u.maps {
				src, ok := m.SourceFor(ref.Target)
				if !ok || seen[sourceCol{ref.Alias, src}] {
					continue
				}
				seen[sourceCol{ref.Alias, src}] = true
				live.cols[columnName(ref.Alias, src)] = true
			}
		}
	}
	return live
}

// columnName is the engine column of a source attribute scanned in for a
// relation occurrence: "<alias>.<source relation>.<source attribute>".
func columnName(alias string, src schema.Attribute) string {
	return alias + "." + src.Relation + "." + src.Name
}

// scan binds the alias-qualified scan of a source relation: the walk hands
// the base rows over as they are, so selections and join builds over them
// can be served from the shared index.
func (os *osharer) scan(b *stepBinder, alias, srcRel string) (*factor, error) {
	base := os.db.Relation(srcRel)
	if base == nil {
		return nil, fmt.Errorf("o-sharing: unknown source relation %q", srcRel)
	}
	ri, ok := os.relIndex[srcRel]
	if !ok {
		ri = len(os.rels)
		os.rels = append(os.rels, traceRel{name: srcRel, cols: slices.Clone(base.Columns)})
		os.relIndex[srcRel] = ri
	}
	b.step.scans++
	cols := base.QualifyColumns(alias + "." + srcRel).Columns
	return b.add(&factor{cols: cols, rel: ri}, func(w *walker, _ [][]engine.Tuple) ([]engine.Tuple, error) {
		return w.rels[ri].Rows, nil
	}), nil
}

// attach brings f — the scan of srcRel for the alias, or a selection of it —
// into the fragment as a new factor.  The reformulation of one relation
// occurrence is the product of its covering source relations, so bringing a
// relation into a materialized fragment is a product: it is counted as one
// and copies nothing.
func (os *osharer) attach(b *stepBinder, frag *fragment, alias, srcRel string, f *factor) {
	if frag.materialized() {
		b.step.products++
	}
	frag.factors = append(frag.factors, f)
	included := make(map[string]map[string]bool, len(frag.included)+1)
	for a, rels := range frag.included {
		included[a] = rels
	}
	rels := make(map[string]bool, len(included[alias])+1)
	for r := range included[alias] {
		rels[r] = true
	}
	rels[srcRel] = true
	included[alias] = rels
	frag.included = included
}

// ensureIncluded guarantees that the fragment contains the given source
// relation for the alias, scanning it in whole if it does not.
func (os *osharer) ensureIncluded(b *stepBinder, frag *fragment, alias, srcRel string) error {
	if frag.included[alias][srcRel] {
		return nil
	}
	scanned, err := os.scan(b, alias, srcRel)
	if err != nil {
		return err
	}
	os.attach(b, frag, alias, srcRel, scanned)
	return nil
}

// materializeAlias brings every source relation needed to cover the query's
// attributes of the alias (under mapping m) into the fragment.
func (os *osharer) materializeAlias(b *stepBinder, frag *fragment, alias string, m *schema.Mapping) error {
	rels, err := os.nq.ref.SourceRelationsForAlias(m, alias)
	if err != nil {
		return err
	}
	for _, r := range rels {
		if err := os.ensureIncluded(b, frag, alias, r); err != nil {
			return err
		}
	}
	return nil
}

// sourceColumn resolves the reference to the source attribute the mapping
// assigns it and the fragment that owns its relation occurrence.
func (os *osharer) sourceColumn(u *eUnit, m *schema.Mapping, ref query.Resolved) (schema.Attribute, *fragment, error) {
	src, ok := m.SourceFor(ref.Target)
	if !ok {
		return schema.Attribute{}, nil, fmt.Errorf("%w: %s under mapping %s", query.ErrNotCovered, ref.Target, m.ID)
	}
	frag := u.fragmentOf(ref.Alias)
	if frag == nil {
		return schema.Attribute{}, nil, fmt.Errorf("o-sharing: no fragment for alias %q", ref.Alias)
	}
	return src, frag, nil
}

// sourceColumnIn resolves the reference to its engine column name under the
// mapping, making sure the owning fragment includes the needed source
// relation, and returns the position of the factor carrying the column.
func (os *osharer) sourceColumnIn(b *stepBinder, u *eUnit, m *schema.Mapping, ref query.Resolved) (string, *fragment, int, error) {
	src, frag, err := os.sourceColumn(u, m, ref)
	if err != nil {
		return "", nil, 0, err
	}
	if err := os.ensureIncluded(b, frag, ref.Alias, src.Relation); err != nil {
		return "", nil, 0, err
	}
	col := columnName(ref.Alias, src)
	i := frag.factorOf(col)
	if i < 0 {
		return "", nil, 0, fmt.Errorf("o-sharing: no factor carries %s", col)
	}
	return col, frag, i, nil
}

// mergeFragments materializes the given fragments and products them into one:
// the merged fragment lists their factors in order, and each fragment after
// the first counts one product.
func (os *osharer) mergeFragments(b *stepBinder, frags []*fragment, m *schema.Mapping) (*fragment, error) {
	merged := &fragment{aliases: make(map[string]bool), included: make(map[string]map[string]bool)}
	for _, f := range frags {
		if !f.materialized() {
			// Materialize untouched single-alias fragments with their covering
			// source relations.
			for a := range f.aliases {
				if err := os.materializeAlias(b, f, a, m); err != nil {
					return nil, err
				}
			}
		}
		if merged.materialized() {
			b.step.products++
		}
		merged.factors = append(merged.factors, f.factors...)
		for a := range f.aliases {
			merged.aliases[a] = true
		}
		for a, rels := range f.included {
			if merged.included[a] == nil {
				merged.included[a] = make(map[string]bool)
			}
			for r := range rels {
				merged.included[a][r] = true
			}
		}
	}
	return merged, nil
}

// keepOf returns, for each factor, the positions of its columns among cols.
func keepOf(factors []*factor, cols []string) [][]int {
	keeps := make([][]int, len(factors))
	for i, f := range factors {
		for j, c := range f.cols {
			if slices.Contains(cols, c) {
				keeps[i] = append(keeps[i], j)
			}
		}
	}
	return keeps
}

// executeOp binds the chosen operator for one mapping partition (Steps 15–21
// of Algorithm 2): it returns the child e-unit and the step a walk runs to
// reach it from u's rows.
func (os *osharer) executeOp(u *eUnit, op *targetOp, p *Partition) (*eUnit, *boundStep, error) {
	if p.Representative == nil {
		return nil, nil, fmt.Errorf("o-sharing: partition without representative")
	}
	m := p.Representative
	child := u.clone()
	child.maps = p.Mappings
	child.done[op.id] = true
	b := &stepBinder{work: u.factors(), step: &boundStep{}}
	if err := os.bind(b, child, op, m); err != nil {
		return nil, nil, err
	}
	for _, f := range child.factors() {
		b.step.out = append(b.step.out, b.slot(f))
	}
	return child, b.step, nil
}

// bind runs the operator's fragment rules on the child e-unit, binding each
// engine operator they call into b.
func (os *osharer) bind(b *stepBinder, child *eUnit, op *targetOp, m *schema.Mapping) error {
	switch op.kind {
	case opSelect:
		ref := op.refs[0]
		src, frag, err := os.sourceColumn(child, m, ref)
		if err != nil {
			return err
		}
		col := columnName(ref.Alias, src)
		pred := &engine.ConstPredicate{Column: col, Op: op.sel.Op, Value: op.sel.Value}
		if frag.included[ref.Alias][src.Relation] {
			// The column lies in one factor: filter that factor alone.  An
			// untouched one still shares the base rows, so the shared index
			// serves it.
			i := frag.factorOf(col)
			if i < 0 {
				return fmt.Errorf("o-sharing: no factor carries %s", col)
			}
			out, err := b.filter(frag.factors[i], pred)
			if err != nil {
				return err
			}
			frag.factors[i] = out
			return nil
		}
		// The fragment does not hold the relation yet: filter the base scan —
		// from the shared index when it serves the predicate — and bring in
		// only what survives, as a new factor.
		scanned, err := os.scan(b, ref.Alias, src.Relation)
		if err != nil {
			return err
		}
		filtered, err := b.filter(scanned, pred)
		if err != nil {
			return err
		}
		os.attach(b, frag, ref.Alias, src.Relation, filtered)
		return nil

	case opJoinSelect:
		leftCol, leftFrag, li, err := os.sourceColumnIn(b, child, m, op.refs[0])
		if err != nil {
			return err
		}
		rightCol, rightFrag, ri, err := os.sourceColumnIn(b, child, m, op.refs[1])
		if err != nil {
			return err
		}
		pred := &engine.ColPredicate{Left: leftCol, Op: op.jsel.Op, Right: rightCol}
		if leftFrag == rightFrag {
			// Both operands in one fragment: a selection over the factor
			// carrying both columns, or over the two factors flattened.
			in := leftFrag.factors[li]
			if li != ri {
				live := os.liveColumns(child, op)
				fr := leftFrag.factors[ri]
				if in, err = b.flatten([]*factor{in, fr}, [][]int{live.keep(in), live.keep(fr)}); err != nil {
					return err
				}
			}
			out, err := b.filter(in, pred)
			if err != nil {
				return err
			}
			leftFrag.factors[li] = out
			if li != ri {
				leftFrag.factors = leftFrag.without(ri)
			}
			return nil
		}
		// The two operands live in different fragments: combine them, joining
		// the two factors the condition reads and keeping every other factor
		// as it is.  For an equality condition use a hash join instead of
		// product+filter, which is how the engine would rearrange the operator
		// anyway.
		merged := &fragment{aliases: make(map[string]bool), included: make(map[string]map[string]bool)}
		for _, f := range []*fragment{leftFrag, rightFrag} {
			for a := range f.aliases {
				merged.aliases[a] = true
			}
			for a, rels := range f.included {
				merged.included[a] = rels
			}
		}
		lf, rf := leftFrag.factors[li], rightFrag.factors[ri]
		var joined *factor
		if op.jsel.Op == engine.OpEq {
			// The hash join reads its keys from the inputs, so its output
			// carries only what the operators after this one need.
			after := os.liveColumns(child, nil)
			joined, err = b.join(lf, rf, leftCol, rightCol, after.keep(lf), after.keep(rf), os.set)
		} else {
			live := os.liveColumns(child, op)
			b.step.products++
			joined, err = b.flatten([]*factor{lf, rf}, [][]int{live.keep(lf), live.keep(rf)})
			if err == nil {
				joined, err = b.filter(joined, pred)
			}
		}
		if err != nil {
			return err
		}
		merged.factors = append(leftFrag.factors[:li:li], joined)
		merged.factors = append(merged.factors, leftFrag.factors[li+1:]...)
		merged.factors = append(merged.factors, rightFrag.without(ri)...)
		child.replaceFragments([]*fragment{leftFrag, rightFrag}, merged)
		return nil

	case opProduct:
		left := child.fragmentCovering(op.leftAliases)
		right := child.fragmentCovering(op.rightAliases)
		if left == nil || right == nil {
			return fmt.Errorf("o-sharing: product operands not available")
		}
		if left == right {
			// Another operator (a join condition) already merged the operands.
			return nil
		}
		merged, err := os.mergeFragments(b, []*fragment{left, right}, m)
		if err != nil {
			return err
		}
		child.replaceFragments([]*fragment{left, right}, merged)
		return nil

	case opFinal:
		// Merge whatever fragments remain into one, and flatten it into the
		// leaf's single factor.
		merged, err := os.mergeFragments(b, slices.Clone(child.fragments), m)
		if err != nil {
			return err
		}
		child.fragments = []*fragment{merged}
		out, err := os.finish(b, child, op, m, merged)
		if err != nil {
			return err
		}
		merged.factors = []*factor{out}
		return nil
	default:
		return fmt.Errorf("o-sharing: unknown operator kind %v", op.kind)
	}
}

// finish binds the final operator over the merged fragment, whose result is
// the leaf's rows: the only place a whole fragment is flattened.  A projection
// flattens only the factors carrying its columns (under the set bit, their
// distinct projections); COUNT multiplies the factors' row counts, an exact
// integer, and flattens nothing; any other aggregate flattens its input.
//
// A root flatten may drop factors: under the set bit a non-empty factor that
// keeps nothing drops out, and an empty one empties the result.  The layout
// the projection or aggregate reads is bound once (rootFlatten): the data
// decides only whether the result is empty, and an empty result projects and
// aggregates alike under any layout.
func (os *osharer) finish(b *stepBinder, u *eUnit, op *targetOp, m *schema.Mapping, merged *fragment) (*factor, error) {
	// The final operator's columns, bringing in the relations they need.
	cols := make([]string, len(op.refs))
	for i, ref := range op.refs {
		col, _, _, err := os.sourceColumnIn(b, u, m, ref)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	leaf := &factor{rel: -1}
	factors := merged.factors
	switch final := op.final.(type) {
	case nil:
		keeps := make([][]int, len(factors))
		for i, f := range factors {
			keeps[i] = allColumns(len(f.cols))
		}
		fs, _ := b.flatSpec(factors, keeps)
		return b.add(leaf, func(w *walker, work [][]engine.Tuple) ([]engine.Tuple, error) {
			return w.flatten(work, fs)
		}), nil
	case *query.Project:
		fs, layout := rootFlatten(b, factors, cols, os.set)
		at, err := engine.ColumnPositions(layout, cols)
		if err != nil {
			return nil, err
		}
		return b.add(leaf, func(w *walker, work [][]engine.Tuple) ([]engine.Tuple, error) {
			rows, err := w.flatten(work, fs)
			if err != nil {
				return nil, err
			}
			return engine.ProjectRows(w.ec.Ctx(), rows, at, w.stats)
		}), nil
	case *query.Aggregate:
		if final.Func == engine.AggCount {
			slots := make([]int, len(factors))
			for i, f := range factors {
				slots[i] = b.slot(f)
			}
			return b.add(leaf, func(w *walker, work [][]engine.Tuple) ([]engine.Tuple, error) {
				n := int64(1)
				for _, s := range slots {
					var ok bool
					if n, ok = mulCount(n, int64(len(work[s]))); !ok {
						return nil, fmt.Errorf("o-sharing: COUNT over %d factors overflows int64", len(slots))
					}
				}
				w.stats.Record(engine.OpKindAggregate, 0, 1)
				return []engine.Tuple{{engine.I(n)}}, nil
			}), nil
		}
		fs, layout := rootFlatten(b, factors, cols, os.set)
		agg, err := engine.CompileAggregate(layout, final.Func, cols[0])
		if err != nil {
			return nil, err
		}
		return b.add(leaf, func(w *walker, work [][]engine.Tuple) ([]engine.Tuple, error) {
			rows, err := w.flatten(work, fs)
			if err != nil {
				return nil, err
			}
			row, err := agg.Row(w.ec.Ctx(), rows, w.stats)
			if err != nil {
				return nil, err
			}
			return []engine.Tuple{row}, nil
		}), nil
	default:
		return nil, fmt.Errorf("o-sharing: unsupported final operator %T", op.final)
	}
}

// rootFlatten binds the root's flatten of the factors cut to the columns,
// and the layout of its result: the whole of the one factor that keeps a
// column when it takes part alone — under the set bit every other factor keeps
// nothing and drops out unless it is empty, which empties the result; without
// it, when it is the only factor — and the kept columns otherwise.
func rootFlatten(b *stepBinder, factors []*factor, cols []string, set bool) (*flatSpec, []string) {
	keeps := keepOf(factors, cols)
	fs, kept := b.flatSpec(factors, keeps)
	var whole []string
	keeping := 0
	for i, k := range keeps {
		if len(k) > 0 {
			keeping++
			whole = factors[i].cols
		}
	}
	if keeping == 1 && (set || len(factors) == 1) {
		return fs, whole
	}
	return fs, kept
}

// mulCount returns a·b for non-negative counts when it fits in an int64.
func mulCount(a, b int64) (int64, bool) {
	if a != 0 && b > math.MaxInt64/a {
		return 0, false
	}
	return a * b, true
}

// walker is one walk of a trace over an instance: the relations the trace
// scans, and where the walk records its statistics and time.
type walker struct {
	tr    *uTrace
	ec    *exec.Context
	rels  []*engine.Relation
	stats *engine.Stats
	// indexes is the instance's shared base-relation index cache (nil when
	// disabled): selections and join builds over untouched factors, which
	// name their relation, are served from it when it owns the relation.
	indexes *engine.IndexCache
	// spent sums the walk's steps, its branches' included.
	spent *atomic.Int64
}

// rel returns the source relation at position i of the trace's list, or nil
// for a factor that is not an untouched scan (i < 0).
func (w *walker) rel(i int) *engine.Relation {
	if i < 0 {
		return nil
	}
	return w.rels[i]
}

// walk runs the trace below n, whose e-unit holds the factor rows factors,
// handing rows to the consumer in pre-order: run_qt with every choice made.
// It reports whether the consumer stopped the walk.
func (w *walker) walk(n *traceNode, factors [][]engine.Tuple, c groupConsumer) (bool, error) {
	if err := w.ec.Err(); err != nil {
		return false, err
	}
	if len(n.children) == 0 {
		// Case 1: every operator has been executed; the single remaining
		// factor, the final operator's result, holds the answers for all
		// mappings of this e-unit.
		return c.take(n.id, n.part.Prob, factors[0]), nil
	}
	for _, f := range factors {
		if len(f) == 0 {
			// Case 2: an empty intermediate relation makes the whole
			// subtree's result empty, so the node's mass is handed over once,
			// here — with the aggregate's value over an empty input, which is
			// still a real answer (COUNT = 0, SUM = 0).
			if w.tr.emptyRows != nil {
				w.stats.Record(engine.OpKindAggregate, 0, 1)
			}
			return c.take(n.id, n.part.Prob, w.tr.emptyRows), nil
		}
	}
	// The children's subtrees are independent: fan them out over the worker
	// pool at the first branching node.  Below it, branches run sequentially
	// (their contexts carry parallelism 1).
	if w.ec.Parallelism() > 1 && len(n.children) > 1 {
		return w.fanOut(n, factors, c)
	}
	for _, child := range n.children {
		if stop, err := w.step(child, factors, c); stop || err != nil {
			return stop, err
		}
	}
	return false, nil
}

// step runs one child of a node whose e-unit holds factors: the child's
// bound step, then its subtree.  An uncovered child runs nothing; its mass
// goes to the consumer without rows.
func (w *walker) step(child *traceNode, factors [][]engine.Tuple, c groupConsumer) (bool, error) {
	if child.uncovered {
		return c.take(child.id, child.part.Prob, nil), nil
	}
	start := time.Now()
	next, err := w.run(child.step, factors)
	w.spent.Add(int64(time.Since(start)))
	if err != nil {
		return false, err
	}
	return w.walk(child, next, c)
}

// run runs a bound step over its parent's factors and returns the child's.
func (w *walker) run(st *boundStep, factors [][]engine.Tuple) ([][]engine.Tuple, error) {
	for range st.scans {
		w.stats.Record(engine.OpKindScan, 0, 0)
	}
	for range st.products {
		w.stats.Record(engine.OpKindProduct, 0, 0)
	}
	// One allocation holds the working list and, after it, the child's
	// factors.
	n := len(factors) + len(st.ops)
	buf := make([][]engine.Tuple, n+len(st.out))
	work, next := buf[:len(factors):n], buf[n:]
	copy(work, factors)
	for _, op := range st.ops {
		rows, err := op(w, work)
		if err != nil {
			return nil, err
		}
		work = append(work, rows)
	}
	for i, j := range st.out {
		next[i] = work[j]
	}
	return next, nil
}

// fanOut runs n's children on the worker pool, each on a sequential copy of
// the walker recording into the shared statistics.  A branch holds what it
// hands over until its turn, so the consumer sees exactly the sequential walk.
func (w *walker) fanOut(n *traceNode, factors [][]engine.Tuple, c groupConsumer) (bool, error) {
	type handOver struct {
		gi   int
		prob float64
		rows []engine.Tuple
	}
	stopped := false
	err := exec.Map(w.ec, len(n.children),
		func(ctx context.Context, i int) (held []handOver, err error) {
			sub := *w
			sub.ec = exec.NewContext(ctx, 1)
			_, err = sub.step(n.children[i], factors, groupConsumer{take: func(gi int, prob float64, rows []engine.Tuple) bool {
				held = append(held, handOver{gi, prob, rows})
				return false
			}})
			return held, err
		},
		func(i int, held []handOver) error {
			for _, h := range held {
				stopped = stopped || c.take(h.gi, h.prob, h.rows)
			}
			return nil
		})
	return stopped, err
}

// flatPart is one factor taking part in a flatten: its rows and keep list.
type flatPart struct {
	rows []engine.Tuple
	keep []int
}

// flatten builds the product of the spec's factors, each cut to its keep
// list, left to right: the one place o-sharing builds product rows.  Under the
// set bit a factor that keeps nothing is an existence bit: an empty one
// empties the product, any other drops out.  With two or more factors left,
// each is first cut to its distinct rows over its keep list, so the product
// repeats no row.  When one factor is left it is returned whole; otherwise
// the result holds exactly the kept columns.  The products were counted when
// their factors were appended, so flatten charges the rows it reads and
// builds and no operator.
func (w *walker) flatten(work [][]engine.Tuple, fs *flatSpec) (rows []engine.Tuple, err error) {
	var st *engine.Stats
	if w.stats != nil {
		st = engine.NewStats()
		defer w.stats.AddRows(st)
	}
	ctx := w.ec.Ctx()
	parts := make([]flatPart, 0, len(fs.slots))
	empty := false
	for i, s := range fs.slots {
		if w.tr.set && len(fs.keeps[i]) == 0 && len(work[s]) > 0 {
			continue
		}
		empty = empty || len(work[s]) == 0
		parts = append(parts, flatPart{work[s], fs.keeps[i]})
	}
	switch len(parts) {
	case 0:
		return []engine.Tuple{{}}, nil
	case 1:
		return parts[0].rows, nil
	}
	if w.tr.set && !empty {
		for i, p := range parts {
			cut, err := engine.ProjectRows(ctx, p.rows, p.keep, st)
			if err != nil {
				return nil, err
			}
			if parts[i].rows, err = engine.DistinctRows(ctx, cut, st); err != nil {
				return nil, err
			}
			parts[i].keep = fs.all[:len(p.keep)]
		}
	}
	acc, accKeep := parts[0].rows, parts[0].keep
	width := len(accKeep)
	for _, p := range parts[1:] {
		if acc, err = engine.ProductRows(ctx, acc, p.rows, accKeep, p.keep, w.tr.set, st); err != nil {
			return nil, err
		}
		width += len(p.keep)
		accKeep = fs.all[:width]
	}
	return acc, nil
}
