package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
// differ elsewhere.  Only Case 2 (an empty fragment prunes the subtree below
// it) and a leaf's emptiness depend on the data.  A trace is read-only once
// planned, so any number of executions may walk it at once.
type uTrace struct {
	nq   *normalizedQuery
	root *traceNode
}

// traceNode is one e-unit of a planned u-trace: the partition of its parent's
// mappings it holds — representative, mappings, mass — reached by running op
// for the representative.  Its children run the operator chosen next, once per
// partition of its mappings, in visit order.  A node without children is a
// leaf: every operator has run, or the partition's mappings do not cover op
// (uncovered) and the leaf runs nothing at all.  The root holds the top-level
// representatives and no op.
type traceNode struct {
	// id is the node's pre-order position: the group index its rows are
	// handed to the consumer under.
	id        int
	op        *targetOp
	part      *Partition
	uncovered bool
	children  []*traceNode
}

// planTrace plans the u-trace of q over the mappings under the strategy: the
// query normalized into the operator/fragment form e-units manipulate, the
// mappings partitioned into top-level representatives, each carrying its
// partition's mass (Steps 1–2), and from the initial e-unit over them
// (Step 3) every next-operator choice and partition.  Each child e-unit is
// reached through executeOp, the code the execution runs, over scans that
// carry the instance's columns and no rows, so planning reads no data.  The
// plan lists the nodes in pre-order, and is linear unless the final operator
// aggregates.  seed drives StrategyRandom; 0 selects a fixed default so runs
// stay reproducible.
func planTrace(ec *exec.Context, m Method, q *query.Query, maps schema.MappingSet, db *engine.Instance, strategy Strategy, seed int64) (*ScatterPlan, error) {
	nq, err := normalizeQuery(q)
	if err != nil {
		return nil, err
	}
	parts, err := PartitionMappings(q, maps)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m, err)
	}
	if seed == 0 {
		seed = 1
	}
	planner := &osharer{nq: nq, db: db, ec: ec, strategy: strategy, planning: true}
	root := &traceNode{part: &Partition{Mappings: Represent(parts)}}
	if err := planner.plan(root, newEUnit(nq, root.part.Mappings), seed); err != nil {
		return nil, err
	}
	sp := &ScatterPlan{Method: m, Groups: planner.groups, Partitions: len(root.part.Mappings), trace: &uTrace{nq: nq, root: root}}
	sp.setShape(planner.scans, !nq.aggregates())
	return sp, nil
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
		next, err := os.executeOp(u, op, p)
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
// operator statistics and the operators' execution time to run.  Every
// consumer reads a leaf's rows as a set, so unless the final operator
// aggregates, the walk's joins and flattens skip the pairs that only repeat a
// row, and a factor no later operator reads stands for one row.
//
// The subtrees below the first branching node are independent, so they run on
// the runtime's worker pool, and each branch's rows are handed over in branch
// order: the consumer sees exactly the sequential walk.  Top-k callers pass a
// sequential context: where it stops depends on the visit order.
func (tr *uTrace) executeInto(ec *exec.Context, db *engine.Instance, run *ShardRun, c groupConsumer) error {
	var spent atomic.Int64
	os := &osharer{nq: tr.nq, db: db, ec: ec, stats: run.Stats, indexes: db.Indexes(), spent: &spent, set: !tr.nq.aggregates()}
	_, err := os.walk(tr.root, newEUnit(tr.nq, tr.root.part.Mappings), c)
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
	refs []opRef
}

// opRef is one attribute reference of a target operator: the relation
// occurrence it goes through and the target attribute it denotes.
type opRef struct {
	alias  string
	target schema.Attribute
}

// normalizedQuery is the target query decomposed into relation occurrences,
// selection operators, Cartesian-product operators and a final operator, which
// is the form the o-sharing e-units manipulate.  Queries whose internal nodes
// include projections or aggregates below other operators are not supported by
// o-sharing (they are by the other methods).
type normalizedQuery struct {
	q       *query.Query
	ref     *query.Reformulator
	aliases []string
	ops     []*targetOp
	// aliasAttrs caches the target attributes referenced via each alias.
	aliasAttrs map[string][]schema.Attribute
}

func normalizeQuery(q *query.Query) (*normalizedQuery, error) {
	nq := &normalizedQuery{q: q, ref: query.NewReformulator(q), aliasAttrs: make(map[string][]schema.Attribute)}

	body := q.Root
	var final query.Node
	switch q.Root.(type) {
	case *query.Project, *query.Aggregate:
		final = q.Root
		body = q.Root.Children()[0]
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
			r, err := nq.resolveRef(ref)
			if err != nil {
				return nil, err
			}
			op.refs = append(op.refs, r)
		}
	}
	// Cache per-alias attribute lists.
	for _, alias := range nq.aliases {
		names, err := q.AttributesForAlias(alias)
		if err != nil {
			return nil, err
		}
		rel := q.Aliases()[alias]
		attrs := make([]schema.Attribute, 0, len(names))
		for _, n := range names {
			attrs = append(attrs, schema.Attribute{Relation: rel, Name: n})
		}
		nq.aliasAttrs[alias] = attrs
	}
	return nq, nil
}

// aggregates reports whether the query's final operator is an aggregate.
func (nq *normalizedQuery) aggregates() bool {
	_, ok := nq.ops[len(nq.ops)-1].final.(*query.Aggregate)
	return ok
}

// resolveRef resolves the reference to its target attribute and relation
// occurrence.  An unqualified reference resolves only when exactly one
// occurrence has the attribute, so that occurrence is the one over the
// attribute's relation.
func (nq *normalizedQuery) resolveRef(ref query.AttrRef) (opRef, error) {
	target, err := nq.q.ResolveRef(ref)
	if err != nil {
		return opRef{}, err
	}
	if ref.Alias != "" {
		return opRef{alias: ref.Alias, target: target}, nil
	}
	rels := nq.q.Aliases()
	for _, alias := range nq.aliases {
		if rels[alias] == target.Relation {
			return opRef{alias: alias, target: target}, nil
		}
	}
	return opRef{}, fmt.Errorf("o-sharing: no relation occurrence for %s", target)
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
	factors  []*engine.Relation
}

func (f *fragment) clone() *fragment {
	return &fragment{aliases: f.aliases, included: f.included, factors: append([]*engine.Relation(nil), f.factors...)}
}

// materialized reports whether some source relation has been scanned into
// the fragment.
func (f *fragment) materialized() bool { return len(f.included) > 0 }

// factorOf returns the position of the factor carrying the column, or -1.
func (f *fragment) factorOf(col string) int {
	for i, r := range f.factors {
		for _, c := range r.Columns {
			if c == col {
				return i
			}
		}
	}
	return -1
}

// without returns the fragment's factors but the one at i, in order.
func (f *fragment) without(i int) []*engine.Relation {
	out := make([]*engine.Relation, 0, len(f.factors)-1)
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

// hasEmptyFragment reports whether any fragment is empty — one of its
// factors is — which forces every downstream product and selection to be
// empty as well.
func (u *eUnit) hasEmptyFragment() bool {
	for _, f := range u.fragments {
		for _, r := range f.factors {
			if r.IsEmpty() {
				return true
			}
		}
	}
	return false
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

// osharer runs target operators on e-units: over the instance's rows when an
// execution walks a trace, over rowless scans when planTrace plans one.
type osharer struct {
	nq    *normalizedQuery
	db    *engine.Instance
	ec    *exec.Context
	stats *engine.Stats
	// indexes is the instance's shared base-relation index cache (nil when
	// disabled): selections and join builds over untouched fragments — a
	// fragment fresh from a scan still shares the base relation's rows — are
	// served from it.
	indexes *engine.IndexCache
	// spent sums the walk's executeOp calls, its branches' included.
	spent *atomic.Int64
	// set says every product and join output is read as a set: the walk's,
	// when the final operator does not aggregate.
	set bool

	// strategy picks each next operator, planning makes scans rowless, and
	// groups and scans list the nodes; all are a planner's only.
	strategy Strategy
	planning bool
	groups   []ScatterGroup
	scans    []map[string]int
}

// walk runs the trace below n, whose e-unit u holds the data, handing rows to
// the consumer in pre-order: run_qt with every choice made.  It reports
// whether the consumer stopped the walk.
func (os *osharer) walk(n *traceNode, u *eUnit, c groupConsumer) (bool, error) {
	if err := os.ec.Err(); err != nil {
		return false, err
	}
	if len(n.children) == 0 {
		// Case 1: every operator has been executed; the single remaining
		// fragment, flattened by the final operator into one factor, holds
		// the answers for all mappings of this e-unit.
		return c.take(n.id, n.part.Prob, u.fragments[0].factors[0].Rows), nil
	}
	if u.hasEmptyFragment() {
		// Case 2: an empty intermediate relation makes the whole subtree's
		// result empty, so the node's mass is handed over once, here.
		rows, err := os.finishEmpty(u)
		if err != nil {
			return false, err
		}
		return c.take(n.id, n.part.Prob, rows), nil
	}
	// The children's subtrees are independent: fan them out over the worker
	// pool at the first branching node.  Below it, branches run sequentially
	// (their contexts carry parallelism 1).
	if os.ec.Parallelism() > 1 && len(n.children) > 1 {
		return os.fanOut(n, u, c)
	}
	for _, child := range n.children {
		if stop, err := os.step(child, u, c); stop || err != nil {
			return stop, err
		}
	}
	return false, nil
}

// step runs one child of a node whose e-unit is u: the child's operator for
// its partition, then its subtree.  An uncovered child runs nothing; its mass
// goes to the consumer without rows.
func (os *osharer) step(child *traceNode, u *eUnit, c groupConsumer) (bool, error) {
	if child.uncovered {
		return c.take(child.id, child.part.Prob, nil), nil
	}
	start := time.Now()
	next, err := os.executeOp(u, child.op, child.part)
	os.spent.Add(int64(time.Since(start)))
	if err != nil {
		return false, err
	}
	return os.walk(child, next, c)
}

// fanOut runs n's children on the worker pool, each on a sequential copy of
// the osharer recording into the shared statistics.  A branch holds what it
// hands over until its turn, so the consumer sees exactly the sequential walk.
func (os *osharer) fanOut(n *traceNode, u *eUnit, c groupConsumer) (bool, error) {
	type handOver struct {
		gi   int
		prob float64
		rows []engine.Tuple
	}
	stopped := false
	err := exec.Map(os.ec, len(n.children),
		func(ctx context.Context, i int) (held []handOver, err error) {
			sub := *os
			sub.ec = exec.NewContext(ctx, 1)
			_, err = sub.step(n.children[i], u, groupConsumer{take: func(gi int, prob float64, rows []engine.Tuple) bool {
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

// finishEmpty is Case 2's answer: the e-unit contains an empty intermediate
// relation, so its result is empty — unless the query's final operator is an
// aggregate, whose value over an empty input (COUNT = 0, SUM = 0) is still a
// real answer.
func (os *osharer) finishEmpty(u *eUnit) ([]engine.Tuple, error) {
	finalOp := os.nq.ops[len(os.nq.ops)-1]
	agg, ok := finalOp.final.(*query.Aggregate)
	if !ok || u.done[finalOp.id] {
		return nil, nil
	}
	col := ""
	if agg.Func != engine.AggCount {
		col = "v"
	}
	rel, err := engine.Aggregate(os.ec.Ctx(), engine.NewRelation("empty", []string{"v"}), agg.Func, col, os.stats)
	if err != nil {
		return nil, err
	}
	return rel.Rows, nil
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
func (os *osharer) partitionAttrs(u *eUnit, op *targetOp) ([]schema.Attribute, error) {
	var attrs []schema.Attribute
	addAlias := func(alias string) {
		frag := u.fragmentOf(alias)
		if frag != nil && frag.materialized() {
			return // already materialized; its shape is fixed
		}
		attrs = append(attrs, os.nq.aliasAttrs[alias]...)
	}
	switch op.kind {
	case opSelect:
		a, err := os.nq.q.NodeAttributes(op.sel)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, a...)
	case opJoinSelect:
		a, err := os.nq.q.NodeAttributes(op.jsel)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, a...)
	case opProduct:
		for _, alias := range op.leftAliases {
			addAlias(alias)
		}
		for _, alias := range op.rightAliases {
			addAlias(alias)
		}
	case opFinal:
		if op.final != nil {
			a, err := os.nq.q.NodeAttributes(op.final)
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, a...)
		}
		for _, alias := range os.nq.aliases {
			addAlias(alias)
		}
	}
	// De-duplicate while preserving order.
	seen := make(map[schema.Attribute]bool, len(attrs))
	out := attrs[:0]
	for _, a := range attrs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out, nil
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
		attrs, err := os.partitionAttrs(u, op)
		if err != nil {
			return nil, nil, err
		}
		cands = append(cands, candidate{op: op, parts: PartitionByAttributes(attrs, u.maps)})
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

// keep returns the positions of rel's columns that are in the set, in order.
func (l liveSet) keep(rel *engine.Relation) []int {
	idx := make([]int, 0, len(rel.Columns))
	for i, c := range rel.Columns {
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
				src, ok := m.SourceFor(ref.target)
				if !ok || seen[sourceCol{ref.alias, src}] {
					continue
				}
				seen[sourceCol{ref.alias, src}] = true
				live.cols[columnName(ref.alias, src)] = true
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

// scan records and returns the alias-qualified scan of a source relation.  The
// scan shares the base relation's rows, so selections and join builds over it
// can be served from the shared index cache.  While planning it carries the
// columns and no rows: every operator above it then runs on empty inputs, which
// shapes fragments exactly as the data would and reads none of it.
func (os *osharer) scan(alias, srcRel string) (*engine.Relation, error) {
	base := os.db.Relation(srcRel)
	if base == nil {
		return nil, fmt.Errorf("o-sharing: unknown source relation %q", srcRel)
	}
	os.stats.Record(engine.OpKindScan, 0, 0)
	rel := base.QualifyColumns(alias + "." + srcRel)
	if os.planning {
		rel.Rows = nil
	}
	return rel, nil
}

// attach brings rel — the scan of srcRel for the alias, or a selection of it —
// into the fragment as a new factor.  The reformulation of one relation
// occurrence is the product of its covering source relations, so bringing a
// relation into a materialized fragment is a product: it is counted as one
// and copies nothing.
func (os *osharer) attach(frag *fragment, alias, srcRel string, rel *engine.Relation) {
	if frag.materialized() {
		os.stats.Record(engine.OpKindProduct, 0, 0)
	}
	frag.factors = append(frag.factors, rel)
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
func (os *osharer) ensureIncluded(frag *fragment, alias, srcRel string) error {
	if frag.included[alias][srcRel] {
		return nil
	}
	scanned, err := os.scan(alias, srcRel)
	if err != nil {
		return err
	}
	os.attach(frag, alias, srcRel, scanned)
	return nil
}

// materializeAlias brings every source relation needed to cover the query's
// attributes of the alias (under mapping m) into the fragment.
func (os *osharer) materializeAlias(frag *fragment, alias string, m *schema.Mapping) error {
	rels, err := os.nq.ref.SourceRelationsForAlias(m, alias)
	if err != nil {
		return err
	}
	for _, r := range rels {
		if err := os.ensureIncluded(frag, alias, r); err != nil {
			return err
		}
	}
	return nil
}

// sourceColumn resolves the reference to the source attribute the mapping
// assigns it and the fragment that owns its relation occurrence.
func (os *osharer) sourceColumn(u *eUnit, m *schema.Mapping, ref opRef) (schema.Attribute, *fragment, error) {
	src, ok := m.SourceFor(ref.target)
	if !ok {
		return schema.Attribute{}, nil, fmt.Errorf("%w: %s under mapping %s", query.ErrNotCovered, ref.target, m.ID)
	}
	frag := u.fragmentOf(ref.alias)
	if frag == nil {
		return schema.Attribute{}, nil, fmt.Errorf("o-sharing: no fragment for alias %q", ref.alias)
	}
	return src, frag, nil
}

// sourceColumnIn resolves the reference to its engine column name under the
// mapping, making sure the owning fragment includes the needed source
// relation, and returns the position of the factor carrying the column.
func (os *osharer) sourceColumnIn(u *eUnit, m *schema.Mapping, ref opRef) (string, *fragment, int, error) {
	src, frag, err := os.sourceColumn(u, m, ref)
	if err != nil {
		return "", nil, 0, err
	}
	if err := os.ensureIncluded(frag, ref.alias, src.Relation); err != nil {
		return "", nil, 0, err
	}
	col := columnName(ref.alias, src)
	i := frag.factorOf(col)
	if i < 0 {
		return "", nil, 0, fmt.Errorf("o-sharing: no factor carries %s", col)
	}
	return col, frag, i, nil
}

// mergeFragments materializes the given fragments and products them into one:
// the merged fragment lists their factors in order, and each fragment after
// the first counts one product.
func (os *osharer) mergeFragments(frags []*fragment, m *schema.Mapping) (*fragment, error) {
	merged := &fragment{aliases: make(map[string]bool), included: make(map[string]map[string]bool)}
	for _, f := range frags {
		if !f.materialized() {
			// Materialize untouched single-alias fragments with their covering
			// source relations.
			for a := range f.aliases {
				if err := os.materializeAlias(f, a, m); err != nil {
					return nil, err
				}
			}
		}
		if merged.materialized() {
			os.stats.Record(engine.OpKindProduct, 0, 0)
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

// flatten builds the product of the factors, each cut to its keep list, left
// to right: the one place o-sharing builds product rows.  Under the set bit a
// factor that keeps nothing is an existence bit: an empty one empties the
// product, any other drops out.  With two or more factors left, each is first
// cut to its distinct rows over its keep list, so the product repeats no row.
// When one factor is left it is returned whole — callers address the result by
// column name — and otherwise the result holds exactly the kept columns.  The
// products were counted when their factors were appended, so flatten charges
// the rows it reads and builds and no operator.
func (os *osharer) flatten(factors []*engine.Relation, keeps [][]int) (*engine.Relation, error) {
	var st *engine.Stats
	if os.stats != nil {
		st = engine.NewStats()
		defer os.stats.AddRows(st)
	}
	ctx := os.ec.Ctx()
	var parts []*engine.Relation
	var partKeeps [][]int
	empty := false
	for i, f := range factors {
		if os.set && len(keeps[i]) == 0 && !f.IsEmpty() {
			continue
		}
		empty = empty || f.IsEmpty()
		parts, partKeeps = append(parts, f), append(partKeeps, keeps[i])
	}
	switch len(parts) {
	case 0:
		out := engine.NewRelation("product", nil)
		out.Rows = []engine.Tuple{{}}
		return out, nil
	case 1:
		return parts[0], nil
	}
	if os.set && !empty {
		for i, f := range parts {
			names := make([]string, len(partKeeps[i]))
			for k, j := range partKeeps[i] {
				names[k] = f.Columns[j]
			}
			cut, err := engine.Project(ctx, f, names, st)
			if err != nil {
				return nil, err
			}
			if parts[i], err = engine.Distinct(ctx, cut, st); err != nil {
				return nil, err
			}
			partKeeps[i] = allColumns(parts[i])
		}
	}
	acc, accKeep := parts[0], partKeeps[0]
	for i := 1; i < len(parts); i++ {
		prod, err := engine.ProductKeep(ctx, acc, parts[i], accKeep, partKeeps[i], os.set, st)
		if err != nil {
			return nil, err
		}
		acc, accKeep = prod, allColumns(prod)
	}
	return acc, nil
}

// allColumns is the keep list of every column of rel, in order.
func allColumns(rel *engine.Relation) []int {
	idx := make([]int, len(rel.Columns))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// keepOf returns, for each factor, the positions of its columns among cols.
func keepOf(factors []*engine.Relation, cols []string) [][]int {
	keeps := make([][]int, len(factors))
	for i, f := range factors {
		for j, c := range f.Columns {
			for _, want := range cols {
				if c == want {
					keeps[i] = append(keeps[i], j)
					break
				}
			}
		}
	}
	return keeps
}

// executeOp executes the chosen operator for one mapping partition and returns
// the child e-unit (Steps 15–21 of Algorithm 2).
func (os *osharer) executeOp(u *eUnit, op *targetOp, p *Partition) (*eUnit, error) {
	if p.Representative == nil {
		return nil, fmt.Errorf("o-sharing: partition without representative")
	}
	m := p.Representative
	child := u.clone()
	child.maps = p.Mappings
	child.done[op.id] = true
	ctx := os.ec.Ctx()

	switch op.kind {
	case opSelect:
		ref := op.refs[0]
		src, frag, err := os.sourceColumn(child, m, ref)
		if err != nil {
			return nil, err
		}
		col := columnName(ref.alias, src)
		pred := &engine.ConstPredicate{Column: col, Op: op.sel.Op, Value: op.sel.Value}
		if frag.included[ref.alias][src.Relation] {
			// The column lies in one factor: filter that factor alone.  An
			// untouched one still shares the base rows, so the shared index
			// serves it.
			i := frag.factorOf(col)
			if i < 0 {
				return nil, fmt.Errorf("o-sharing: no factor carries %s", col)
			}
			out, err := engine.IndexedSelect(ctx, frag.factors[i], pred, os.stats, os.indexes)
			if err != nil {
				return nil, err
			}
			frag.factors[i] = out
			return child, nil
		}
		// The fragment does not hold the relation yet: filter the base scan —
		// from the shared index when it serves the predicate — and bring in
		// only what survives, as a new factor.
		scanned, err := os.scan(ref.alias, src.Relation)
		if err != nil {
			return nil, err
		}
		filtered, err := engine.IndexedSelect(ctx, scanned, pred, os.stats, os.indexes)
		if err != nil {
			return nil, err
		}
		os.attach(frag, ref.alias, src.Relation, filtered)
		return child, nil

	case opJoinSelect:
		leftCol, leftFrag, li, err := os.sourceColumnIn(child, m, op.refs[0])
		if err != nil {
			return nil, err
		}
		rightCol, rightFrag, ri, err := os.sourceColumnIn(child, m, op.refs[1])
		if err != nil {
			return nil, err
		}
		if leftFrag == rightFrag {
			// Both operands in one fragment: a selection over the factor
			// carrying both columns, or over the two factors flattened.
			in := leftFrag.factors[li]
			if li != ri {
				live := os.liveColumns(child, op)
				if in, err = os.flatten([]*engine.Relation{in, leftFrag.factors[ri]}, [][]int{live.keep(in), live.keep(leftFrag.factors[ri])}); err != nil {
					return nil, err
				}
			}
			out, err := engine.Select(ctx, in, &engine.ColPredicate{Left: leftCol, Op: op.jsel.Op, Right: rightCol}, os.stats)
			if err != nil {
				return nil, err
			}
			leftFrag.factors[li] = out
			if li != ri {
				leftFrag.factors = leftFrag.without(ri)
			}
			return child, nil
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
		var joined *engine.Relation
		if op.jsel.Op == engine.OpEq {
			// The hash join reads its keys from the inputs, so its output
			// carries only what the operators after this one need.
			after := os.liveColumns(child, nil)
			joined, err = engine.IndexedHashJoinKeep(ctx, lf, rf, leftCol, rightCol,
				after.keep(lf), after.keep(rf), os.set, os.stats, os.indexes)
		} else {
			live := os.liveColumns(child, op)
			os.stats.Record(engine.OpKindProduct, 0, 0)
			joined, err = os.flatten([]*engine.Relation{lf, rf}, [][]int{live.keep(lf), live.keep(rf)})
			if err == nil {
				joined, err = engine.Select(ctx, joined, &engine.ColPredicate{Left: leftCol, Op: op.jsel.Op, Right: rightCol}, os.stats)
			}
		}
		if err != nil {
			return nil, err
		}
		merged.factors = append(leftFrag.factors[:li:li], joined)
		merged.factors = append(merged.factors, leftFrag.factors[li+1:]...)
		merged.factors = append(merged.factors, rightFrag.without(ri)...)
		child.replaceFragments([]*fragment{leftFrag, rightFrag}, merged)
		return child, nil

	case opProduct:
		left := child.fragmentCovering(op.leftAliases)
		right := child.fragmentCovering(op.rightAliases)
		if left == nil || right == nil {
			return nil, fmt.Errorf("o-sharing: product operands not available")
		}
		if left == right {
			// Another operator (a join condition) already merged the operands.
			return child, nil
		}
		merged, err := os.mergeFragments([]*fragment{left, right}, m)
		if err != nil {
			return nil, err
		}
		child.replaceFragments([]*fragment{left, right}, merged)
		return child, nil

	case opFinal:
		// Merge whatever fragments remain into one, and flatten it into the
		// leaf's single factor.
		merged, err := os.mergeFragments(append([]*fragment(nil), child.fragments...), m)
		if err != nil {
			return nil, err
		}
		child.fragments = []*fragment{merged}
		out, err := os.finish(child, op, m, merged)
		if err != nil {
			return nil, err
		}
		merged.factors = []*engine.Relation{out}
		return child, nil
	default:
		return nil, fmt.Errorf("o-sharing: unknown operator kind %v", op.kind)
	}
}

// finish runs the final operator over the merged fragment and returns the
// leaf's rows: the only place a whole fragment is flattened.  A projection
// flattens only the factors carrying its columns (under the set bit, their
// distinct projections); COUNT multiplies the factors' row counts, an exact
// integer, and flattens nothing; any other aggregate flattens its input.
func (os *osharer) finish(u *eUnit, op *targetOp, m *schema.Mapping, merged *fragment) (*engine.Relation, error) {
	ctx := os.ec.Ctx()
	// The final operator's columns, bringing in the relations they need.
	cols := make([]string, len(op.refs))
	for i, ref := range op.refs {
		col, _, _, err := os.sourceColumnIn(u, m, ref)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	switch final := op.final.(type) {
	case nil:
		keeps := make([][]int, len(merged.factors))
		for i, f := range merged.factors {
			keeps[i] = allColumns(f)
		}
		return os.flatten(merged.factors, keeps)
	case *query.Project:
		flat, err := os.flatten(merged.factors, keepOf(merged.factors, cols))
		if err != nil {
			return nil, err
		}
		return engine.Project(ctx, flat, cols, os.stats)
	case *query.Aggregate:
		if final.Func == engine.AggCount {
			n := int64(1)
			for _, f := range merged.factors {
				var ok bool
				if n, ok = mulCount(n, int64(len(f.Rows))); !ok {
					return nil, fmt.Errorf("o-sharing: COUNT over %d factors overflows int64", len(merged.factors))
				}
			}
			os.stats.Record(engine.OpKindAggregate, 0, 1)
			out := engine.NewRelation("count", []string{final.Func.String()})
			out.Rows = []engine.Tuple{{engine.I(n)}}
			return out, nil
		}
		flat, err := os.flatten(merged.factors, keepOf(merged.factors, cols))
		if err != nil {
			return nil, err
		}
		return engine.Aggregate(ctx, flat, final.Func, cols[0], os.stats)
	default:
		return nil, fmt.Errorf("o-sharing: unsupported final operator %T", op.final)
	}
}

// mulCount returns a·b for non-negative counts when it fits in an int64.
func mulCount(a, b int64) (int64, bool) {
	if a != 0 && b > math.MaxInt64/a {
		return 0, false
	}
	return a * b, true
}
