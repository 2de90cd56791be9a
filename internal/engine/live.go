package engine

// This file is the required-columns analysis over plans.  Products and joins
// are the operators that build new tuples, and every reformulated query keeps a
// handful of the 19–25 columns their inputs carry, so the plan driver asks,
// for every node, which of its output columns some ancestor reads, and the
// pair-building operators emit only those.  The analysis is by name and needs
// no instance: a node hands each child the names its ancestors read plus the
// names it reads itself, and the child keeps whichever of them resolve against
// its own columns.  A name an ancestor resolves always resolves to the same
// column in the child that provides it (an exact match is the first exact
// match on its side; an unambiguous suffix is unambiguous on its side too), so
// a column that is read is never dropped; a name that resolves nowhere keeps
// nothing and the operator that reads it reports the error against the full
// column list, as it always did.

// colNeed is the set of a plan node's output columns that an ancestor reads,
// by name as the ancestors spell them.  The zero value needs nothing.
//
// set says that every consumer above reads the node's rows as a set: which
// distinct rows there are and the order they are first seen in, never how
// often each occurs.  A plan root run by ExecuteSet carries it; projections,
// selections, products, joins and distincts pass it down, and an aggregate
// clears it (COUNT and SUM count duplicates).  A sharing point — one
// materialization serving every consumer — carries it when every consumer
// does, which only an analysis of set roots (AnalyzeSetLiveColumns) can give.
// Where it is set, a product or join skips the pairs that only repeat a row it
// already built (newPairShape).
type colNeed struct {
	all   bool
	set   bool
	names []string
}

// needAll is the need of a plan root and of every operator that reads whole
// rows.
var needAll = colNeed{all: true}

// with returns the need extended by the names.
func (n colNeed) with(names ...string) colNeed {
	if n.all {
		return n
	}
	out := n.names[:len(n.names):len(n.names)]
	for _, name := range names {
		if !containsName(out, name) {
			out = append(out, name)
		}
	}
	return colNeed{names: out, set: n.set}
}

// whole is the need of an operator that reads whole rows, keeping the set bit.
func (n colNeed) whole() colNeed { return colNeed{all: true, set: n.set} }

func containsName(names []string, name string) bool {
	for _, c := range names {
		if c == name {
			return true
		}
	}
	return false
}

// childNeeds is the per-operator rule: given the columns read from p's output,
// the columns p's children must supply (second is meaningful for products and
// joins only).  A selection adds its predicate's columns and a join its key on
// each side; a projection and an aggregate replace the need by their own
// columns; a distinct and an unknown node read whole rows.  Every operator but
// an aggregate and an unknown node passes the set bit down.
func childNeeds(p Plan, need colNeed) (first, second colNeed) {
	switch n := p.(type) {
	case *SelectPlan:
		return need.with(predicateColumns(n.Pred, nil)...), colNeed{}
	case *ProjectPlan:
		return colNeed{names: n.Columns, set: need.set}, colNeed{}
	case *ProductPlan:
		return need, need
	case *JoinPlan:
		return need.with(n.LeftCol), need.with(n.RightCol)
	case *AggregatePlan:
		if n.Func == AggCount {
			return colNeed{}, colNeed{}
		}
		return colNeed{names: []string{n.Column}}, colNeed{}
	case *DistinctPlan:
		return need.whole(), colNeed{}
	default:
		return needAll, needAll
	}
}

// predicateColumns appends the columns the predicate reads to dst.
func predicateColumns(p Predicate, dst []string) []string {
	switch n := p.(type) {
	case *ConstPredicate:
		return append(dst, n.Column)
	case *ColPredicate:
		return append(dst, n.Left, n.Right)
	case *AndPredicate:
		for _, c := range n.Children {
			dst = predicateColumns(c, dst)
		}
	}
	return dst
}

// LiveColumns is the analysis of a set of plans whose node results are shared
// by signature (the MQO substrate).  Per signature it holds the union of the
// columns every occurrence's ancestors read, so one materialization serves all
// its consumers, and who those consumers are: a signature with more than one
// is a sharing point, the only place a cached executor materializes (plan.go).
// It depends on the plans alone and is immutable once built — compute it once
// per plan set, not per execution.
type LiveColumns struct {
	sigs map[string]*sigInfo
	// nodes finds a node's signature by identity (plan nodes are pointers), so
	// an execution does one lookup per node and formats no signature.
	nodes map[Plan]*sigInfo
}

// sigInfo is what the analysis knows of one signature.
type sigInfo struct {
	sig       string
	need      colNeed
	consumers map[consumer]struct{}
}

// consumer is one reader of a signature's result: child slot `slot` of the
// nodes with signature parent, or — parent nil — the root of analysed plan
// number slot.  Occurrences under one parent signature are one consumer,
// because that parent runs once; two plans with the same root are two.
type consumer struct {
	parent *sigInfo
	slot   int
}

// AnalyzeLiveColumns runs the analysis over plans that will execute against
// one shared PlanCache through ExecuteContext.
func AnalyzeLiveColumns(plans []Plan) *LiveColumns { return analyzeLiveColumns(plans, needAll) }

// AnalyzeSetLiveColumns is AnalyzeLiveColumns for plans that will run through
// ExecuteSet: every root is read as a set, and so is a sharing point all of
// whose consumers read it as one.
func AnalyzeSetLiveColumns(plans []Plan) *LiveColumns {
	return analyzeLiveColumns(plans, colNeed{all: true, set: true})
}

func analyzeLiveColumns(plans []Plan, root colNeed) *LiveColumns {
	l := &LiveColumns{sigs: make(map[string]*sigInfo), nodes: make(map[Plan]*sigInfo)}
	for i, p := range plans {
		l.add(p, root, consumer{slot: i})
	}
	return l
}

func (l *LiveColumns) add(p Plan, need colNeed, by consumer) {
	if p == nil {
		return
	}
	info := l.nodes[p]
	if info == nil {
		sig := p.Signature()
		if info = l.sigs[sig]; info == nil {
			info = &sigInfo{sig: sig, consumers: make(map[consumer]struct{})}
			l.sigs[sig] = info
		}
		l.nodes[p] = info
	}
	// The set bit survives only if every occurrence reads the rows as a set.
	set := need.set && (len(info.consumers) == 0 || info.need.set)
	if need.all {
		info.need = needAll
	} else {
		info.need = info.need.with(need.names...)
	}
	info.need.set = set
	info.consumers[by] = struct{}{}
	// Children are walked with this occurrence's need: the rule distributes
	// over union, so unioning per signature on the way down gives the same
	// sets as deriving them from the merged need.
	first, second := childNeeds(p, need)
	for i, c := range p.Children() {
		childNeed := first
		if i > 0 {
			childNeed = second
		}
		l.add(c, childNeed, consumer{parent: info, slot: i})
	}
}

// colLayout locates a plan node's logical output columns — the full list the
// node produces by name, against which every reference is resolved and which
// error messages print — in the tuples actually built for it.
type colLayout struct {
	cols []string // logical columns
	pos  []int    // tuple position of each logical column, -1 when not built; nil when the tuples carry every column in order
}

// resolve returns the tuple position of the named column, or -1 when the name
// does not resolve against the logical columns.
func (l colLayout) resolve(name string) int {
	j := lookupColumn(l.cols, name)
	if j < 0 {
		return -1
	}
	return l.mustAt(j)
}

// mustAt returns the tuple position of logical column j, which some operator
// is about to read.
func (l colLayout) mustAt(j int) int {
	p := l.at(j)
	if p < 0 {
		// Only a disagreement between childNeeds and the operator that reads
		// the column can get here.
		panic("engine: column " + l.cols[j] + " is read above the operator that dropped it")
	}
	return p
}

// built returns the names of the columns the tuples carry, in tuple order.
func (l colLayout) built() []string {
	if l.pos == nil {
		return l.cols
	}
	out := make([]string, 0, len(l.cols))
	for j, p := range l.pos {
		if p >= 0 {
			out = append(out, l.cols[j])
		}
	}
	return out
}

func (l colLayout) at(j int) int {
	if l.pos == nil {
		return j
	}
	return l.pos[j]
}

// pairLayout lays out the rows of a product or join of left and right whose
// output must supply need: the logical columns are the two sides' in order, a
// column is built when a needed name resolves to it against that full list,
// and the shape gathers exactly the built columns from the two input tuples.
// key is a join's build-side key position in the right tuples, -1 for a
// product; with need's set bit it lets the shape skip repeated pairs.
func pairLayout(left, right colLayout, need colNeed, key int) (pairShape, colLayout) {
	cols := make([]string, 0, len(left.cols)+len(right.cols))
	cols = append(cols, left.cols...)
	cols = append(cols, right.cols...)
	live := make([]bool, len(cols))
	if need.all {
		for j := range live {
			live[j] = true
		}
	} else {
		for _, name := range need.names {
			if j := lookupColumn(cols, name); j >= 0 {
				live[j] = true
			}
		}
	}
	nl := len(left.cols)
	var leftKeep, rightKeep []int
	pos := make([]int, len(cols))
	identity := left.pos == nil && right.pos == nil
	for j := range cols {
		side, keep, k := left, &leftKeep, j
		if j >= nl {
			side, keep, k = right, &rightKeep, j-nl
		}
		at := side.at(k)
		if !live[j] || at < 0 {
			pos[j] = -1
			identity = false
			continue
		}
		pos[j] = len(leftKeep) + len(rightKeep)
		*keep = append(*keep, at)
	}
	if identity {
		pos = nil
	}
	return newPairShape(leftKeep, rightKeep, need.set, key), colLayout{cols: cols, pos: pos}
}
