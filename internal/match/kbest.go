package match

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"github.com/probdb/urm/internal/schema"
)

// KBestOptions controls possible-mapping generation.
type KBestOptions struct {
	// K is the number of possible mappings to generate (the paper's h).
	K int
}

// KBestMappings derives the top-K one-to-one partial mappings from a scored
// correspondence set, ranked by total similarity score, and normalises their
// scores into probabilities (Pr(mi) = score(mi) / Σ score(mj)).  This is the
// mapping-generation procedure of Gal [9] and Cheng et al. [10] that the
// paper assumes as input.
//
// The enumeration uses a maximum-weight bipartite assignment (Hungarian
// algorithm) combined with Murty's ranking algorithm, whose children resume
// from the solver state of the rows their siblings share.  Target attributes
// that have a single unambiguous candidate are factored out before ranking,
// which keeps the assignment problems small for realistic matcher outputs
// where only a handful of attributes are ambiguous.
//
// Fewer than K mappings are returned when the correspondence set does not
// admit K distinct assignments, and also when the ranking repeats an
// assignment: a node may branch on a pair it already requires, and the
// repeat, dropped here by its assignment, still counts towards K (ROADMAP
// item 25).
func KBestMappings(corrs []schema.Correspondence, opts KBestOptions) (schema.MappingSet, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("kbest: K must be positive, got %d", opts.K)
	}
	if len(corrs) == 0 {
		return nil, fmt.Errorf("kbest: no correspondences")
	}
	for _, c := range corrs {
		if c.Score <= 0 {
			return nil, fmt.Errorf("kbest: correspondence %v has non-positive score", c)
		}
	}

	rd := reduce(corrs)
	results := []assignment{{}} // nothing ambiguous: exactly one mapping
	if len(rd.base) > 0 {
		results = murtyKBest(rd.base, opts.K)
	}
	set := rd.mappings(results)
	set.NormalizeProbabilities()
	return set, nil
}

// reduction is a correspondence set as an assignment problem: the weights
// of the ambiguous targets (rows) over the sources they reference (columns),
// and every correspondence a mapping can hold, sorted.
type reduction struct {
	base   [][]float64
	corrs  []candidate // in SortCorrespondences order
	forced int         // how many of corrs every mapping holds
}

// candidate is a correspondence a mapping can hold and the pair of the
// reduced problem it stands for; row is -1 for a forced one.
type candidate struct {
	schema.Correspondence
	row, col int
}

// reduce factors the forced correspondences out of corrs and builds the
// assignment problem over the rest.
func reduce(corrs []schema.Correspondence) reduction {
	// Index target (row) and source (column) attributes.
	rowIdx := make(map[schema.Attribute]int)
	colIdx := make(map[schema.Attribute]int)
	var rows, cols []schema.Attribute
	for _, c := range corrs {
		if _, ok := rowIdx[c.Target]; !ok {
			rowIdx[c.Target] = len(rows)
			rows = append(rows, c.Target)
		}
		if _, ok := colIdx[c.Source]; !ok {
			colIdx[c.Source] = len(cols)
			cols = append(cols, c.Source)
		}
	}

	// Candidate lists per row and per column.
	type cand struct {
		col   int
		score float64
	}
	rowCands := make([][]cand, len(rows))
	colRows := make(map[int]map[int]bool) // col -> set of rows using it
	weight := make(map[[2]int]float64)
	for _, c := range corrs {
		r, cl := rowIdx[c.Target], colIdx[c.Source]
		key := [2]int{r, cl}
		if old, ok := weight[key]; !ok || c.Score > old {
			if !ok {
				rowCands[r] = append(rowCands[r], cand{col: cl, score: c.Score})
			}
			weight[key] = c.Score
		}
		if colRows[cl] == nil {
			colRows[cl] = make(map[int]bool)
		}
		colRows[cl][r] = true
	}

	// Factor out forced edges: rows with a single candidate whose column is not
	// wanted by any other row are part of every mapping.
	var rd reduction
	ambiguousRows := make([]int, 0, len(rows))
	for r, cands := range rowCands {
		if len(cands) == 1 && len(colRows[cands[0].col]) == 1 {
			c := schema.Correspondence{Target: rows[r], Source: cols[cands[0].col], Score: weight[[2]int{r, cands[0].col}]}
			rd.corrs = append(rd.corrs, candidate{Correspondence: c, row: -1})
			continue
		}
		ambiguousRows = append(ambiguousRows, r)
	}
	rd.forced = len(rd.corrs)
	// Build the reduced weight matrix over ambiguous rows and the columns they
	// reference.
	redColIdx := make(map[int]int)
	var redCols []int
	for _, r := range ambiguousRows {
		for _, cd := range rowCands[r] {
			if _, ok := redColIdx[cd.col]; !ok {
				redColIdx[cd.col] = len(redCols)
				redCols = append(redCols, cd.col)
			}
		}
	}
	rd.base = make([][]float64, len(ambiguousRows))
	for i, r := range ambiguousRows {
		rd.base[i] = make([]float64, len(redCols))
		for j := range rd.base[i] {
			rd.base[i][j] = negInf
		}
		for _, cd := range rowCands[r] {
			j := redColIdx[cd.col]
			rd.base[i][j] = cd.score
			c := schema.Correspondence{Target: rows[r], Source: cols[cd.col], Score: weight[[2]int{r, cd.col}]}
			rd.corrs = append(rd.corrs, candidate{Correspondence: c, row: i, col: j})
		}
	}
	slices.SortFunc(rd.corrs, func(a, b candidate) int {
		return schema.CompareCorrespondences(a.Correspondence, b.Correspondence)
	})
	return rd
}

// mappings builds mapping m1, m2, … from each assignment of a ranking that
// is not a repeat of an earlier one.  A mapping's correspondences are the
// forced ones and the assignment's, taken from the sorted candidates, so
// they are in SortCorrespondences order; all of them share one backing
// array.  An assignment is one-to-one by construction, so a mapping skips
// NewMapping's check.
func (rd *reduction) mappings(results []assignment) schema.MappingSet {
	slab := make([]schema.Correspondence, 0, len(results)*(rd.forced+len(rd.base)))
	out := make(schema.MappingSet, 0, len(results))
	seen := make(map[string]struct{}, len(results))
	var key []byte
	for _, a := range results {
		key = key[:0]
		for _, j := range a.assign {
			key = binary.AppendVarint(key, int64(j))
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		start := len(slab)
		for _, c := range rd.corrs {
			if c.row < 0 || a.assign[c.row] == c.col {
				slab = append(slab, c.Correspondence)
			}
		}
		out = append(out, &schema.Mapping{ID: "m" + strconv.Itoa(len(out)+1), Correspondences: slab[start:len(slab):len(slab)]})
	}
	return out
}

// murtyNode is a sub-problem of Murty's partition together with the weight
// of its best solution; the solution itself lies in the ranker's assignment
// slab under the node's index.  A child holds only what it adds to its
// parent: it forbids the pair (row, col) of the parent's best assignment and
// requires the parent's pairs in the rows before row.  The root has no
// parent (-1) and no constraint.
type murtyNode struct {
	parent, row, col int
	weight           float64
}

// murtyRanker is one ranking run: the problem and its workspace, every node
// solved so far in one slice and their best assignments in one slab, and
// the queue of unexpanded nodes.
type murtyRanker struct {
	p      *assignmentProblem
	nodes  []murtyNode
	assign []int // node i's best assignment is assign[i*rows : (i+1)*rows]
	queue  []int // max-heap of node indices by weight
	prefix solverState
}

// best returns node i's best assignment.
func (m *murtyRanker) best(i int) []int {
	rows := m.p.rows
	return m.assign[i*rows : (i+1)*rows : (i+1)*rows]
}

// branch solves the node's child that forbids (row, col), under the
// constraints applied now, from the prefix state, and queues it unless it
// assigns no row.
func (m *murtyRanker) branch(node, row, col int) {
	rows, i := m.p.rows, len(m.nodes)
	m.assign = slices.Grow(m.assign, rows)[:(i+1)*rows]
	weight := m.p.solveFrom(&m.prefix, m.best(i))
	if !hasAssignment(m.best(i)) {
		m.assign = m.assign[:i*rows]
		return
	}
	m.nodes = append(m.nodes, murtyNode{parent: node, row: row, col: col, weight: weight})
	m.push(i)
}

// constrain applies node's constraints, and its ancestors', to the working
// weights.
func (m *murtyRanker) constrain(node int) {
	m.p.reset()
	for n := m.nodes[node]; n.parent >= 0; n = m.nodes[n.parent] {
		m.p.forbid(n.row, n.col)
		for r, c := range m.best(n.parent)[:n.row] {
			if c >= 0 {
				m.p.require(r, c)
			}
		}
	}
}

// push and pop keep the queue a max-heap on weight with container/heap's
// sift order, so nodes of equal weight leave it in the order they always
// have.
func (m *murtyRanker) push(node int) {
	m.queue = append(m.queue, node)
	for j := len(m.queue) - 1; ; {
		i := (j - 1) / 2
		if i == j || !m.less(j, i) {
			break
		}
		m.queue[i], m.queue[j] = m.queue[j], m.queue[i]
		j = i
	}
}

func (m *murtyRanker) pop() int {
	q := m.queue
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && m.less(j2, j1) {
			j = j2
		}
		if !m.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	m.queue = q[:n]
	return q[n]
}

func (m *murtyRanker) less(i, j int) bool {
	return m.nodes[m.queue[i]].weight > m.nodes[m.queue[j]].weight
}

// maxReservedExpansions bounds the node storage murtyKBest reserves up front,
// so a large k over a problem with few assignments does not reserve room it
// never uses.
const maxReservedExpansions = 1024

// murtyKBest enumerates up to k maximum-weight assignments of the weight
// matrix in non-increasing weight order using Murty's partitioning scheme.
// One problem and its workspace serve the whole run: a popped node's
// constraints are applied once, and each child forbids its pair, is solved,
// and then requires that pair for the next sibling.
//
// A child is solved from the solver state its siblings share.  In child r
// every earlier row is required to the node's best column, which leaves
// that row one usable column at its unconstrained weight whatever else the
// node forbids; the solver inserts rows in order and row i reads only rows
// up to i.  So the state after those r rows depends only on the node's best
// columns in them: it is computed once per node, extended a row at a time
// as the siblings advance, and each child inserts only its own rows onward.
// The arithmetic is that of a from-scratch solve, in the same order.  The
// prefix stops at the first row the best leaves unassigned: that row is not
// required, so later siblings see it differently.
func murtyKBest(weights [][]float64, k int) []assignment {
	p := newAssignmentProblem(weights)
	// Each expansion adds at most one child per row: room for the root and
	// the children of up to maxReservedExpansions expansions is reserved, a
	// longer ranking grows by append.
	nodes := 1 + min(k, maxReservedExpansions)*p.rows
	m := &murtyRanker{
		p:      p,
		nodes:  make([]murtyNode, 1, nodes),
		assign: make([]int, p.rows, nodes*p.rows),
		queue:  make([]int, 1, nodes), // the root, node 0
		prefix: newSolverState(p.rows, p.cols+p.rows),
	}
	m.nodes[0] = murtyNode{parent: -1, weight: p.solveFrom(&m.prefix, m.assign)}

	var popped []int
	for len(m.queue) > 0 && len(popped) < k {
		node := m.pop()
		popped = append(popped, node)
		m.constrain(node)
		best := m.best(node)
		shared := slices.Index(best, -1)
		if shared < 0 {
			shared = len(best)
		}
		m.prefix.clear()
		for r, c := range best {
			if c < 0 {
				continue
			}
			for m.prefix.rows < min(r, shared) {
				p.insert(&m.prefix)
			}
			p.forbid(r, c)
			m.branch(node, r, c)
			// The node's best uses (r, c), so the pair is not forbidden
			// under the node's own constraints.
			p.w[r*p.cols+c] = p.base[r*p.cols+c]
			p.require(r, c)
		}
	}
	results := make([]assignment, len(popped))
	for i, node := range popped {
		results[i] = assignment{assign: m.best(node), weight: m.nodes[node].weight}
	}
	return results
}

func hasAssignment(assign []int) bool {
	for _, c := range assign {
		if c >= 0 {
			return true
		}
	}
	return false
}
