package match

import (
	"container/heap"
	"fmt"

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
// algorithm) combined with Murty's ranking algorithm.  Target attributes that
// have a single unambiguous candidate are factored out before ranking, which
// keeps the assignment problems small for realistic matcher outputs where
// only a handful of attributes are ambiguous.
//
// Fewer than K mappings are returned when the correspondence set does not
// admit K distinct assignments, and also when the ranking repeats an
// assignment: a node may branch on a pair it already requires, and the
// repeat still counts towards K (ROADMAP item 25).
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
	forced := make([]schema.Correspondence, 0)
	ambiguousRows := make([]int, 0, len(rows))
	for r, cands := range rowCands {
		if len(cands) == 1 && len(colRows[cands[0].col]) == 1 {
			forced = append(forced, schema.Correspondence{
				Target: rows[r],
				Source: cols[cands[0].col],
				Score:  weight[[2]int{r, cands[0].col}],
			})
			continue
		}
		ambiguousRows = append(ambiguousRows, r)
	}
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
	base := make([][]float64, len(ambiguousRows))
	for i, r := range ambiguousRows {
		base[i] = make([]float64, len(redCols))
		for j := range base[i] {
			base[i][j] = negInf
		}
		for _, cd := range rowCands[r] {
			base[i][redColIdx[cd.col]] = cd.score
		}
	}

	toMapping := func(id string, a assignment) *schema.Mapping {
		cs := make([]schema.Correspondence, 0, len(forced)+len(a.assign))
		cs = append(cs, forced...)
		for i, j := range a.assign {
			if j < 0 {
				continue
			}
			r := ambiguousRows[i]
			cl := redCols[j]
			cs = append(cs, schema.Correspondence{Target: rows[r], Source: cols[cl], Score: weight[[2]int{r, cl}]})
		}
		schema.SortCorrespondences(cs)
		m, err := schema.NewMapping(id, cs, 0)
		if err != nil {
			// One-to-one is guaranteed by the assignment structure; a failure
			// here indicates a bug rather than bad input.
			panic(fmt.Sprintf("kbest: generated invalid mapping: %v", err))
		}
		return m
	}

	// Degenerate case: nothing ambiguous — exactly one possible mapping.
	if len(ambiguousRows) == 0 {
		set := schema.MappingSet{toMapping("m1", assignment{})}
		set.NormalizeProbabilities()
		return set, nil
	}

	results := murtyKBest(base, opts.K)
	out := make(schema.MappingSet, 0, len(results))
	seen := make(map[string]bool)
	for _, a := range results {
		m := toMapping(fmt.Sprintf("m%d", len(out)+1), a)
		sig := m.Signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, m)
		if len(out) == opts.K {
			break
		}
	}
	out.NormalizeProbabilities()
	return out, nil
}

// murtyNode is a sub-problem of Murty's partition together with its best
// solution.  A child holds only what it adds to its parent: it forbids the
// pair (row, col) of the parent's best assignment and requires the parent's
// pairs in the rows before row.  The root has no parent and no constraint.
type murtyNode struct {
	parent   *murtyNode
	row, col int
	best     assignment
}

// constrain applies node's constraints, and its ancestors', to the working
// weights.
func (p *assignmentProblem) constrain(node *murtyNode) {
	p.reset()
	for ; node.parent != nil; node = node.parent {
		p.forbid(node.row, node.col)
		for r, c := range node.parent.best.assign[:node.row] {
			if c >= 0 {
				p.require(r, c)
			}
		}
	}
}

// murtyQueue is a max-heap of nodes ordered by solution weight.
type murtyQueue []*murtyNode

func (q murtyQueue) Len() int            { return len(q) }
func (q murtyQueue) Less(i, j int) bool  { return q[i].best.weight > q[j].best.weight }
func (q murtyQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *murtyQueue) Push(x interface{}) { *q = append(*q, x.(*murtyNode)) }
func (q *murtyQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// murtyKBest enumerates up to k maximum-weight assignments of the weight
// matrix in non-increasing weight order using Murty's partitioning scheme.
// One problem and its workspace serve the whole run: a popped node's
// constraints are applied once, and each child forbids its pair, is solved,
// and then requires that pair for the next sibling.
func murtyKBest(weights [][]float64, k int) []assignment {
	p := newAssignmentProblem(weights)
	queue := &murtyQueue{{best: p.solve()}}

	var results []assignment
	for queue.Len() > 0 && len(results) < k {
		node := heap.Pop(queue).(*murtyNode)
		results = append(results, node.best)
		p.constrain(node)
		for r, c := range node.best.assign {
			if c < 0 {
				continue
			}
			p.forbid(r, c)
			if a := p.solve(); hasAssignment(a) {
				heap.Push(queue, &murtyNode{parent: node, row: r, col: c, best: a})
			}
			// The node's best uses (r, c), so the pair is not forbidden
			// under the node's own constraints.
			p.w[r*p.cols+c] = p.base[r*p.cols+c]
			p.require(r, c)
		}
	}
	return results
}

func hasAssignment(a assignment) bool {
	for _, c := range a.assign {
		if c >= 0 {
			return true
		}
	}
	return false
}
