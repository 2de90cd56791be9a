package match

import "math"

// assignmentProblem is a maximum-weight bipartite assignment instance over
// rows (target attributes) and columns (source attributes).  Weights are
// positive; negative infinity marks a forbidden pair.  A row may be left
// unassigned, so every instance is solvable.
//
// The problem keeps the unconstrained weights and one working copy that a
// Murty node's constraints are applied to, together with the solver's
// workspace, so a whole ranking run allocates them once.
type assignmentProblem struct {
	rows, cols int
	base       []float64 // rows × cols unconstrained weights, row-major
	w          []float64 // base under the constraints being solved

	// Shortest-augmenting-path workspace over the n = cols + rows columns
	// (the candidate columns, then one "leave unassigned" column per row),
	// 1-indexed with 0 as the search root.  It is scratch for one row
	// insertion; cur is the state the insertions build up.
	minv []float64
	way  []int
	used []bool
	cur  solverState
}

// solverState is what the solver carries from one row insertion to the
// next: the row duals u, the column duals v, the matching (matchCol[j] is
// the 1-indexed row holding column j, 0 when free) and how many rows have
// been inserted.  Inserting row i reads only the weights of rows 1…i, so a
// state after i rows is valid for every weight matrix that agrees with the
// one it was built on in those rows.
type solverState struct {
	u, v     []float64
	matchCol []int
	rows     int
}

var negInf = math.Inf(-1)

// newAssignmentProblem copies the weight matrix.
func newAssignmentProblem(weights [][]float64) *assignmentProblem {
	rows, cols := len(weights), 0
	if rows > 0 {
		cols = len(weights[0])
	}
	n := cols + rows
	p := &assignmentProblem{
		rows: rows,
		cols: cols,
		base: make([]float64, 0, rows*cols),
		w:    make([]float64, rows*cols),
		minv: make([]float64, n+1),
		way:  make([]int, n+1),
		used: make([]bool, n+1),
		cur:  newSolverState(rows, n),
	}
	for _, row := range weights {
		p.base = append(p.base, row...)
	}
	p.reset()
	return p
}

// newSolverState returns the state of a problem with the given rows and n
// columns (the unassigned ones included) before any row is inserted.
func newSolverState(rows, n int) solverState {
	return solverState{u: make([]float64, rows+1), v: make([]float64, n+1), matchCol: make([]int, n+1)}
}

// clear returns s to the state before any row is inserted.
func (s *solverState) clear() {
	clear(s.u)
	clear(s.v)
	clear(s.matchCol)
	s.rows = 0
}

// copyFrom makes s a copy of o.
func (s *solverState) copyFrom(o *solverState) {
	copy(s.u, o.u)
	copy(s.v, o.v)
	copy(s.matchCol, o.matchCol)
	s.rows = o.rows
}

// reset drops every constraint.
func (p *assignmentProblem) reset() { copy(p.w, p.base) }

// forbid marks a (row, col) pair as unusable.
func (p *assignmentProblem) forbid(row, col int) { p.w[row*p.cols+col] = negInf }

// require confines row to col by forbidding every other candidate in the row
// and every other row in the column; the row may still be left unassigned.
func (p *assignmentProblem) require(row, col int) {
	w := p.w[row*p.cols : (row+1)*p.cols]
	for c := range w {
		if c != col {
			w[c] = negInf
		}
	}
	for r := 0; r < p.rows; r++ {
		if r != row {
			p.w[r*p.cols+col] = negInf
		}
	}
}

// assignment is a solution: assign[row] = col, or -1 when the row is left
// unassigned.  Weight is the total weight of the assigned pairs, summed in
// column order.
type assignment struct {
	assign []int
	weight float64
}

// solve finds a maximum-weight assignment under the current constraints,
// inserting every row from scratch.
func (p *assignmentProblem) solve() assignment {
	p.cur.clear()
	a := assignment{assign: make([]int, p.rows)}
	a.weight = p.finish(a.assign)
	return a
}

// solveFrom finds a maximum-weight assignment under the current constraints
// starting from from, a state whose rows agree with the current weights,
// writes it into dst and returns its weight.
func (p *assignmentProblem) solveFrom(from *solverState, dst []int) float64 {
	p.cur.copyFrom(from)
	return p.finish(dst)
}

// finish inserts the rows p.cur has not seen yet, then writes the matching
// into dst and returns its weight.
func (p *assignmentProblem) finish(dst []int) float64 {
	for p.cur.rows < p.rows {
		p.insert(&p.cur)
	}
	cols := p.cols
	for i := range dst {
		dst[i] = -1
	}
	weight := 0.0
	for j := 1; j <= cols; j++ {
		if i := p.cur.matchCol[j]; i != 0 {
			dst[i-1] = j - 1
			weight += p.w[(i-1)*cols+j-1]
		}
	}
	return weight
}

// insert adds the next row to s with one shortest-augmenting-path search of
// the Hungarian algorithm with potentials (Jonker & Volgenant).  Costs are
// negated weights read in place; a "leave unassigned" column costs 0 to
// every row, and a forbidden pair costs +Inf, so the search never takes it.
// The candidate and the unassigned columns are scanned in two loops, in
// column order, so the comparisons are those of a single scan.
func (p *assignmentProblem) insert(s *solverState) {
	cols := p.cols
	n := cols + p.rows
	u, v, matchCol := s.u, s.v, s.matchCol
	minv, way, used := p.minv, p.way, p.used
	s.rows++
	matchCol[0] = s.rows
	j0 := 0
	for j := range minv {
		minv[j] = math.Inf(1)
		used[j] = false
	}
	for {
		used[j0] = true
		i0 := matchCol[j0]
		w := p.w[(i0-1)*cols : i0*cols]
		ui := u[i0]
		delta := math.Inf(1)
		j1 := 0
		for j := 1; j <= cols; j++ {
			if used[j] {
				continue
			}
			cur := -w[j-1] - ui - v[j] // +Inf when forbidden
			if cur < minv[j] {
				minv[j] = cur
				way[j] = j0
			}
			if minv[j] < delta {
				delta = minv[j]
				j1 = j
			}
		}
		free := 0 - ui
		for j := cols + 1; j <= n; j++ {
			if used[j] {
				continue
			}
			cur := free - v[j]
			if cur < minv[j] {
				minv[j] = cur
				way[j] = j0
			}
			if minv[j] < delta {
				delta = minv[j]
				j1 = j
			}
		}
		for j := 0; j <= n; j++ {
			if used[j] {
				u[matchCol[j]] += delta
				v[j] -= delta
			} else {
				minv[j] -= delta
			}
		}
		j0 = j1
		if matchCol[j0] == 0 {
			break
		}
	}
	for j0 != 0 {
		j1 := way[j0]
		matchCol[j0] = matchCol[j1]
		j0 = j1
	}
}
