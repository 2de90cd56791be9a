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

	// Shortest-augmenting-path workspace over the rows and the n = cols +
	// rows columns (the candidate columns, then one "leave unassigned"
	// column per row), 1-indexed with 0 as the search root.
	u, v, minv    []float64
	matchCol, way []int
	used          []bool
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
		rows:     rows,
		cols:     cols,
		base:     make([]float64, 0, rows*cols),
		w:        make([]float64, rows*cols),
		u:        make([]float64, rows+1),
		v:        make([]float64, n+1),
		minv:     make([]float64, n+1),
		matchCol: make([]int, n+1),
		way:      make([]int, n+1),
		used:     make([]bool, n+1),
	}
	for _, row := range weights {
		p.base = append(p.base, row...)
	}
	p.reset()
	return p
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

// solve finds a maximum-weight assignment under the current constraints with
// the shortest-augmenting-path Hungarian algorithm with potentials (Jonker &
// Volgenant), inserting the rows in order.  Costs are negated weights read in
// place; a "leave unassigned" column costs 0 to every row, and a forbidden
// pair costs +Inf, so the search never takes it.
func (p *assignmentProblem) solve() assignment {
	rows, cols := p.rows, p.cols
	n := cols + rows
	u, v, minv, matchCol, way, used := p.u, p.v, p.minv, p.matchCol, p.way, p.used
	clear(u)
	clear(v)
	clear(matchCol)
	for i := 1; i <= rows; i++ {
		matchCol[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := matchCol[j0]
			w := p.w[(i0-1)*cols : i0*cols]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cost := 0.0
				if j <= cols {
					cost = -w[j-1] // +Inf when forbidden
				}
				cur := cost - u[i0] - v[j]
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

	a := assignment{assign: make([]int, rows)}
	for i := range a.assign {
		a.assign[i] = -1
	}
	for j := 1; j <= cols; j++ {
		if i := matchCol[j]; i != 0 {
			a.assign[i-1] = j - 1
			a.weight += p.w[(i-1)*cols+j-1]
		}
	}
	return a
}
