package match

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the ranker as it was before children resumed from a
// shared prefix: every child is solved from scratch on one working matrix,
// nodes and assignments are separate objects.  It is the oracle the resumed
// ranker must reproduce bit for bit — the same assignments, in the same
// order, with the same weight bits.

// oracleProblem is the from-scratch assignment problem.
type oracleProblem struct {
	rows, cols    int
	base, w       []float64
	u, v, minv    []float64
	matchCol, way []int
	used          []bool
}

func newOracleProblem(weights [][]float64) *oracleProblem {
	rows, cols := len(weights), 0
	if rows > 0 {
		cols = len(weights[0])
	}
	n := cols + rows
	p := &oracleProblem{
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

func (p *oracleProblem) reset() { copy(p.w, p.base) }

func (p *oracleProblem) forbid(row, col int) { p.w[row*p.cols+col] = negInf }

func (p *oracleProblem) require(row, col int) {
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

func (p *oracleProblem) solve() assignment {
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
					cost = -w[j-1]
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

type oracleNode struct {
	parent   *oracleNode
	row, col int
	best     assignment
}

func (p *oracleProblem) constrain(node *oracleNode) {
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

type oracleQueue []*oracleNode

func (q oracleQueue) Len() int            { return len(q) }
func (q oracleQueue) Less(i, j int) bool  { return q[i].best.weight > q[j].best.weight }
func (q oracleQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x interface{}) { *q = append(*q, x.(*oracleNode)) }
func (q *oracleQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// oracleKBest is Murty's ranking with every child solved from scratch.
func oracleKBest(weights [][]float64, k int) []assignment {
	p := newOracleProblem(weights)
	queue := &oracleQueue{{best: p.solve()}}

	var results []assignment
	for queue.Len() > 0 && len(results) < k {
		node := heap.Pop(queue).(*oracleNode)
		results = append(results, node.best)
		p.constrain(node)
		for r, c := range node.best.assign {
			if c < 0 {
				continue
			}
			p.forbid(r, c)
			if a := p.solve(); oracleHasAssignment(a) {
				heap.Push(queue, &oracleNode{parent: node, row: r, col: c, best: a})
			}
			p.w[r*p.cols+c] = p.base[r*p.cols+c]
			p.require(r, c)
		}
	}
	return results
}

func oracleHasAssignment(a assignment) bool {
	for _, c := range a.assign {
		if c >= 0 {
			return true
		}
	}
	return false
}

// diffRankings returns a description of the first rank at which got and
// want differ — in length, assignment or weight bits — or "" when they are
// identical.
func diffRankings(got, want []assignment) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		g, w := got[i], want[i]
		if fmt.Sprint(g.assign) != fmt.Sprint(w.assign) {
			return fmt.Sprintf("rank %d: assignment %v, oracle %v", i, g.assign, w.assign)
		}
		if math.Float64bits(g.weight) != math.Float64bits(w.weight) {
			return fmt.Sprintf("rank %d: weight %v (%#x), oracle %v (%#x)", i, g.weight, math.Float64bits(g.weight), w.weight, math.Float64bits(w.weight))
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d ranks, oracle %d", len(got), len(want))
	}
	return ""
}

// tieHeavyWeights draws a rows × cols matrix whose cells are forbidden with
// probability pForbid and otherwise take one of levels scores, so equal
// scores, rows with no usable candidate and optima left partly unassigned
// are all common.
func tieHeavyWeights(rng *rand.Rand, rows, cols, levels int, pForbid float64) [][]float64 {
	w := make([][]float64, rows)
	for i := range w {
		w[i] = make([]float64, cols)
		for j := range w[i] {
			if rng.Float64() < pForbid {
				w[i][j] = negInf
			} else {
				w[i][j] = float64(rng.Intn(levels)+1) / float64(levels)
			}
		}
	}
	return w
}

// TestMurtyMatchesOracle compares the resumed ranker with the from-scratch
// oracle rank by rank on seeded random matrices: ties, forbidden pairs,
// empty rows, more rows than columns and the reverse, and K past the number
// of distinct assignments.
func TestMurtyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for n := 0; n < 3000; n++ {
		rows, cols := rng.Intn(8)+1, rng.Intn(9)+1
		w := tieHeavyWeights(rng, rows, cols, rng.Intn(4)+1, []float64{0, 0.2, 0.5, 0.8}[rng.Intn(4)])
		k := rng.Intn(60) + 1
		if d := diffRankings(murtyKBest(w, k), oracleKBest(w, k)); d != "" {
			t.Fatalf("%v, K = %d: %s", w, k, d)
		}
	}
}

// FuzzMurtyResume diffs the resumed ranker against the from-scratch oracle
// on a fuzzed matrix: the first two bytes give its shape, each further byte
// a cell (a forbidden pair, or one of eight scores that sum inexactly), and
// k the ranking length.
func FuzzMurtyResume(f *testing.F) {
	f.Add([]byte{2, 2, 9, 8, 8, 1}, uint8(5))
	f.Add([]byte{3, 3, 9, 6, 0, 7, 8, 3, 0, 5, 4}, uint8(20))
	f.Add([]byte{5, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(60))
	f.Add([]byte{4, 6, 0, 0, 0, 0, 0, 0, 3, 3, 0, 3, 0, 3}, uint8(30))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		if len(data) < 2 {
			return
		}
		rows, cols := int(data[0])%8+1, int(data[1])%8+1
		cells := data[2:]
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				b := byte(0)
				if at := i*cols + j; at < len(cells) {
					b = cells[at]
				}
				if b%9 == 0 {
					w[i][j] = negInf
				} else {
					w[i][j] = float64(b%9) / 10
				}
			}
		}
		k := int(kRaw)%80 + 1
		if d := diffRankings(murtyKBest(w, k), oracleKBest(w, k)); d != "" {
			t.Fatalf("%v, K = %d: %s", w, k, d)
		}
	})
}
