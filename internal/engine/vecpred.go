package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// This file holds the vectorized predicate kernels of the batch pipeline.  A
// vecPredicate filters a whole batch per call: instead of one interface
// dispatch and one Value.Compare per row, the common predicate shapes —
// column-vs-constant comparisons, and conjunctions of them — run as tight
// loops over the column with the constant's conversions hoisted out.  Every
// kernel reproduces Value.Compare semantics bit for bit; shapes the
// vectorizer does not know (OR, NOT, foreign Predicate implementations) fall
// back to the bound row-at-a-time evaluator inside the batch loop, so results
// never depend on which path ran.

// vecPredicate evaluates a predicate over a batch of rows.
//
// filterSel appends to dst the indices of the rows satisfying the predicate,
// drawn from src (or from all of rows when src is nil), preserving order.
// Implementations must read src strictly monotonically: callers may pass a
// dst that aliases src's prefix (in-place compaction of a selection vector),
// which is safe exactly because the write position never passes the read
// position.
type vecPredicate interface {
	filterSel(rows []Tuple, src, dst []int32) ([]int32, error)
}

// compileVecPredicate compiles the predicate into a vectorized kernel against
// the column list.  It resolves columns in the same order and fails with the
// same messages as bindPredicate, so a predicate is rejected identically
// whether a plan binds it vectorized or row by row.
func compileVecPredicate(p Predicate, resolve func(string) int, cols []string) (vecPredicate, error) {
	switch n := p.(type) {
	case *ConstPredicate:
		idx := resolve(n.Column)
		if idx < 0 {
			return nil, fmt.Errorf("predicate %s: column %q not found in %v", n, n.Column, cols)
		}
		return newVecConst(idx, n.Op, n.Value), nil
	case *ColPredicate:
		li := resolve(n.Left)
		if li < 0 {
			return nil, fmt.Errorf("predicate %s: column %q not found in %v", n, n.Left, cols)
		}
		ri := resolve(n.Right)
		if ri < 0 {
			return nil, fmt.Errorf("predicate %s: column %q not found in %v", n, n.Right, cols)
		}
		return &vecCol{li: li, ri: ri, allow: allowMask(n.Op)}, nil
	case *AndPredicate:
		if len(n.Children) == 0 {
			// Degenerate conjunction: everything passes, as under boundAnd.
			bp, err := bindPredicate(p, resolve, cols)
			if err != nil {
				return nil, err
			}
			return &vecRowPred{pred: bp}, nil
		}
		children := make([]vecPredicate, len(n.Children))
		for i, c := range n.Children {
			vp, err := compileVecPredicate(c, resolve, cols)
			if err != nil {
				return nil, err
			}
			children[i] = vp
		}
		return &vecAnd{children: children}, nil
	default:
		// OR, NOT and foreign predicate implementations evaluate row by row
		// through the bound evaluator; bindPredicate recurses in the same
		// order as above, so bind-time errors are identical.
		bp, err := bindPredicate(p, resolve, cols)
		if err != nil {
			return nil, err
		}
		return &vecRowPred{pred: bp}, nil
	}
}

// allowMask precomputes the operator's acceptance per comparison outcome:
// allow[cmp+1] reports whether Compare result cmp (-1, 0, +1) satisfies op.
func allowMask(op CompareOp) [3]bool {
	return [3]bool{op.Matches(-1), op.Matches(0), op.Matches(1)}
}

// constComparer compares row values against one constant with the constant's
// kind tests, float conversion and rendering hoisted out of the loop.
// compare(v) returns exactly Value.Compare(*v, constant).
type constComparer struct {
	isNull  bool
	isStr   bool
	str     string
	f       float64
	floatOK bool
	render  string
}

func newConstComparer(v Value) constComparer {
	c := constComparer{
		isNull: v.Kind == KindNull,
		isStr:  v.Kind == KindString,
		str:    v.Str,
		render: v.String(),
	}
	c.f, c.floatOK = v.AsFloat()
	return c
}

func (c *constComparer) compare(v *Value) int {
	if v.Kind == KindNull || c.isNull {
		if v.Kind == KindNull {
			if c.isNull {
				return 0
			}
			return -1
		}
		return 1
	}
	if v.Kind == KindString && c.isStr {
		return strings.Compare(v.Str, c.str)
	}
	var vf float64
	vok := false
	switch v.Kind {
	case KindInt:
		vf, vok = float64(v.Int), true
	case KindFloat:
		vf, vok = v.Float, true
	case KindString:
		if f, err := strconv.ParseFloat(v.Str, 64); err == nil {
			vf, vok = f, true
		}
	}
	if vok && c.floatOK {
		switch {
		case vf < c.f:
			return -1
		case vf > c.f:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(v.String(), c.render)
}

// vecConst is a column-vs-constant comparison with specialized inner loops:
// numeric constants compare int/float rows inline, non-numeric string
// constants under =/!= reduce to one string equality per row, and everything
// else goes through the hoisted comparer.
type vecConst struct {
	idx   int
	allow [3]bool
	cmp   constComparer
}

func newVecConst(idx int, op CompareOp, v Value) *vecConst {
	return &vecConst{idx: idx, allow: allowMask(op), cmp: newConstComparer(v)}
}

func (p *vecConst) filterSel(rows []Tuple, src, dst []int32) ([]int32, error) {
	idx, allow := p.idx, p.allow
	c := &p.cmp
	switch {
	case !c.isNull && !c.isStr && c.floatOK:
		// Numeric constant.  The default branch of the float switch covers
		// equality and NaN operands alike: NaN comparisons are all false, and
		// Value.Compare returns 0 for them too.
		cf := c.f
		allowLt, allowEq, allowGt := allow[0], allow[1], allow[2]
		if src == nil {
			for i := range rows {
				v := &rows[i][idx]
				var keep bool
				switch v.Kind {
				case KindInt:
					f := float64(v.Int)
					switch {
					case f < cf:
						keep = allowLt
					case f > cf:
						keep = allowGt
					default:
						keep = allowEq
					}
				case KindFloat:
					f := v.Float
					switch {
					case f < cf:
						keep = allowLt
					case f > cf:
						keep = allowGt
					default:
						keep = allowEq
					}
				case KindNull:
					keep = allowLt // NULL sorts before every non-NULL
				default:
					keep = allow[c.compare(v)+1]
				}
				if keep {
					dst = append(dst, int32(i))
				}
			}
			return dst, nil
		}
		for _, i := range src {
			v := &rows[i][idx]
			var keep bool
			switch v.Kind {
			case KindInt:
				f := float64(v.Int)
				switch {
				case f < cf:
					keep = allowLt
				case f > cf:
					keep = allowGt
				default:
					keep = allowEq
				}
			case KindFloat:
				f := v.Float
				switch {
				case f < cf:
					keep = allowLt
				case f > cf:
					keep = allowGt
				default:
					keep = allowEq
				}
			case KindNull:
				keep = allowLt
			default:
				keep = allow[c.compare(v)+1]
			}
			if keep {
				dst = append(dst, i)
			}
		}
		return dst, nil

	case c.isStr && !c.floatOK && allow[0] == allow[2]:
		// Equality-shaped comparison (=, !=) against a string no number can
		// render as: only string rows can compare equal, so the loop is one
		// kind test and one string equality.  (Numeric renderings always
		// parse back as floats, and NULL is never equal to a non-NULL.)
		s := c.str
		eqKeep, neKeep := allow[1], allow[0]
		if src == nil {
			for i := range rows {
				v := &rows[i][idx]
				keep := neKeep
				if v.Kind == KindString && v.Str == s {
					keep = eqKeep
				}
				if keep {
					dst = append(dst, int32(i))
				}
			}
			return dst, nil
		}
		for _, i := range src {
			v := &rows[i][idx]
			keep := neKeep
			if v.Kind == KindString && v.Str == s {
				keep = eqKeep
			}
			if keep {
				dst = append(dst, i)
			}
		}
		return dst, nil

	default:
		if src == nil {
			for i := range rows {
				if allow[c.compare(&rows[i][idx])+1] {
					dst = append(dst, int32(i))
				}
			}
			return dst, nil
		}
		for _, i := range src {
			if allow[c.compare(&rows[i][idx])+1] {
				dst = append(dst, i)
			}
		}
		return dst, nil
	}
}

// vecCol is a column-vs-column comparison; the per-row work is one
// Value.Compare, with the position resolution and operator table hoisted.
type vecCol struct {
	li, ri int
	allow  [3]bool
}

func (p *vecCol) filterSel(rows []Tuple, src, dst []int32) ([]int32, error) {
	li, ri, allow := p.li, p.ri, p.allow
	if src == nil {
		for i := range rows {
			if allow[rows[i][li].Compare(rows[i][ri])+1] {
				dst = append(dst, int32(i))
			}
		}
		return dst, nil
	}
	for _, i := range src {
		if allow[rows[i][li].Compare(rows[i][ri])+1] {
			dst = append(dst, i)
		}
	}
	return dst, nil
}

// vecAnd runs its children as successive selection-vector compactions: child
// k filters the survivors of child k-1 in place.  Evaluation is child-major
// rather than row-major, which changes nothing observable for the engine's
// own predicate types (they cannot fail at evaluation time); a foreign
// child's evaluation error may surface for a different row than under
// row-major order.
type vecAnd struct {
	children []vecPredicate
}

func (p *vecAnd) filterSel(rows []Tuple, src, dst []int32) ([]int32, error) {
	cur, err := p.children[0].filterSel(rows, src, dst)
	if err != nil {
		return nil, err
	}
	for _, c := range p.children[1:] {
		if len(cur) == 0 {
			return cur, nil
		}
		cur, err = c.filterSel(rows, cur, cur[:0])
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// vecRowPred adapts a bound row-at-a-time predicate into the batch loop — the
// fallback for OR, NOT and foreign predicate implementations.
type vecRowPred struct {
	pred boundPredicate
}

func (p *vecRowPred) filterSel(rows []Tuple, src, dst []int32) ([]int32, error) {
	if src == nil {
		for i := range rows {
			ok, err := p.pred.eval(rows[i])
			if err != nil {
				return nil, err
			}
			if ok {
				dst = append(dst, int32(i))
			}
		}
		return dst, nil
	}
	for _, i := range src {
		ok, err := p.pred.eval(rows[i])
		if err != nil {
			return nil, err
		}
		if ok {
			dst = append(dst, i)
		}
	}
	return dst, nil
}
