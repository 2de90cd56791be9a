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
// kernel reproduces Value.Compare semantics bit for bit, so results never
// depend on whether the vectorized or the naive executor ran.  Predicate is
// sealed: the three shapes compiled here are every predicate there is, and a
// compiled predicate cannot fail — a column that does not resolve is rejected
// once, at compile time.

// vecPredicate evaluates a predicate over a batch of rows.
//
// filterSel appends to dst the indices of the rows satisfying the predicate,
// drawn from src (or from all of rows when src is nil), preserving order.
// Implementations must read src strictly monotonically: callers may pass a
// dst that aliases src's prefix (in-place compaction of a selection vector),
// which is safe exactly because the write position never passes the read
// position.
type vecPredicate interface {
	filterSel(rows []Tuple, src, dst []int32) []int32
}

// compileVecPredicate compiles the predicate into a vectorized kernel against
// the column list, resolving every column reference once via resolve and
// failing, left to right, on the first that does not resolve.
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
		children := make([]vecPredicate, len(n.Children))
		for i, c := range n.Children {
			vp, err := compileVecPredicate(c, resolve, cols)
			if err != nil {
				return nil, err
			}
			children[i] = vp
		}
		return &vecAnd{children: children}, nil
	}
	panic(fmt.Sprintf("engine: unknown predicate %T", p))
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

func (p *vecConst) filterSel(rows []Tuple, src, dst []int32) []int32 {
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
			return dst
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
		return dst

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
			return dst
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
		return dst

	default:
		if src == nil {
			for i := range rows {
				if allow[c.compare(&rows[i][idx])+1] {
					dst = append(dst, int32(i))
				}
			}
			return dst
		}
		for _, i := range src {
			if allow[c.compare(&rows[i][idx])+1] {
				dst = append(dst, i)
			}
		}
		return dst
	}
}

// vecCol is a column-vs-column comparison; the per-row work is one
// Value.Compare, with the position resolution and operator table hoisted.
type vecCol struct {
	li, ri int
	allow  [3]bool
}

func (p *vecCol) filterSel(rows []Tuple, src, dst []int32) []int32 {
	li, ri, allow := p.li, p.ri, p.allow
	if src == nil {
		for i := range rows {
			if allow[rows[i][li].Compare(rows[i][ri])+1] {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range src {
		if allow[rows[i][li].Compare(rows[i][ri])+1] {
			dst = append(dst, i)
		}
	}
	return dst
}

// vecAnd runs its children as successive selection-vector compactions: child
// k filters the survivors of child k-1 in place.  The empty conjunction keeps
// every row.
type vecAnd struct {
	children []vecPredicate
}

func (p *vecAnd) filterSel(rows []Tuple, src, dst []int32) []int32 {
	if len(p.children) == 0 {
		if src == nil {
			for i := range rows {
				dst = append(dst, int32(i))
			}
			return dst
		}
		return append(dst, src...)
	}
	cur := p.children[0].filterSel(rows, src, dst)
	for _, c := range p.children[1:] {
		if len(cur) == 0 {
			return cur
		}
		cur = c.filterSel(rows, cur, cur[:0])
	}
	return cur
}
