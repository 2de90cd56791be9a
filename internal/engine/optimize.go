package engine

import "strings"

// Optimize applies standard rewrites to a source-query plan so that the
// engine's evaluation of reformulated queries stays tractable at realistic
// data sizes, the way any relational executor would:
//
//   - equality selections over a Cartesian product whose two sides each
//     provide one of the compared columns become hash equi-joins, and
//   - constant selections are pushed below products/joins towards the scan
//     that provides their column.
//
// Optimization never changes the result of a plan, only its evaluation order,
// and it is applied uniformly by every evaluation method so the methods stay
// comparable.
func Optimize(p Plan) Plan {
	if p == nil {
		return nil
	}
	p = optimizeChildren(p)
	switch n := p.(type) {
	case *SelectPlan:
		if cp, ok := n.Pred.(*ColPredicate); ok {
			// First try to sink the whole condition into the single child
			// subtree that provides both columns (e.g. a join condition over
			// one side of an outer Cartesian product), then try converting a
			// product whose sides provide one column each into a hash join.
			if pushed := pushDownCol(n.Child, cp); pushed != nil {
				return pushed
			}
			if cp.Op == OpEq {
				if prod, ok := n.Child.(*ProductPlan); ok {
					if join := tryJoin(prod, cp); join != nil {
						return Optimize(join)
					}
				}
			}
		}
		if cp, ok := n.Pred.(*ConstPredicate); ok {
			if pushed := pushDown(n.Child, cp); pushed != nil {
				return pushed
			}
		}
		return n
	default:
		return p
	}
}

// pushDownCol pushes a column-column selection into the child subtree that
// provides both of its columns.  It returns nil when no single child does.
func pushDownCol(child Plan, cp *ColPredicate) Plan {
	both := func(p Plan) bool { return providesColumn(p, cp.Left) && providesColumn(p, cp.Right) }
	switch n := child.(type) {
	case *ProductPlan:
		if both(n.Left) {
			return &ProductPlan{Left: Optimize(&SelectPlan{Pred: cp, Child: n.Left}), Right: n.Right}
		}
		if both(n.Right) {
			return &ProductPlan{Left: n.Left, Right: Optimize(&SelectPlan{Pred: cp, Child: n.Right})}
		}
	case *JoinPlan:
		if both(n.Left) {
			return &JoinPlan{LeftCol: n.LeftCol, RightCol: n.RightCol,
				Left: Optimize(&SelectPlan{Pred: cp, Child: n.Left}), Right: n.Right}
		}
		if both(n.Right) {
			return &JoinPlan{LeftCol: n.LeftCol, RightCol: n.RightCol,
				Left: n.Left, Right: Optimize(&SelectPlan{Pred: cp, Child: n.Right})}
		}
	case *SelectPlan:
		if pushed := pushDownCol(n.Child, cp); pushed != nil {
			return &SelectPlan{Pred: n.Pred, Child: pushed}
		}
	}
	return nil
}

// optimizeChildren optimizes the node's children, copying the node only when
// one of them changed, so a subtree already in optimized form is kept as it
// is rather than rebuilt each time a rewrite above re-optimizes it.
func optimizeChildren(p Plan) Plan {
	switch n := p.(type) {
	case *SelectPlan:
		if c := Optimize(n.Child); c != n.Child {
			return &SelectPlan{Pred: n.Pred, Child: c}
		}
	case *ProjectPlan:
		if c := Optimize(n.Child); c != n.Child {
			return &ProjectPlan{Columns: n.Columns, Child: c}
		}
	case *ProductPlan:
		if l, r := Optimize(n.Left), Optimize(n.Right); l != n.Left || r != n.Right {
			return &ProductPlan{Left: l, Right: r}
		}
	case *JoinPlan:
		if l, r := Optimize(n.Left), Optimize(n.Right); l != n.Left || r != n.Right {
			return &JoinPlan{LeftCol: n.LeftCol, RightCol: n.RightCol, Left: l, Right: r}
		}
	case *AggregatePlan:
		if c := Optimize(n.Child); c != n.Child {
			return &AggregatePlan{Func: n.Func, Column: n.Column, Child: c}
		}
	case *DistinctPlan:
		if c := Optimize(n.Child); c != n.Child {
			return &DistinctPlan{Child: c}
		}
	}
	return p
}

// tryJoin converts σ[left=right](A × B) into a hash join when A provides one
// column and B the other.
func tryJoin(prod *ProductPlan, cp *ColPredicate) Plan {
	leftHasL := providesColumn(prod.Left, cp.Left)
	rightHasR := providesColumn(prod.Right, cp.Right)
	if leftHasL && rightHasR {
		return &JoinPlan{LeftCol: cp.Left, RightCol: cp.Right, Left: prod.Left, Right: prod.Right}
	}
	leftHasR := providesColumn(prod.Left, cp.Right)
	rightHasL := providesColumn(prod.Right, cp.Left)
	if leftHasR && rightHasL {
		return &JoinPlan{LeftCol: cp.Right, RightCol: cp.Left, Left: prod.Left, Right: prod.Right}
	}
	return nil
}

// pushDown pushes a constant selection below products and joins to the child
// that provides its column.  It returns nil when the predicate cannot be
// pushed (the caller keeps the selection where it is).
func pushDown(child Plan, cp *ConstPredicate) Plan {
	switch n := child.(type) {
	case *ProductPlan:
		if providesColumn(n.Left, cp.Column) {
			return &ProductPlan{Left: Optimize(&SelectPlan{Pred: cp, Child: n.Left}), Right: n.Right}
		}
		if providesColumn(n.Right, cp.Column) {
			return &ProductPlan{Left: n.Left, Right: Optimize(&SelectPlan{Pred: cp, Child: n.Right})}
		}
	case *JoinPlan:
		if providesColumn(n.Left, cp.Column) {
			return &JoinPlan{LeftCol: n.LeftCol, RightCol: n.RightCol,
				Left: Optimize(&SelectPlan{Pred: cp, Child: n.Left}), Right: n.Right}
		}
		if providesColumn(n.Right, cp.Column) {
			return &JoinPlan{LeftCol: n.LeftCol, RightCol: n.RightCol,
				Left: n.Left, Right: Optimize(&SelectPlan{Pred: cp, Child: n.Right})}
		}
	case *SelectPlan:
		// Push past another selection so stacked filters can each reach their
		// own scan.
		if pushed := pushDown(n.Child, cp); pushed != nil {
			return &SelectPlan{Pred: n.Pred, Child: pushed}
		}
		// Keep constant selections adjacent to their scan: slide the constant
		// below a non-constant selection over a scan, so the index-eligible
		// select*(scan) shape survives stacking.  Conjunctive filters commute,
		// so only intermediate row counts change, never the result.
		if _, constLevel := constPreds(n.Pred); !constLevel &&
			providesColumn(n.Child, cp.Column) && selectStackOverScan(n.Child) {
			return &SelectPlan{Pred: n.Pred, Child: &SelectPlan{Pred: cp, Child: n.Child}}
		}
	}
	return nil
}

// selectStackOverScan reports whether the plan is a (possibly empty) chain of
// selections ending at a scan — the shape the index-aware compiler serves from
// a per-column index.
func selectStackOverScan(p Plan) bool {
	for {
		switch n := p.(type) {
		case *ScanPlan:
			return true
		case *SelectPlan:
			p = n.Child
		default:
			return false
		}
	}
}

// providesColumn reports whether the plan's output is known to contain the
// (qualified) column.  Detection is structural: scans provide columns whose
// qualifier matches the scan alias, materialized inputs report their actual
// columns, and composite nodes delegate to their children.
func providesColumn(p Plan, column string) bool {
	switch n := p.(type) {
	case *ScanPlan:
		alias := n.Alias
		if alias == "" {
			alias = n.Relation
		}
		return len(column) > len(alias) && column[len(alias)] == '.' && strings.HasPrefix(column, alias)
	case *MaterialPlan:
		return n.Rel != nil && n.Rel.ColumnIndex(column) >= 0
	case *SelectPlan:
		return providesColumn(n.Child, column)
	case *DistinctPlan:
		return providesColumn(n.Child, column)
	case *ProjectPlan:
		for _, c := range n.Columns {
			if c == column {
				return true
			}
		}
		return false
	case *ProductPlan:
		return providesColumn(n.Left, column) || providesColumn(n.Right, column)
	case *JoinPlan:
		return providesColumn(n.Left, column) || providesColumn(n.Right, column)
	case *AggregatePlan:
		return false
	default:
		return false
	}
}
