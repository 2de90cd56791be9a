package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// bgCtx is the no-cancellation context shared by operator-level tests.
var bgCtx = context.Background()

// customerRelation builds the Customer relation of Figure 2 in the paper.
func customerRelation() *Relation {
	r := NewRelation("Customer", []string{"cid", "cname", "ophone", "hphone", "oaddr", "haddr"})
	r.MustAppend(Tuple{I(1), S("Alice"), S("123"), S("789"), S("aaa"), S("hk")})
	r.MustAppend(Tuple{I(2), S("Bob"), S("456"), S("123"), S("bbb"), S("hk")})
	r.MustAppend(Tuple{I(3), S("Cindy"), S("456"), S("789"), S("aaa"), S("aaa")})
	return r
}

func orderRelation() *Relation {
	r := NewRelation("C_Order", []string{"oid", "cid", "amount"})
	r.MustAppend(Tuple{I(10), I(1), F(100.5)})
	r.MustAppend(Tuple{I(11), I(2), F(20)})
	r.MustAppend(Tuple{I(12), I(1), F(3.25)})
	return r
}

func testInstance() *Instance {
	db := NewInstance("D")
	db.AddRelation(customerRelation())
	db.AddRelation(orderRelation())
	return db
}

func TestValueBasics(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null should be null")
	}
	if S("x").IsNull() || I(1).IsNull() || F(1).IsNull() {
		t.Error("non-null values reported null")
	}
	if f, ok := I(7).AsFloat(); !ok || f != 7 {
		t.Errorf("I(7).AsFloat = %v,%v", f, ok)
	}
	if f, ok := S("2.5").AsFloat(); !ok || f != 2.5 {
		t.Errorf("S(2.5).AsFloat = %v,%v", f, ok)
	}
	if _, ok := S("abc").AsFloat(); ok {
		t.Error("S(abc).AsFloat should fail")
	}
	if _, ok := Null().AsFloat(); ok {
		t.Error("Null.AsFloat should fail")
	}
	if !I(3).Equal(F(3)) {
		t.Error("I(3) should equal F(3)")
	}
	if I(3).Equal(S("3")) != true {
		// Numeric/string equality goes through AsFloat; "3" parses to 3.
		t.Error("I(3) vs S(3) should compare numerically equal")
	}
	if S("a").Equal(S("b")) {
		t.Error("distinct strings reported equal")
	}
	if !Null().Equal(Null()) || Null().Equal(I(0)) {
		t.Error("null equality semantics broken")
	}
	if I(1).Compare(I(2)) >= 0 || I(2).Compare(I(1)) <= 0 || I(2).Compare(I(2)) != 0 {
		t.Error("integer comparison broken")
	}
	if S("a").Compare(S("b")) >= 0 {
		t.Error("string comparison broken")
	}
	if Null().Compare(I(1)) >= 0 || I(1).Compare(Null()) <= 0 || Null().Compare(Null()) != 0 {
		t.Error("null ordering broken")
	}
	if got := F(2.5).String(); got != "2.5" {
		t.Errorf("F(2.5).String = %q", got)
	}
	if got := Null().String(); got != "NULL" {
		t.Errorf("Null.String = %q", got)
	}
	if KindInt.String() != "int" || KindNull.String() != "null" {
		t.Error("Kind.String mismatch")
	}
}

func TestTupleKeyAndEqual(t *testing.T) {
	a := Tuple{S("1"), I(2)}
	b := Tuple{S("1"), I(2)}
	c := Tuple{I(1), I(2)}
	if a.Key() != b.Key() {
		t.Error("identical tuples should have identical keys")
	}
	if a.Key() == c.Key() {
		t.Error("S(1) and I(1) tuples should have different keys")
	}
	if !a.Equal(b) || a.Equal(Tuple{S("1")}) {
		t.Error("tuple equality broken")
	}
	cl := a.Clone()
	cl[0] = S("changed")
	if a[0].Str != "1" {
		t.Error("Clone is not independent")
	}
	if !strings.Contains(a.String(), "1") {
		t.Error("tuple String should render values")
	}
}

func TestRelationColumnResolution(t *testing.T) {
	r := customerRelation().QualifyColumns("Customer")
	if idx := r.ColumnIndex("Customer.cname"); idx != 1 {
		t.Errorf("qualified lookup = %d, want 1", idx)
	}
	if idx := r.ColumnIndex("cname"); idx != 1 {
		t.Errorf("unqualified lookup = %d, want 1", idx)
	}
	if idx := r.ColumnIndex("nosuch"); idx != -1 {
		t.Errorf("missing column = %d, want -1", idx)
	}
	// Ambiguity: the columns of Customer twice, as its product with itself
	// has them, hold two cid columns.
	a, b := customerRelation().QualifyColumns("A"), customerRelation().QualifyColumns("B")
	p := NewRelation("AxB", append(slices.Clone(a.Columns), b.Columns...))
	if idx := p.ColumnIndex("cid"); idx != -1 {
		t.Errorf("ambiguous unqualified lookup should fail, got %d", idx)
	}
	if idx := p.ColumnIndex("A.cid"); idx != 0 {
		t.Errorf("qualified lookup in product = %d, want 0", idx)
	}
}

func TestRelationAppendAndClone(t *testing.T) {
	r := NewRelation("R", []string{"a", "b"})
	if err := r.Append(Tuple{I(1)}); err == nil {
		t.Error("arity mismatch should error")
	}
	r.MustAppend(Tuple{I(1), S("x")})
	c := r.Clone()
	c.Rows[0][0] = I(99)
	if r.Rows[0][0].Int != 1 {
		t.Error("Clone leaked mutation")
	}
	col, err := r.Column("b")
	if err != nil || len(col) != 1 || col[0].Str != "x" {
		t.Errorf("Column(b) = %v,%v", col, err)
	}
	if _, err := r.Column("zz"); err == nil {
		t.Error("Column on missing name should error")
	}
	if r.IsEmpty() {
		t.Error("relation with rows reported empty")
	}
	if r.NumRows() != 1 || r.NumColumns() != 2 {
		t.Error("NumRows/NumColumns mismatch")
	}
	if !strings.Contains(r.String(), "R[1 rows]") {
		t.Errorf("String = %q", r.String())
	}
}

func TestSelectOperator(t *testing.T) {
	stats := NewStats()
	cases := []struct {
		rel  *Relation
		pred Predicate
		want int
	}{
		{customerRelation(), Eq("oaddr", S("aaa")), 2},
		// Comparison operators.
		{orderRelation(), &ConstPredicate{Column: "amount", Op: OpGt, Value: F(50)}, 1},
		{customerRelation(), &ConstPredicate{Column: "cname", Op: OpNe, Value: S("Alice")}, 2},
	}
	for i, c := range cases {
		f, err := CompileFilter(c.pred, c.rel.Columns)
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Rows(bgCtx, c.rel.Rows, stats, nil, nil)
		if err != nil || len(out) != c.want {
			t.Errorf("%v: rows=%d err=%v, want %d rows", c.pred, len(out), err, c.want)
		}
		if stats.Count(OpKindSelect) != i+1 {
			t.Errorf("select operator count = %d, want %d", stats.Count(OpKindSelect), i+1)
		}
	}
	if _, err := CompileFilter(Eq("missing", S("x")), customerRelation().Columns); err == nil {
		t.Error("select on missing column should error")
	}
}

// TestSelectAcrossBlocks selects from a relation spanning three
// checkInterval blocks with a comparison, a conjunction — whose kernel
// compacts a block's survivors in place — and the empty conjunction: the rows
// are exactly those Predicate.Eval keeps, in order.
func TestSelectAcrossBlocks(t *testing.T) {
	rel := NewRelation("T", []string{"T.a", "T.b"})
	for i := 0; i < 2*checkInterval+5; i++ {
		rel.MustAppend(Tuple{I(int64(i % 7)), I(int64(i % 5))})
	}
	for _, pred := range []Predicate{
		Eq("T.a", I(3)),
		&AndPredicate{Children: []Predicate{Eq("T.a", I(3)), Eq("T.b", I(1))}},
		&AndPredicate{},
	} {
		f, err := CompileFilter(pred, rel.Columns)
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Rows(bgCtx, rel.Rows, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for i, row := range rel.Rows {
			if ok, _ := pred.Eval(rel, row); ok {
				want = append(want, i)
			}
		}
		if len(out) != len(want) {
			t.Fatalf("%v: %d rows, want %d", pred, len(out), len(want))
		}
		for k, i := range want {
			if &out[k][0] != &rel.Rows[i][0] {
				t.Fatalf("%v: row %d is not input row %d", pred, k, i)
			}
		}
	}
}

func TestProjectOperator(t *testing.T) {
	stats := NewStats()
	rel := customerRelation()
	idx, err := ColumnPositions(rel.Columns, []string{"cname", "oaddr"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ProjectRows(bgCtx, rel.Rows, idx, stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || len(out[0]) != 2 {
		t.Errorf("project shape = %dx%d", len(out), len(out[0]))
	}
	if out[0][0].Str != "Alice" || out[0][1].Str != "aaa" {
		t.Errorf("project row = %v", out[0])
	}
	if stats.Count(OpKindProject) != 1 {
		t.Errorf("project operator count = %d", stats.Count(OpKindProject))
	}
	if _, err := ColumnPositions(rel.Columns, []string{"nosuch"}); err == nil {
		t.Error("project on missing column should error")
	}
}

func TestProductAndJoin(t *testing.T) {
	stats := NewStats()
	c := customerRelation().QualifyColumns("Customer")
	o := orderRelation().QualifyColumns("C_Order")
	cKeep, oKeep := keepAll(len(c.Columns)), keepAll(len(o.Columns))
	p, err := ProductRows(bgCtx, c.Rows, o.Rows, cKeep, oKeep, false, stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 9 || len(p[0]) != 9 {
		t.Errorf("product shape = %dx%d, want 9x9", len(p), len(p[0]))
	}
	j, err := JoinRows(bgCtx, c.Rows, o.Rows, c.ColumnIndex("Customer.cid"), o.ColumnIndex("C_Order.cid"), cKeep, oKeep, false, stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(j) != 3 {
		t.Errorf("join rows = %d, want 3", len(j))
	}
	// Join must equal product followed by an equality selection.
	f, err := CompileFilter(ColEq("Customer.cid", "C_Order.cid"), append(slices.Clone(c.Columns), o.Columns...))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := f.Rows(bgCtx, p, stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "product+select", j, sel)
}

func TestDistinct(t *testing.T) {
	stats := NewStats()
	r := NewRelation("R", []string{"a"})
	r.MustAppend(Tuple{S("x")})
	r.MustAppend(Tuple{S("x")})
	r.MustAppend(Tuple{S("y")})
	d, err := DistinctRows(bgCtx, r.Rows, stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 {
		t.Errorf("distinct rows = %d, want 2", len(d))
	}
}

func TestAggregates(t *testing.T) {
	stats := NewStats()
	o := orderRelation()
	empty := NewRelation("E", []string{"x"})
	cases := []struct {
		rel  *Relation
		fn   AggFunc
		col  string
		want Value
	}{
		{o, AggCount, "", I(3)},
		{o, AggSum, "amount", F(123.75)},
		{o, AggAvg, "amount", F(41.25)},
		{o, AggMin, "amount", F(3.25)},
		{o, AggMax, "amount", F(100.5)},
		{o, AggSum, "oid", F(33)}, // an int column sums too
		{empty, AggAvg, "x", Null()},
		{empty, AggMin, "x", Null()},
		{empty, AggCount, "", I(0)},
	}
	for _, c := range cases {
		a, err := CompileAggregate(c.rel.Columns, c.fn, c.col)
		if err != nil {
			t.Fatalf("%s(%s): %v", c.fn, c.col, err)
		}
		row, err := a.Row(bgCtx, c.rel.Rows, stats)
		if err != nil {
			t.Fatalf("%s(%s): %v", c.fn, c.col, err)
		}
		if len(row) != 1 || !row[0].Equal(c.want) {
			t.Errorf("%s(%s) over %d rows = %v, want %v", c.fn, c.col, len(c.rel.Rows), row, c.want)
		}
	}
	if _, err := CompileAggregate(o.Columns, AggSum, "missing"); err == nil {
		t.Error("SUM on missing column should error")
	}
}

func TestPredicates(t *testing.T) {
	rel := customerRelation()
	row := rel.Rows[0] // Alice
	and := And(Eq("cname", S("Alice")), Eq("oaddr", S("aaa")))
	ok, err := and.Eval(rel, row)
	if err != nil || !ok {
		t.Errorf("AND eval = %v,%v", ok, err)
	}
	if !strings.Contains(and.String(), "AND") {
		t.Error("predicate String renderings missing keywords")
	}
	// And() flattens nested conjunctions and drops nils.
	flat := And(nil, and, Eq("hphone", S("789")))
	if ap, okc := flat.(*AndPredicate); !okc || len(ap.Children) != 3 {
		t.Errorf("And flattening produced %#v", flat)
	}
	if single := And(Eq("a", I(1))); single.String() != "a=1" {
		t.Errorf("And of one predicate should be that predicate, got %s", single)
	}
	// Error propagation through composites.
	bad := And(Eq("missing", I(1)), Eq("cname", S("Alice")))
	if _, err := bad.Eval(rel, row); err == nil {
		t.Error("AND over missing column should error")
	}
	for _, op := range []CompareOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		if op.String() == "" {
			t.Errorf("operator %d has empty rendering", op)
		}
	}
	if OpLe.Matches(0) != true || OpLt.Matches(0) != false || OpGe.Matches(1) != true || OpNe.Matches(0) != false {
		t.Error("CompareOp.Matches table broken")
	}
}

func TestExecutorPlans(t *testing.T) {
	db := testInstance()
	ex := NewExecutor(db)
	// σ oaddr='aaa' Customer, projected to cname.
	plan := &ProjectPlan{
		Columns: []string{"Customer.cname"},
		Child: &SelectPlan{
			Pred:  Eq("Customer.oaddr", S("aaa")),
			Child: &ScanPlan{Relation: "Customer"},
		},
	}
	out, err := ex.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", out.NumRows())
	}
	if got := CountOperators(plan); got != 2 {
		t.Errorf("CountOperators = %d, want 2", got)
	}
	if ex.Stats.Count(OpKindScan) != 1 || ex.Stats.Count(OpKindSelect) != 1 || ex.Stats.Count(OpKindProject) != 1 {
		t.Errorf("stats = %v", ex.Stats.Operators())
	}
	// Aggregate over a join.
	agg := &AggregatePlan{
		Func:   AggSum,
		Column: "C_Order.amount",
		Child: &JoinPlan{
			LeftCol: "Customer.cid", RightCol: "C_Order.cid",
			Left:  &ScanPlan{Relation: "Customer"},
			Right: &ScanPlan{Relation: "C_Order"},
		},
	}
	out, err = ex.Execute(agg)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := out.Rows[0][0].AsFloat(); f != 123.75 {
		t.Errorf("SUM over join = %v, want 123.75", out.Rows[0][0])
	}
	// Error paths.
	if _, err := ex.Execute(&ScanPlan{Relation: "nope"}); err == nil {
		t.Error("scan of unknown relation should error")
	}
	if _, err := ex.Execute(nil); err == nil {
		t.Error("nil plan should error")
	}
	if _, err := ex.Execute(&MaterialPlan{Label: "x"}); err == nil {
		t.Error("material plan with nil relation should error")
	}
	if _, err := ex.Execute(&SelectPlan{Pred: Eq("zz", I(1)), Child: &ScanPlan{Relation: "Customer"}}); err == nil {
		t.Error("select over missing column should error")
	}
}

func TestExecutorCacheSharesSubexpressions(t *testing.T) {
	db := testInstance()
	shared := &SelectPlan{Pred: Eq("Customer.oaddr", S("aaa")), Child: &ScanPlan{Relation: "Customer"}}
	p1 := &ProjectPlan{Columns: []string{"Customer.cname"}, Child: shared}
	p2 := &ProjectPlan{Columns: []string{"Customer.ophone"}, Child: &SelectPlan{Pred: Eq("Customer.oaddr", S("aaa")), Child: &ScanPlan{Relation: "Customer"}}}

	ex := NewExecutor(db)
	ex.EnableCache()
	if _, err := ex.Execute(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Execute(p2); err != nil {
		t.Fatal(err)
	}
	// With the cache the shared select+scan executes once.
	if got := ex.Stats.Count(OpKindSelect); got != 1 {
		t.Errorf("cached executor ran select %d times, want 1", got)
	}
	exNo := NewExecutor(db)
	if _, err := exNo.Execute(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := exNo.Execute(p2); err != nil {
		t.Fatal(err)
	}
	if got := exNo.Stats.Count(OpKindSelect); got != 2 {
		t.Errorf("uncached executor ran select %d times, want 2", got)
	}
}

func TestPlanSignatures(t *testing.T) {
	a := &SelectPlan{Pred: Eq("Customer.oaddr", S("aaa")), Child: &ScanPlan{Relation: "Customer"}}
	b := &SelectPlan{Pred: Eq("Customer.oaddr", S("aaa")), Child: &ScanPlan{Relation: "Customer"}}
	c := &SelectPlan{Pred: Eq("Customer.haddr", S("aaa")), Child: &ScanPlan{Relation: "Customer"}}
	if a.Signature() != b.Signature() {
		t.Error("identical plans should share a signature")
	}
	if a.Signature() == c.Signature() {
		t.Error("different plans should not share a signature")
	}
	alias := &ScanPlan{Relation: "Customer", Alias: "C1"}
	if alias.Signature() == (&ScanPlan{Relation: "Customer"}).Signature() {
		t.Error("aliased scan should have distinct signature")
	}
	nested := &AggregatePlan{Func: AggCount, Child: &DistinctPlan{Child: &ProductPlan{Left: a, Right: alias}}}
	if CountOperators(nested) != 4 {
		t.Errorf("CountOperators(nested) = %d, want 4", CountOperators(nested))
	}
	if !strings.Contains(nested.Signature(), "distinct(") {
		t.Errorf("signature %q missing distinct", nested.Signature())
	}
	mat := &MaterialPlan{Rel: NewRelation("R", nil), Label: "R7"}
	if !strings.Contains(mat.Signature(), "R7") {
		t.Error("material signature should carry label")
	}
	if len(mat.Children()) != 0 || len(nested.Children()) != 1 {
		t.Error("Children() arity wrong")
	}
}

// fmtSignature renders a plan the way every Signature did before the
// one-builder writer, with nested fmt.Sprintf calls: the reference the
// writer's strings must equal byte for byte, because e-basic's clusters and
// e-MQO's shared subexpressions are keyed by them.
func fmtSignature(p Plan) string {
	switch n := p.(type) {
	case *ScanPlan:
		if n.Alias != "" && n.Alias != n.Relation {
			return fmt.Sprintf("scan(%s as %s)", n.Relation, n.Alias)
		}
		return fmt.Sprintf("scan(%s)", n.Relation)
	case *MaterialPlan:
		return fmt.Sprintf("mat(%s)", n.Label)
	case *SelectPlan:
		return fmt.Sprintf("select[%s](%s)", fmtPredicate(n.Pred), fmtSignature(n.Child))
	case *ProjectPlan:
		return fmt.Sprintf("project[%s](%s)", strings.Join(n.Columns, ","), fmtSignature(n.Child))
	case *ProductPlan:
		return fmt.Sprintf("product(%s,%s)", fmtSignature(n.Left), fmtSignature(n.Right))
	case *JoinPlan:
		return fmt.Sprintf("join[%s=%s](%s,%s)", n.LeftCol, n.RightCol, fmtSignature(n.Left), fmtSignature(n.Right))
	case *AggregatePlan:
		return fmt.Sprintf("agg[%s(%s)](%s)", n.Func, n.Column, fmtSignature(n.Child))
	case *DistinctPlan:
		return fmt.Sprintf("distinct(%s)", fmtSignature(n.Child))
	}
	panic(fmt.Sprintf("unknown plan %T", p))
}

func fmtPredicate(p Predicate) string {
	switch n := p.(type) {
	case *ConstPredicate:
		return fmt.Sprintf("%s%s%s", n.Column, n.Op, n.Value)
	case *ColPredicate:
		return fmt.Sprintf("%s%s%s", n.Left, n.Op, n.Right)
	case *AndPredicate:
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = fmtPredicate(c)
		}
		return "(" + strings.Join(parts, " AND ") + ")"
	}
	panic(fmt.Sprintf("unknown predicate %T", p))
}

// TestSignatureWriterMatchesFormat holds every node's signature, and every
// predicate's String, to fmtSignature over random optimized plans and the
// node types they do not produce.
func TestSignatureWriterMatchesFormat(t *testing.T) {
	var check func(p Plan)
	check = func(p Plan) {
		t.Helper()
		if got, want := p.Signature(), fmtSignature(p); got != want {
			t.Fatalf("signature\n%s\nwant\n%s", got, want)
		}
		if sp, ok := p.(*SelectPlan); ok && sp.Pred.String() != fmtPredicate(sp.Pred) {
			t.Fatalf("predicate %s, want %s", sp.Pred.String(), fmtPredicate(sp.Pred))
		}
		for _, c := range p.Children() {
			check(c)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := randPlan(rng)
		check(p)
		check(Optimize(p))
	}
	and := &AndPredicate{Children: []Predicate{Eq("R.a", F(2.5)), ColEq("R.a", "R.b"), &ConstPredicate{Column: "R.c", Op: OpGe, Value: Null()}}}
	check(&AggregatePlan{Func: AggSum, Column: "R.a", Child: &SelectPlan{Pred: and, Child: &ProductPlan{
		Left:  &ScanPlan{Relation: "R", Alias: "R"},
		Right: &MaterialPlan{Label: "m1"},
	}}})
}

func TestStats(t *testing.T) {
	s := NewStats()
	s.record(OpKindSelect, 10, 5)
	s.record(OpKindSelect, 2, 1)
	o := NewStats()
	o.record(OpKindProject, 5, 5)
	s.Add(o)
	if s.TotalOperators() != 3 {
		t.Errorf("TotalOperators = %d, want 3", s.TotalOperators())
	}
	if s.RowsRead() != 17 || s.RowsProduced() != 11 {
		t.Errorf("rows read/produced = %d/%d", s.RowsRead(), s.RowsProduced())
	}
	s.Reset()
	if s.TotalOperators() != 0 {
		t.Error("Reset did not clear operators")
	}
	// nil receivers are safe no-ops.
	var nilStats *Stats
	nilStats.record(OpKindSelect, 1, 1)
	nilStats.Add(o)
	nilStats.Reset()
	if nilStats.TotalOperators() != 0 {
		t.Error("nil stats should report zero operators")
	}
}

func TestInstance(t *testing.T) {
	db := testInstance()
	if db.Relation("Customer") == nil || db.Relation("nope") != nil {
		t.Error("Relation lookup broken")
	}
	if got := db.RelationNames(); len(got) != 2 || got[0] != "Customer" {
		t.Errorf("RelationNames = %v", got)
	}
	if db.NumRows() != 6 {
		t.Errorf("NumRows = %d, want 6", db.NumRows())
	}
	// Replacing a relation keeps the name registered once.
	db.AddRelation(NewRelation("Customer", []string{"cid"}))
	if len(db.RelationNames()) != 2 {
		t.Errorf("replacing a relation should not duplicate names: %v", db.RelationNames())
	}
}

// Property: Select never returns more rows than its input and every returned
// row satisfies the predicate.
func TestSelectProperty(t *testing.T) {
	prop := func(vals []int8, threshold int8) bool {
		rel := NewRelation("R", []string{"v"})
		for _, v := range vals {
			rel.MustAppend(Tuple{I(int64(v))})
		}
		f, err := CompileFilter(&ConstPredicate{Column: "v", Op: OpGe, Value: I(int64(threshold))}, rel.Columns)
		if err != nil {
			return false
		}
		out, err := f.Rows(bgCtx, rel.Rows, NewStats(), nil, nil)
		if err != nil {
			return false
		}
		if len(out) > rel.NumRows() {
			return false
		}
		for _, row := range out {
			if row[0].Int < int64(threshold) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Distinct is idempotent and Product row counts multiply.
func TestAlgebraProperties(t *testing.T) {
	prop := func(a, b []uint8) bool {
		ra := NewRelation("A", []string{"x"})
		for _, v := range a {
			ra.MustAppend(Tuple{I(int64(v % 4))})
		}
		rb := NewRelation("B", []string{"y"})
		for _, v := range b {
			rb.MustAppend(Tuple{I(int64(v % 4))})
		}
		st := NewStats()
		p, err := ProductRows(bgCtx, ra.Rows, rb.Rows, []int{0}, []int{0}, false, st)
		if err != nil || len(p) != ra.NumRows()*rb.NumRows() {
			return false
		}
		d1, err := DistinctRows(bgCtx, ra.Rows, st)
		if err != nil {
			return false
		}
		d2, err := DistinctRows(bgCtx, d1, st)
		if err != nil {
			return false
		}
		return len(d1) == len(d2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
