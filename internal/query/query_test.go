package query

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/schema"
)

// paperSchemas reproduces the source/target schemas of Figure 1.
func paperSchemas() (src, tgt *schema.Schema) {
	src = schema.NewSchema("Source")
	src.MustAddRelation(&schema.RelationSchema{Name: "Customer", Columns: []schema.Column{
		{Name: "cid", Type: schema.TypeInt}, {Name: "cname"}, {Name: "ophone"}, {Name: "hphone"},
		{Name: "mobile"}, {Name: "oaddr"}, {Name: "haddr"}, {Name: "nid", Type: schema.TypeInt},
	}})
	src.MustAddRelation(&schema.RelationSchema{Name: "C_Order", Columns: []schema.Column{
		{Name: "oid", Type: schema.TypeInt}, {Name: "cid", Type: schema.TypeInt}, {Name: "amount", Type: schema.TypeFloat},
	}})
	src.MustAddRelation(&schema.RelationSchema{Name: "Nation", Columns: []schema.Column{
		{Name: "nid", Type: schema.TypeInt}, {Name: "name"},
	}})
	tgt = schema.NewSchema("Target")
	tgt.MustAddRelation(&schema.RelationSchema{Name: "Person", Columns: []schema.Column{
		{Name: "pname"}, {Name: "phone"}, {Name: "addr"}, {Name: "nation"}, {Name: "gender"},
	}})
	tgt.MustAddRelation(&schema.RelationSchema{Name: "Order", Columns: []schema.Column{
		{Name: "sname"}, {Name: "item"}, {Name: "status"}, {Name: "price", Type: schema.TypeFloat}, {Name: "total", Type: schema.TypeFloat},
	}})
	return src, tgt
}

func attr(rel, name string) schema.Attribute { return schema.Attribute{Relation: rel, Name: name} }

// paperMappings builds the five possible mappings of Figure 3 (restricted to
// the Person attributes plus an Order correspondence for m5).
func paperMappings() schema.MappingSet {
	m1 := schema.MustNewMapping("m1", []schema.Correspondence{
		{Source: attr("Customer", "cname"), Target: attr("Person", "pname"), Score: 0.85},
		{Source: attr("Customer", "ophone"), Target: attr("Person", "phone"), Score: 0.85},
		{Source: attr("Customer", "oaddr"), Target: attr("Person", "addr"), Score: 0.75},
		{Source: attr("Nation", "name"), Target: attr("Person", "nation"), Score: 0.81},
	}, 0.3)
	m2 := schema.MustNewMapping("m2", []schema.Correspondence{
		{Source: attr("Customer", "cname"), Target: attr("Person", "pname"), Score: 0.85},
		{Source: attr("Customer", "ophone"), Target: attr("Person", "phone"), Score: 0.85},
		{Source: attr("Customer", "oaddr"), Target: attr("Person", "addr"), Score: 0.75},
		{Source: attr("Nation", "name"), Target: attr("Person", "nation"), Score: 0.81},
		{Source: attr("C_Order", "amount"), Target: attr("Order", "total"), Score: 0.63},
	}, 0.2)
	m3 := schema.MustNewMapping("m3", []schema.Correspondence{
		{Source: attr("Customer", "cname"), Target: attr("Person", "pname"), Score: 0.85},
		{Source: attr("Customer", "ophone"), Target: attr("Person", "phone"), Score: 0.85},
		{Source: attr("Customer", "haddr"), Target: attr("Person", "addr"), Score: 0.65},
		{Source: attr("Nation", "name"), Target: attr("Person", "nation"), Score: 0.81},
	}, 0.2)
	m4 := schema.MustNewMapping("m4", []schema.Correspondence{
		{Source: attr("Customer", "cname"), Target: attr("Person", "pname"), Score: 0.85},
		{Source: attr("Customer", "hphone"), Target: attr("Person", "phone"), Score: 0.83},
		{Source: attr("Customer", "haddr"), Target: attr("Person", "addr"), Score: 0.65},
		{Source: attr("Nation", "name"), Target: attr("Person", "nation"), Score: 0.81},
	}, 0.2)
	m5 := schema.MustNewMapping("m5", []schema.Correspondence{
		{Source: attr("Customer", "sname_placeholder"), Target: attr("Person", "gender"), Score: 0.1},
		{Source: attr("Customer", "cname"), Target: attr("Order", "sname"), Score: 0.45},
		{Source: attr("Customer", "ophone"), Target: attr("Person", "phone"), Score: 0.85},
		{Source: attr("Customer", "haddr"), Target: attr("Person", "addr"), Score: 0.65},
		{Source: attr("Nation", "name"), Target: attr("Order", "item"), Score: 0.3},
	}, 0.1)
	return schema.MappingSet{m1, m2, m3, m4, m5}
}

func TestParseSimpleSelect(t *testing.T) {
	_, tgt := paperSchemas()
	q, err := Parse("q0", tgt, "SELECT addr FROM Person WHERE phone = '123'")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumOperators() != 2 {
		t.Errorf("operators = %d, want 2 (project, select)", q.NumOperators())
	}
	proj, ok := q.Root.(*Project)
	if !ok {
		t.Fatalf("root is %T, want *Project", q.Root)
	}
	sel, ok := proj.Child.(*Select)
	if !ok {
		t.Fatalf("child is %T, want *Select", proj.Child)
	}
	if sel.Value.Str != "123" || sel.Op != engine.OpEq {
		t.Errorf("selection = %v %v", sel.Op, sel.Value)
	}
	if _, ok := sel.Child.(*Scan); !ok {
		t.Errorf("leaf is %T, want *Scan", sel.Child)
	}
	if !strings.Contains(q.String(), "q0") {
		t.Errorf("String = %q", q.String())
	}
}

func TestParseAggregatesAndJoins(t *testing.T) {
	_, tgt := paperSchemas()
	q, err := Parse("qc", tgt, "SELECT COUNT(*) FROM Person WHERE addr = 'hk' AND phone = '123'")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Root.(*Aggregate); !ok {
		t.Fatalf("root is %T, want *Aggregate", q.Root)
	}
	// An unqualified attribute over a self-join is ambiguous and rejected.
	if _, err := Parse("qj-bad", tgt, "SELECT pname FROM Person P1, Person P2 WHERE P1.addr = P2.addr"); err == nil {
		t.Error("expected ambiguity error for unqualified pname over self-join")
	}
	q2, err := Parse("qj", tgt, "SELECT P1.pname FROM Person P1, Person P2 WHERE P1.addr = P2.addr AND P1.phone = '123'")
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Scans()) != 2 {
		t.Errorf("scans = %d, want 2", len(q2.Scans()))
	}
	aliases := q2.Aliases()
	if aliases["P1"] != "Person" || aliases["P2"] != "Person" {
		t.Errorf("aliases = %v", aliases)
	}
	q3, err := Parse("qs", tgt, "SELECT SUM(price) FROM Order WHERE status = 'open'")
	if err != nil {
		t.Fatal(err)
	}
	agg := q3.Root.(*Aggregate)
	if agg.Func != engine.AggSum || agg.Ref.Name != "price" {
		t.Errorf("aggregate = %v %v", agg.Func, agg.Ref)
	}
	q4, err := Parse("qstar", tgt, "SELECT * FROM Person WHERE phone = '123'")
	if err != nil {
		t.Fatal(err)
	}
	// SELECT * projects every attribute of the relation, in schema order.
	if p, ok := q4.Root.(*Project); !ok || fmt.Sprint(p.Refs) != "[pname phone addr nation gender]" {
		t.Errorf("SELECT * root = %v, want π[pname,phone,addr,nation,gender]", q4.Root)
	} else if _, ok := p.Child.(*Select); !ok {
		t.Errorf("SELECT * projects %T, want *Select", p.Child)
	}
	// Numeric literals.
	q5, err := Parse("qnum", tgt, "SELECT sname FROM Order WHERE price > 10.5 AND total <= 100")
	if err != nil {
		t.Fatal(err)
	}
	if q5.NumOperators() != 3 {
		t.Errorf("operators = %d, want 3", q5.NumOperators())
	}
}

func TestParseErrors(t *testing.T) {
	_, tgt := paperSchemas()
	bad := []string{
		"",
		"FROM Person",
		"SELECT FROM Person",
		"SELECT addr Person",
		"SELECT addr FROM",
		"SELECT addr FROM Person WHERE",
		"SELECT addr FROM Person WHERE phone 123",
		"SELECT addr FROM Person WHERE phone = ",
		"SELECT addr FROM Person WHERE phone ~ '1'",
		"SELECT COUNT(* FROM Person",
		"SELECT addr, COUNT(*) FROM Person",
		"SELECT addr FROM Person extra tokens here",
		"SELECT nosuchattr FROM Person",
		"SELECT addr FROM NoSuchRelation",
		"SELECT addr FROM Person, Person",
	}
	for _, text := range bad {
		if _, err := Parse("bad", tgt, text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestQueryIntrospection(t *testing.T) {
	_, tgt := paperSchemas()
	q := MustParse("q", tgt, "SELECT pname FROM Person WHERE addr = 'abc' AND phone = '123'")
	res, err := q.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	attrs := res.Attributes()
	if len(attrs) != 3 {
		t.Fatalf("target attributes = %v, want 3", attrs)
	}
	// Project is the root so pname comes first.
	if attrs[0] != attr("Person", "pname") {
		t.Errorf("first attribute = %v, want pname", attrs[0])
	}
	if names := res.AliasAttributes("Person"); len(names) != 3 {
		t.Errorf("AliasAttributes = %v", names)
	}
	if names := res.AliasAttributes("nope"); names != nil {
		t.Errorf("AliasAttributes of an unknown alias = %v", names)
	}
	if _, err := q.ResolveRef(Ref("ZZ", "addr")); err == nil {
		t.Error("unknown alias in ref should error")
	}
	if _, err := q.ResolveRef(Ref("Person", "nosuch")); err == nil {
		t.Error("unknown attribute should error")
	}
	if _, err := q.ResolveRef(Ref("", "nosuch")); err == nil {
		t.Error("unresolvable unqualified ref should error")
	}
	clone := q.Clone()
	if clone.String() != q.String() {
		t.Error("clone should render identically")
	}
	clone.Root.(*Project).Refs[0].Name = "changed"
	if q.Root.(*Project).Refs[0].Name != "pname" {
		t.Error("clone leaked mutation")
	}
}

func TestReformulatePaperExample(t *testing.T) {
	_, tgt := paperSchemas()
	maps := paperMappings()
	// qT = π_ophone σ_oaddr='aaa' Customer when reformulated through m1
	// (paper Section III-B example).
	q := MustParse("q", tgt, "SELECT phone FROM Person WHERE addr = 'aaa'")
	ref := NewReformulator(mustResolve(t, q))

	plan, err := ref.Reformulate(maps[0])
	if err != nil {
		t.Fatal(err)
	}
	sig := plan.Signature()
	if !strings.Contains(sig, "Customer.ophone") || !strings.Contains(sig, "Customer.oaddr=aaa") {
		t.Errorf("m1 source plan = %s", sig)
	}
	// m1 and m2 produce the same source query; m3 differs (haddr).
	sig2, err := ref.SourceSignature(maps[1])
	if err != nil {
		t.Fatal(err)
	}
	if sig != sig2 {
		t.Errorf("m1 and m2 should share the source query:\n%s\n%s", sig, sig2)
	}
	sig3, err := ref.SourceSignature(maps[2])
	if err != nil {
		t.Fatal(err)
	}
	if sig == sig3 {
		t.Error("m3 should produce a different source query")
	}
	// Source column naming.
	col, err := ref.SourceColumn(maps[0], Ref("", "phone"))
	if err != nil {
		t.Fatal(err)
	}
	if col != "Person.Customer.ophone" {
		t.Errorf("SourceColumn = %q", col)
	}
}

func TestReformulateNotCovered(t *testing.T) {
	_, tgt := paperSchemas()
	maps := paperMappings()
	// gender has no correspondence in m1.
	q := MustParse("q", tgt, "SELECT gender FROM Person WHERE addr = 'aaa'")
	ref := NewReformulator(mustResolve(t, q))
	_, err := ref.Reformulate(maps[0])
	if err == nil || !errors.Is(err, ErrNotCovered) {
		t.Errorf("expected ErrNotCovered, got %v", err)
	}
	if _, err := ref.SourceSignature(maps[0]); !errors.Is(err, ErrNotCovered) {
		t.Errorf("SourceSignature should propagate ErrNotCovered, got %v", err)
	}
}

func TestReformulateMultiRelationLeaf(t *testing.T) {
	_, tgt := paperSchemas()
	maps := paperMappings()
	// Under m1 the Person attributes phone and nation map to Customer and
	// Nation respectively, so the Person leaf expands to Customer × Nation.
	q := MustParse("q", tgt, "SELECT nation FROM Person WHERE phone = '123'")
	ref := NewReformulator(mustResolve(t, q))
	plan, err := ref.Reformulate(maps[0])
	if err != nil {
		t.Fatal(err)
	}
	sig := plan.Signature()
	if !strings.Contains(sig, "scan(Customer") || !strings.Contains(sig, "scan(Nation") {
		t.Errorf("leaf should cover Customer and Nation: %s", sig)
	}
	if !strings.Contains(sig, "product(") {
		t.Errorf("leaf covering two relations should be a product: %s", sig)
	}
	rels, err := ref.SourceRelationsForAlias(maps[0], "Person")
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Errorf("covering relations = %v, want 2", rels)
	}
}

func TestReformulateCrossProductQuery(t *testing.T) {
	_, tgt := paperSchemas()
	maps := paperMappings()
	// q2 of Section V: (σ_addr='hk' σ_phone='123' Person) × Order.
	// Under m2, Order.total maps to C_Order.amount so the Order occurrence
	// becomes a scan of C_Order.
	q := MustParse("q2", tgt, "SELECT total FROM Person, Order WHERE addr = 'hk' AND phone = '123'")
	ref := NewReformulator(mustResolve(t, q))
	plan, err := ref.Reformulate(maps[1])
	if err != nil {
		t.Fatal(err)
	}
	sig := plan.Signature()
	if !strings.Contains(sig, "scan(C_Order") {
		t.Errorf("Order occurrence should reformulate to C_Order: %s", sig)
	}
	// m1 has no correspondence for any Order attribute used by the query.
	if _, err := ref.Reformulate(maps[0]); !errors.Is(err, ErrNotCovered) {
		t.Errorf("m1 should not cover Order.total, got %v", err)
	}
}

func TestReformulateJoinSelect(t *testing.T) {
	_, tgt := paperSchemas()
	maps := paperMappings()
	q := MustParse("qj", tgt, "SELECT P1.pname FROM Person P1, Person P2 WHERE P1.addr = P2.addr")
	ref := NewReformulator(mustResolve(t, q))
	plan, err := ref.Reformulate(maps[0])
	if err != nil {
		t.Fatal(err)
	}
	sig := plan.Signature()
	if !strings.Contains(sig, "P1.Customer.oaddr=P2.Customer.oaddr") {
		t.Errorf("join condition not reformulated with aliases: %s", sig)
	}
	if strings.Count(sig, "scan(Customer") != 2 {
		t.Errorf("self-join should scan Customer twice: %s", sig)
	}
}

func TestReformulateAggregate(t *testing.T) {
	_, tgt := paperSchemas()
	maps := paperMappings()
	q := MustParse("qa", tgt, "SELECT COUNT(*) FROM Person WHERE addr = 'hk'")
	ref := NewReformulator(mustResolve(t, q))
	plan, err := ref.Reformulate(maps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Signature(), "agg[COUNT()]") {
		t.Errorf("aggregate signature = %s", plan.Signature())
	}
	qs := MustParse("qsum", tgt, "SELECT SUM(total) FROM Order")
	refs := NewReformulator(mustResolve(t, qs))
	plan2, err := refs.Reformulate(maps[1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan2.Signature(), "agg[SUM(Order.C_Order.amount)]") {
		t.Errorf("sum signature = %s", plan2.Signature())
	}
}

func TestExecuteReformulatedPlan(t *testing.T) {
	// End-to-end: reformulate under m1 and run against the Figure 2 instance.
	_, tgt := paperSchemas()
	maps := paperMappings()
	db := engine.NewInstance("D")
	cust := engine.NewRelation("Customer", []string{"cid", "cname", "ophone", "hphone", "mobile", "oaddr", "haddr", "nid"})
	cust.MustAppend(engine.Tuple{engine.I(1), engine.S("Alice"), engine.S("123"), engine.S("789"), engine.S("555"), engine.S("aaa"), engine.S("hk"), engine.I(1)})
	cust.MustAppend(engine.Tuple{engine.I(2), engine.S("Bob"), engine.S("456"), engine.S("123"), engine.S("556"), engine.S("bbb"), engine.S("hk"), engine.I(1)})
	cust.MustAppend(engine.Tuple{engine.I(3), engine.S("Cindy"), engine.S("456"), engine.S("789"), engine.S("557"), engine.S("aaa"), engine.S("aaa"), engine.I(2)})
	db.AddRelation(cust)

	q := MustParse("q", tgt, "SELECT phone FROM Person WHERE addr = 'aaa'")
	ref := NewReformulator(mustResolve(t, q))
	plan, err := ref.Reformulate(maps[0])
	if err != nil {
		t.Fatal(err)
	}
	ex := engine.NewExecutor(db)
	out, err := ex.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// σ_oaddr='aaa' keeps Alice and Cindy; π_ophone gives 123 and 456.
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", out.NumRows())
	}
	got := map[string]bool{}
	for _, row := range out.Rows {
		got[row[0].Str] = true
	}
	if !got["123"] || !got["456"] {
		t.Errorf("answers = %v, want 123 and 456", got)
	}
}

func TestNodeStringRendering(t *testing.T) {
	n := &Product{
		Left:  &Scan{Relation: "Person", Alias: "P1"},
		Right: &Scan{Relation: "Person"},
	}
	s := n.String()
	if !strings.Contains(s, "Person AS P1") || !strings.Contains(s, "×") {
		t.Errorf("Product.String = %q", s)
	}
	agg := &Aggregate{Func: engine.AggCount, Child: &Scan{Relation: "Person"}}
	if !strings.Contains(agg.String(), "COUNT") {
		t.Errorf("Aggregate.String = %q", agg.String())
	}
	js := &JoinSelect{Left: Ref("P1", "a"), Op: engine.OpEq, Right: Ref("P2", "a"), Child: &Scan{Relation: "Person"}}
	if !strings.Contains(js.String(), "P1.a=P2.a") {
		t.Errorf("JoinSelect.String = %q", js.String())
	}
	if Ref("", "x").String() != "x" || Ref("A", "x").String() != "A.x" {
		t.Error("AttrRef.String rendering broken")
	}
	if !(AttrRef{}).IsZero() || Ref("A", "x").IsZero() {
		t.Error("AttrRef.IsZero broken")
	}
}

// mustResolve resolves a query the test built or parsed.
func mustResolve(t *testing.T, q *Query) *Resolution {
	t.Helper()
	res, err := q.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidateErrors(t *testing.T) {
	_, tgt := paperSchemas()
	q := &Query{Name: "nil", Target: tgt}
	if err := q.Validate(); err == nil {
		t.Error("nil root should not validate")
	}
	q2 := &Query{Name: "noschema", Root: &Scan{Relation: "Person"}}
	if err := q2.Validate(); err == nil {
		t.Error("nil target schema should not validate")
	}
	q3 := &Query{Name: "dup", Target: tgt, Root: &Product{
		Left:  &Scan{Relation: "Person"},
		Right: &Scan{Relation: "Person"},
	}}
	if err := q3.Validate(); err == nil {
		t.Error("duplicate aliases should not validate")
	}
	q4 := &Query{Name: "badattr", Target: tgt, Root: &Select{
		Ref: Ref("Person", "nosuch"), Op: engine.OpEq, Value: engine.S("x"),
		Child: &Scan{Relation: "Person"},
	}}
	if err := q4.Validate(); err == nil {
		t.Error("unknown attribute should not validate")
	}
}
