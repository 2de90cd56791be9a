package urm

import (
	"context"
	"testing"
)

// buildPeopleSchemas creates the small running-example schemas of the paper's
// introduction through the public API.
func buildPeopleSchemas() (*Schema, *Schema) {
	source := NewSchema("crm")
	source.MustAddRelation(&RelationSchema{Name: "Customer", Columns: []Column{
		{Name: "cid", Type: TypeInt}, {Name: "cname"}, {Name: "ophone"}, {Name: "hphone"},
		{Name: "mobile"}, {Name: "oaddr"}, {Name: "haddr"},
	}})
	target := NewSchema("partner")
	target.MustAddRelation(&RelationSchema{Name: "Person", Columns: []Column{
		{Name: "pname"}, {Name: "phone"}, {Name: "addr"},
	}})
	return source, target
}

func buildPeopleInstance() *Instance {
	db := NewInstance("crm-db")
	c := NewRelation("Customer", []string{"cid", "cname", "ophone", "hphone", "mobile", "oaddr", "haddr"})
	c.MustAppend(Tuple{Int(1), String("Alice"), String("123"), String("789"), String("555"), String("aaa"), String("hk")})
	c.MustAppend(Tuple{Int(2), String("Bob"), String("456"), String("123"), String("556"), String("bbb"), String("hk")})
	c.MustAppend(Tuple{Int(3), String("Cindy"), String("456"), String("789"), String("557"), String("aaa"), String("aaa")})
	db.AddRelation(c)
	return db
}

func TestFacadeEndToEnd(t *testing.T) {
	sess, maps, _ := sessionFixture(t)
	ctx := context.Background()
	if r := ORatio(maps); r <= 0 || r > 1 {
		t.Errorf("o-ratio out of range: %g", r)
	}
	q, err := ParseQuery("q0", sess.Target(), "SELECT addr FROM Person WHERE phone = '123'")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sess.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{Basic, EBasic, EMQO, QSharing, OSharing} {
		res, err := pq.Execute(ctx, WithMethod(method), WithStrategy(SEF))
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		total := res.EmptyProb
		for _, a := range res.Answers {
			total += a.Prob
			if a.Prob <= 0 || a.Prob > 1+1e-9 {
				t.Errorf("%v: answer probability out of range: %v", method, a)
			}
		}
		if total > 1+1e-6 {
			t.Errorf("%v: total probability mass %g exceeds 1", method, total)
		}
	}
	// Top-k through the facade.
	full, err := pq.Execute(ctx, WithMethod(OSharing))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Answers) > 0 {
		top, err := pq.Execute(ctx, WithTopK(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(top.Answers) != 1 {
			t.Fatalf("top-1 returned %d answers", len(top.Answers))
		}
		if top.Answers[0].Tuple.Key() != full.Answers[0].Tuple.Key() {
			t.Errorf("top-1 tuple %v differs from the most probable answer %v",
				top.Answers[0].Tuple, full.Answers[0].Tuple)
		}
	}
}

// TestFacadeParallelMatchesSequential: through the public API, parallel
// evaluation matches sequential exactly for every method.  (Cancellation is
// TestSessionErrors' case.)
func TestFacadeParallelMatchesSequential(t *testing.T) {
	sess, _, _ := sessionFixture(t)
	ctx := context.Background()
	pq, err := sess.Prepare("SELECT addr FROM Person WHERE phone = '123'")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{Basic, EBasic, EMQO, QSharing, OSharing} {
		seq, err := pq.Execute(ctx, WithMethod(method), WithParallelism(1))
		if err != nil {
			t.Fatalf("%v sequential: %v", method, err)
		}
		par, err := pq.Execute(ctx, WithMethod(method), WithParallelism(4))
		if err != nil {
			t.Fatalf("%v parallel: %v", method, err)
		}
		if len(seq.Answers) != len(par.Answers) {
			t.Fatalf("%v: %d parallel answers, want %d", method, len(par.Answers), len(seq.Answers))
		}
		for i := range seq.Answers {
			if seq.Answers[i].Tuple.Key() != par.Answers[i].Tuple.Key() || seq.Answers[i].Prob != par.Answers[i].Prob {
				t.Errorf("%v: answer[%d] = %v, want %v", method, i, par.Answers[i], seq.Answers[i])
			}
		}
	}
}

func TestFacadeManualMappings(t *testing.T) {
	_, target := buildPeopleSchemas()
	corrs := []Correspondence{
		{Source: Attribute{Relation: "Customer", Name: "ophone"}, Target: Attribute{Relation: "Person", Name: "phone"}, Score: 0.85},
		{Source: Attribute{Relation: "Customer", Name: "hphone"}, Target: Attribute{Relation: "Person", Name: "phone"}, Score: 0.83},
		{Source: Attribute{Relation: "Customer", Name: "oaddr"}, Target: Attribute{Relation: "Person", Name: "addr"}, Score: 0.75},
	}
	maps, err := DeriveMappings(corrs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 2 {
		t.Fatalf("mappings = %d, want 2 (two phone alternatives)", len(maps))
	}
	if err := maps.Validate(); err != nil {
		t.Errorf("derived mappings invalid: %v", err)
	}
	m, err := NewMapping("manual", corrs[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 {
		t.Error("manual mapping size wrong")
	}
	db := buildPeopleInstance()
	q, err := ParseQuery("q", target, "SELECT addr FROM Person WHERE phone = '123'")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(target, db, maps)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sess.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Execute(context.Background(), WithMethod(OSharing))
	if err != nil {
		t.Fatal(err)
	}
	// ophone=123 -> Alice -> aaa (prob of the ophone mapping);
	// hphone=123 -> Bob -> aaa? no: addr maps to oaddr in both -> Bob's oaddr is bbb.
	sum := 0.0
	for _, a := range res.Answers {
		sum += a.Prob
	}
	if sum <= 0 || sum > 1+1e-9 {
		t.Errorf("probability mass = %g", sum)
	}
}

func TestFacadeParsers(t *testing.T) {
	if _, err := ParseMethod("o-sharing"); err != nil {
		t.Error(err)
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("bogus method should fail")
	}
	if _, err := ParseStrategy("SEF"); err != nil {
		t.Error(err)
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy should fail")
	}
	if Null().IsNull() != true || Float(2).IsNull() {
		t.Error("value constructors broken")
	}
}

func TestScenario(t *testing.T) {
	s, err := NewScenario(ScenarioOptions{Target: "Excel", Mappings: 10, SizeMB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Target != "Excel" || s.DB == nil || s.TargetSchema == nil || s.SourceSchema == nil {
		t.Fatal("scenario incomplete")
	}
	if len(s.Mappings()) == 0 {
		t.Fatal("scenario has no mappings")
	}
	if q, err := s.WorkloadQuery(1); err != nil {
		t.Fatal(err)
	} else if q.Target != s.TargetSchema {
		t.Error("a workload query should be parsed against the scenario's own target schema")
	}
	// Q6 belongs to Noris, not Excel.  (Evaluating a workload query over the
	// scenario is TestScenarioNewSession's case.)
	if _, err := s.WorkloadQuery(6); err == nil {
		t.Error("cross-target workload query should be rejected")
	}
	if _, err := s.Query("adhoc", "SELECT orderNum FROM PO WHERE telephone = '335-1736'"); err != nil {
		t.Errorf("ad-hoc query: %v", err)
	}
	if _, err := NewScenario(ScenarioOptions{Target: "bogus"}); err == nil {
		t.Error("bogus target should fail")
	}
	// Defaults.
	d, err := NewScenario(ScenarioOptions{Mappings: 5, SizeMB: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != "Excel" {
		t.Errorf("default target = %s, want Excel", d.Target)
	}
}
