package query_test

// The canonical-text contract of Query.SQL()/Fingerprint(), which the query
// service's answer cache is keyed by: rendering a parser-shaped query and
// re-parsing the text must rebuild an equal AST.  The test exercises the
// paper's full Table III workload plus randomized queries drawn from the
// grammar, including the literal spellings that historically collide
// (string-vs-int "5", integer-valued floats, negative numbers, -0.0).

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// assertRoundTrip renders q canonically, re-parses the text and requires a
// deeply equal AST (same node types, references, operators and literal kinds).
func assertRoundTrip(t *testing.T, q *query.Query) {
	t.Helper()
	text, err := q.SQL()
	if err != nil {
		t.Fatalf("%s: SQL() failed: %v (tree %s)", q.Name, err, q.Root)
	}
	back, err := query.Parse(q.Name, q.Target, text)
	if err != nil {
		t.Fatalf("%s: canonical text %q does not re-parse: %v", q.Name, text, err)
	}
	if !reflect.DeepEqual(q.Root, back.Root) {
		t.Fatalf("%s: round-trip changed the AST\n text: %s\n want: %s\n got:  %s",
			q.Name, text, q.Root, back.Root)
	}
	if again, err := back.SQL(); err != nil || again != text {
		t.Fatalf("%s: canonical text is not a fixpoint: %q -> %q (err %v)", q.Name, text, again, err)
	}
}

func TestCanonicalSQLRoundTripWorkload(t *testing.T) {
	for id := 1; id <= datagen.NumWorkloadQueries; id++ {
		q, err := datagen.WorkloadQuery(id)
		if err != nil {
			t.Fatal(err)
		}
		assertRoundTrip(t, q)
	}
	for n := 1; n <= 5; n++ {
		q, err := datagen.SelectionChainQuery(n)
		if err != nil {
			t.Fatal(err)
		}
		assertRoundTrip(t, q)
	}
	for p := 1; p <= 3; p++ {
		q, err := datagen.SelfJoinQuery(p)
		if err != nil {
			t.Fatal(err)
		}
		assertRoundTrip(t, q)
	}
}

// TestCanonicalSQLRoundTripRandom draws queries from the parser's grammar over
// the Excel target schema: random relation subsets with aliases, random
// constant and join conditions, random projection or aggregate.
func TestCanonicalSQLRoundTripRandom(t *testing.T) {
	target := datagen.TargetSchema(datagen.TargetExcel)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		q := randomQuery(t, rng, target, iter)
		assertRoundTrip(t, q)
	}
}

// TestFingerprintSeparatesLiteralKinds pins the collision the quoting rules
// exist for: the same constant spelled as a string, an int and a float must
// produce three distinct fingerprints.
func TestFingerprintSeparatesLiteralKinds(t *testing.T) {
	target := datagen.TargetSchema(datagen.TargetExcel)
	texts := []string{
		"SELECT orderNum FROM PO WHERE priority = '5'",
		"SELECT orderNum FROM PO WHERE priority = 5",
		"SELECT orderNum FROM PO WHERE priority = 5.0",
	}
	seen := make(map[string]string)
	for _, text := range texts {
		q, err := query.Parse("fp", target, text)
		if err != nil {
			t.Fatal(err)
		}
		fp := q.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision: %q and %q both render %q", prev, text, fp)
		}
		seen[fp] = text
	}
}

// TestSQLRejectsNonCanonicalShapes documents the fallback: trees the parser
// cannot produce have no SQL form, and Fingerprint degrades to the algebra
// rendering instead of failing.
func TestSQLRejectsNonCanonicalShapes(t *testing.T) {
	target := datagen.TargetSchema(datagen.TargetExcel)
	q := &query.Query{Name: "odd", Target: target, Root: &query.Product{
		Left: &query.Scan{Relation: "PO"},
		Right: &query.Select{
			Ref: query.Ref("", "itemNum"), Op: engine.OpEq, Value: engine.I(1),
			Child: &query.Scan{Relation: "Item"},
		},
	}}
	if _, err := q.SQL(); err == nil {
		t.Fatal("SQL() accepted a selection nested under a product")
	}
	if fp := q.Fingerprint(); fp == "" {
		t.Fatal("Fingerprint fell back to an empty string")
	}
	// The algebra fallback must stay injective across literal kinds too:
	// an int and an integer-valued float in the nested selection must not
	// share a fingerprint.
	alt := &query.Query{Name: "odd", Target: target, Root: &query.Product{
		Left: &query.Scan{Relation: "PO"},
		Right: &query.Select{
			Ref: query.Ref("", "itemNum"), Op: engine.OpEq, Value: engine.F(1),
			Child: &query.Scan{Relation: "Item"},
		},
	}}
	if q.Fingerprint() == alt.Fingerprint() {
		t.Fatalf("fallback fingerprint collision between int and float literals: %q", q.Fingerprint())
	}
}

// randomQuery builds one random parser-shaped query; every draw validates
// against the target schema so Parse accepts the rendering.
func randomQuery(t *testing.T, rng *rand.Rand, target *schema.Schema, iter int) *query.Query {
	t.Helper()
	// Scans: 1-3 relation occurrences; repeats get aliases.
	numScans := 1 + rng.Intn(3)
	scans := make([]*query.Scan, numScans)
	used := make(map[string]int)
	for i := range scans {
		rel := target.Relations[rng.Intn(len(target.Relations))]
		s := &query.Scan{Relation: rel.Name}
		used[rel.Name]++
		if used[rel.Name] > 1 || rng.Intn(3) == 0 {
			s.Alias = rel.Name[:1] + "_" + string(rune('a'+i))
		}
		scans[i] = s
	}
	var root query.Node = scans[0]
	for _, s := range scans[1:] {
		root = &query.Product{Left: root, Right: s}
	}

	// A reference is unqualified only when exactly one scan resolves it.
	pickRef := func() query.AttrRef {
		si := rng.Intn(len(scans))
		rel := target.Relation(scans[si].Relation)
		attr := rel.Columns[rng.Intn(len(rel.Columns))].Name
		resolvable := 0
		for _, s := range scans {
			if target.HasAttribute(schema.Attribute{Relation: s.Relation, Name: attr}) {
				resolvable++
			}
		}
		if resolvable == 1 && rng.Intn(2) == 0 {
			return query.Ref("", attr)
		}
		return query.Ref(scans[si].AliasName(), attr)
	}
	ops := []engine.CompareOp{engine.OpEq, engine.OpNe, engine.OpLt, engine.OpLe, engine.OpGt, engine.OpGe}
	randLiteral := func() engine.Value {
		switch rng.Intn(6) {
		case 0:
			return engine.S("hot value")
		case 1:
			return engine.S("5") // collides with I(5) unless quoted
		case 2:
			return engine.I(int64(rng.Intn(201) - 100))
		case 3:
			return engine.F(float64(rng.Intn(100))) // integer-valued float
		case 4:
			f := rng.NormFloat64() * 1000
			return engine.F(f)
		default:
			if rng.Intn(2) == 0 {
				return engine.F(0)
			}
			return engine.F(negZero())
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		if rng.Intn(3) == 0 && numScans > 1 {
			root = &query.JoinSelect{Left: pickRef(), Op: ops[rng.Intn(len(ops))], Right: pickRef(), Child: root}
		} else {
			root = &query.Select{Ref: pickRef(), Op: ops[rng.Intn(len(ops))], Value: randLiteral(), Child: root}
		}
	}

	switch rng.Intn(4) {
	case 0: // SELECT *, which the parser spells out as every attribute of each scan
		var refs []query.AttrRef
		for _, s := range scans {
			alias := ""
			if numScans > 1 {
				alias = s.AliasName()
			}
			for _, c := range target.Relation(s.Relation).Columns {
				refs = append(refs, query.Ref(alias, c.Name))
			}
		}
		root = &query.Project{Refs: refs, Child: root}
	case 1:
		fns := []engine.AggFunc{engine.AggCount, engine.AggSum, engine.AggAvg, engine.AggMin, engine.AggMax}
		agg := &query.Aggregate{Func: fns[rng.Intn(len(fns))], Child: root}
		if agg.Func != engine.AggCount {
			agg.Ref = pickRef()
		}
		root = agg
	default:
		refs := make([]query.AttrRef, 1+rng.Intn(3))
		for i := range refs {
			refs[i] = pickRef()
		}
		root = &query.Project{Refs: refs, Child: root}
	}

	q := &query.Query{Name: "rand", Target: target, Root: root}
	if err := q.Validate(); err != nil {
		// Ambiguous unqualified reference drawn by bad luck: skip by retrying
		// with a derived seed so the test stays deterministic.
		return randomQuery(t, rand.New(rand.NewSource(int64(iter)*7919+int64(rng.Int63()%1000))), target, iter)
	}
	return q
}

func negZero() float64 {
	z := 0.0
	return -z
}
