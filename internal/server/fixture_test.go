package server

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// The test scenario: source S(x, y, z), target T(a, b), two mappings that
// agree on a→x and disagree on b (y versus z).  Small enough to evaluate in
// microseconds, with a self-product query available when a test needs an
// evaluation slow enough to race against (see slowQueryText).

func serveSourceSchema() *schema.Schema {
	s := schema.NewSchema("Source")
	s.MustAddRelation(&schema.RelationSchema{Name: "S", Columns: []schema.Column{
		{Name: "x"}, {Name: "y", Type: schema.TypeInt}, {Name: "z", Type: schema.TypeInt},
	}})
	return s
}

func serveTargetSchema() *schema.Schema {
	t := schema.NewSchema("Target")
	t.MustAddRelation(&schema.RelationSchema{Name: "T", Columns: []schema.Column{
		{Name: "a"}, {Name: "b", Type: schema.TypeInt},
	}})
	return t
}

// serveInstance builds S with n rows: x cycles through 40 distinct labels,
// y = i%23, z = i%17.
func serveInstance(n int) *engine.Instance {
	db := engine.NewInstance("D")
	rel := engine.NewRelation("S", []string{"x", "y", "z"})
	for i := 0; i < n; i++ {
		rel.MustAppend(engine.Tuple{
			engine.S(fmt.Sprintf("k%02d", i%40)),
			engine.I(int64(i % 23)),
			engine.I(int64(i % 17)),
		})
	}
	db.AddRelation(rel)
	return db
}

func serveMappings() schema.MappingSet {
	sAttr := func(name string) schema.Attribute { return schema.Attribute{Relation: "S", Name: name} }
	tAttr := func(name string) schema.Attribute { return schema.Attribute{Relation: "T", Name: name} }
	m1 := schema.MustNewMapping("m1", []schema.Correspondence{
		{Source: sAttr("x"), Target: tAttr("a"), Score: 0.9},
		{Source: sAttr("y"), Target: tAttr("b"), Score: 0.8},
	}, 0.6)
	m2 := schema.MustNewMapping("m2", []schema.Correspondence{
		{Source: sAttr("x"), Target: tAttr("a"), Score: 0.9},
		{Source: sAttr("z"), Target: tAttr("b"), Score: 0.7},
	}, 0.4)
	return schema.MappingSet{m1, m2}
}

// The join fixture adds a second source relation G(k, label, tier) behind a
// second target relation U(c, d): 23 rows, one per value S.y and S.z take, so
// T.b = U.c joins every S row to exactly one G row, while label and tier have
// 3 and 2 distinct values.  Projecting U.d over that join is what a scatter
// group's answer looks like at its worst: hundreds of rows, a handful of
// distinct tuples.  The three mappings disagree on T.b (y, z, y) and on U.d
// (label, label, tier), so m1 and m3 share their join and differ only in the
// projection above it — the subexpression e-MQO materializes once.  S stays
// the partitioned relation; G is replicated.

func joinTargetSchema() *schema.Schema {
	t := serveTargetSchema()
	t.MustAddRelation(&schema.RelationSchema{Name: "U", Columns: []schema.Column{
		{Name: "c", Type: schema.TypeInt}, {Name: "d"},
	}})
	return t
}

func joinInstance(n int) *engine.Instance {
	db := serveInstance(n)
	rel := engine.NewRelation("G", []string{"k", "label", "tier"})
	for k := 0; k < 23; k++ {
		rel.MustAppend(engine.Tuple{engine.I(int64(k)), engine.S(fmt.Sprintf("g%d", k%3)), engine.I(int64(k % 2))})
	}
	db.AddRelation(rel)
	return db
}

func joinMappings() schema.MappingSet {
	attr := func(rel, name string) schema.Attribute { return schema.Attribute{Relation: rel, Name: name} }
	mapping := func(id, b, d string, prob float64) *schema.Mapping {
		return schema.MustNewMapping(id, []schema.Correspondence{
			{Source: attr("S", "x"), Target: attr("T", "a"), Score: 0.9},
			{Source: attr("S", b), Target: attr("T", "b"), Score: 0.8},
			{Source: attr("G", "k"), Target: attr("U", "c"), Score: 0.9},
			{Source: attr("G", d), Target: attr("U", "d"), Score: 0.7},
		}, prob)
	}
	return schema.MappingSet{mapping("m1", "y", "label", 0.5), mapping("m2", "z", "label", 0.3), mapping("m3", "y", "tier", 0.2)}
}

// testFixture is what a test scenario is registered from.
type testFixture struct {
	target   func() *schema.Schema
	instance func(n int) *engine.Instance
	mappings func() schema.MappingSet
}

var (
	serveFixture = testFixture{serveTargetSchema, serveInstance, serveMappings}
	joinFixture  = testFixture{joinTargetSchema, joinInstance, joinMappings}
)

const (
	// joinQueryText projects a low-cardinality column over the join fixture's
	// join: every group plan emits one row per S row and at most three
	// distinct tuples.
	joinQueryText = "SELECT U.d FROM T, U WHERE T.b = U.c"
	// fastQueryText evaluates in microseconds (index probe over S).
	fastQueryText = "SELECT a FROM T WHERE b = 7"
	// slowQueryText forces a Cartesian self-product with a non-equi condition
	// — rows² pairs per mapping — so tests can hold an evaluation slot or a
	// deadline open long enough to observe concurrent behaviour.
	slowQueryText = "SELECT P1.a FROM T P1, T P2 WHERE P1.b < P2.b"
)

// tuple builds one S row.
func tuple(x string, y, z int64) engine.Tuple {
	return engine.Tuple{engine.S(x), engine.I(y), engine.I(z)}
}

// newTestServer registers one scenario ("test", n source rows) on a fresh
// registry and returns the server and scenario.
func newTestServer(t *testing.T, n int, cfg Config) (*Server, *Scenario) {
	t.Helper()
	return newTestServerOn(t, serveFixture, n, cfg)
}

// newTestServerOn is newTestServer over any fixture.
func newTestServerOn(t *testing.T, fx testFixture, n int, cfg Config) (*Server, *Scenario) {
	t.Helper()
	reg := NewRegistry()
	sc, err := reg.Register(context.Background(), "test", fx.target(), fx.instance(n), fx.mappings(),
		RegisterOptions{TargetLabel: "Test", WarmIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	return New(reg, cfg), sc
}

// sameResult asserts bit-identical results: same answer tuples in the same
// order with the same probability bits (not approximately equal ones), same
// empty probability bits, same columns.
func sameResult(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if len(want.Answers) != len(got.Answers) {
		t.Fatalf("%s: %d answers, want %d", label, len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		w, g := want.Answers[i], got.Answers[i]
		if !w.Tuple.EqualKey(g.Tuple) || math.Float64bits(w.Prob) != math.Float64bits(g.Prob) {
			t.Fatalf("%s: answer %d = %v@%v, want %v@%v", label, i, g.Tuple, g.Prob, w.Tuple, w.Prob)
		}
	}
	if math.Float64bits(want.EmptyProb) != math.Float64bits(got.EmptyProb) {
		t.Fatalf("%s: empty prob %v, want %v", label, got.EmptyProb, want.EmptyProb)
	}
	if len(want.Columns) != len(got.Columns) {
		t.Fatalf("%s: columns %v, want %v", label, got.Columns, want.Columns)
	}
	for i := range want.Columns {
		if want.Columns[i] != got.Columns[i] {
			t.Fatalf("%s: columns %v, want %v", label, got.Columns, want.Columns)
		}
	}
}

// evaluateFresh is the reference evaluation the server tests compare against:
// a core.Prepared of its own — sharing nothing with the server's prepared,
// answer or delta state — executed once under the scenario's evaluation lock,
// so a concurrent AppendRow cannot mutate relation data mid-scan.
func evaluateFresh(ctx context.Context, sc *Scenario, q *query.Query, topK int, opts core.Options) (*core.Result, error) {
	prep, err := core.NewEvaluator(sc.DB(), sc.Mappings()).Prepare(q)
	if err != nil {
		return nil, err
	}
	opts.TopK = topK
	return sc.EvaluatePrepared(ctx, prep, opts)
}
