package datagen

import (
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

func TestSourceSchemaShape(t *testing.T) {
	s := SourceSchema()
	if len(s.Relations) != 8 {
		t.Errorf("relations = %d, want 8", len(s.Relations))
	}
	if got := s.NumAttributes(); got != 46 {
		t.Errorf("attributes = %d, want 46 (paper's TPC-H schema)", got)
	}
}

func TestTargetSchemaShapes(t *testing.T) {
	want := map[TargetName]int{TargetExcel: 48, TargetNoris: 66, TargetParagon: 69}
	for name, attrs := range want {
		s := TargetSchema(name)
		if got := s.NumAttributes(); got != attrs {
			t.Errorf("%s attributes = %d, want %d", name, got, attrs)
		}
		if s.Relation("PO") == nil || s.Relation("Item") == nil {
			t.Errorf("%s must expose PO and Item relations", name)
		}
	}
	if len(AllTargets()) != 3 {
		t.Error("AllTargets should list 3 schemas")
	}
	for _, name := range []string{"Excel", "noris", "Paragon"} {
		if _, err := ParseTarget(name); err != nil {
			t.Errorf("ParseTarget(%q): %v", name, err)
		}
	}
	if _, err := ParseTarget("nope"); err == nil {
		t.Error("ParseTarget(nope) should error")
	}
}

func TestCorrespondenceCounts(t *testing.T) {
	// The paper reports COMA++ returning 34, 18 and 31 correspondences.
	want := map[TargetName]int{TargetExcel: 34, TargetNoris: 18, TargetParagon: 31}
	src := SourceSchema()
	for name, count := range want {
		corrs := Correspondences(name)
		if len(corrs) != count {
			t.Errorf("%s correspondences = %d, want %d", name, len(corrs), count)
		}
		tgt := TargetSchema(name)
		for _, c := range corrs {
			if !src.HasAttribute(c.Source) {
				t.Errorf("%s: source attribute %v not in TPC-H schema", name, c.Source)
			}
			if !tgt.HasAttribute(c.Target) {
				t.Errorf("%s: target attribute %v not in target schema", name, c.Target)
			}
			if c.Score <= 0 || c.Score > 1 {
				t.Errorf("%s: score %g out of range for %v", name, c.Score, c)
			}
		}
	}
}

func TestGenerateSourceDeterministicAndScaled(t *testing.T) {
	a := GenerateSource(SourceOptions{SizeMB: 40, Seed: 7})
	b := GenerateSource(SourceOptions{SizeMB: 40, Seed: 7})
	if a.NumRows() != b.NumRows() {
		t.Errorf("same seed produced different sizes: %d vs %d", a.NumRows(), b.NumRows())
	}
	ra := a.Relation("Orders").Rows[0]
	rb := b.Relation("Orders").Rows[0]
	if !ra.Equal(rb) {
		t.Error("same seed produced different rows")
	}
	small := GenerateSource(SourceOptions{SizeMB: 20})
	large := GenerateSource(SourceOptions{SizeMB: 100})
	if small.NumRows() >= large.NumRows() {
		t.Errorf("20MB instance (%d rows) should be smaller than 100MB (%d rows)", small.NumRows(), large.NumRows())
	}
	for _, rel := range []string{"Region", "Nation", "Supplier", "Customer", "Part", "PartSupp", "Orders", "Lineitem"} {
		if large.Relation(rel) == nil || large.Relation(rel).NumRows() == 0 {
			t.Errorf("relation %s missing or empty", rel)
		}
	}
	// Hot values appear in the columns the workload predicates probe.
	hotCount := func(db *engine.Instance, rel, col, val string) int {
		r := db.Relation(rel)
		idx := r.ColumnIndex(col)
		n := 0
		for _, row := range r.Rows {
			if row[idx].Equal(engine.S(val)) {
				n++
			}
		}
		return n
	}
	if hotCount(large, "Customer", "c_phone", HotPhone) == 0 {
		t.Error("no hot phone values in Customer")
	}
	if hotCount(large, "Orders", "o_contactname", HotName) == 0 {
		t.Error("no hot names in Orders")
	}
	if hotCount(large, "Customer", "c_address", HotAddress) == 0 {
		t.Error("no hot addresses in Customer")
	}
}

func TestNewDatasetDerivesMappings(t *testing.T) {
	for _, tgt := range AllTargets() {
		ds, err := NewDataset(DatasetOptions{Target: tgt, NumMappings: 30, SizeMB: 10})
		if err != nil {
			t.Fatalf("%s: %v", tgt, err)
		}
		if err := ds.Matching.Validate(); err != nil {
			t.Errorf("%s: matching invalid: %v", tgt, err)
		}
		if len(ds.Mappings()) < 10 {
			t.Errorf("%s: only %d mappings derived", tgt, len(ds.Mappings()))
		}
		// The mappings must overlap heavily (the property Figure 9 reports:
		// o-ratio between 68%% and 79%%).
		if r := ds.Mappings().ORatio(); r < 0.5 {
			t.Errorf("%s: o-ratio = %.2f, expected high overlap", tgt, r)
		}
		// Prefixes renormalise.
		p := ds.MappingsPrefix(5)
		if len(p) != 5 {
			t.Errorf("%s: prefix length = %d", tgt, len(p))
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: prefix does not validate: %v", tgt, err)
		}
		if got := ds.MappingsPrefix(10_000); len(got) != len(ds.Mappings()) {
			t.Errorf("%s: oversized prefix should clamp", tgt)
		}
	}
	if _, err := NewDataset(DatasetOptions{Target: TargetName("bogus")}); err == nil {
		t.Error("unknown target schema should be rejected")
	}
}

func TestWorkloadQueriesParseAndValidate(t *testing.T) {
	for id := 1; id <= NumWorkloadQueries; id++ {
		q, err := WorkloadQuery(id)
		if err != nil {
			t.Fatalf("Q%d: %v", id, err)
		}
		if err := q.Validate(); err != nil {
			t.Errorf("Q%d invalid: %v", id, err)
		}
		tgt, err := QueryTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		if q.Target.Name != string(tgt) {
			t.Errorf("Q%d target = %s, want %s", id, q.Target.Name, tgt)
		}
		if q.NumOperators() == 0 {
			t.Errorf("Q%d has no operators", id)
		}
	}
	// The queries of one target share one schema, parsed once; TargetSchema
	// still hands out a fresh one.
	if MustWorkloadQuery(1).Target != MustWorkloadQuery(4).Target {
		t.Error("Q1 and Q4 should share the Excel schema")
	}
	if TargetSchema(TargetExcel) == TargetSchema(TargetExcel) || TargetSchema(TargetExcel) == MustWorkloadQuery(1).Target {
		t.Error("TargetSchema should build a fresh schema on every call")
	}
	if _, err := WorkloadQuery(0); err == nil {
		t.Error("id 0 should error")
	}
	if _, err := WorkloadQuery(11); err == nil {
		t.Error("id 11 should error")
	}
	if _, err := QueryTarget(0); err == nil {
		t.Error("QueryTarget(0) should error")
	}
	// Q5 and Q10 are aggregates, Q9 is a SUM.
	if _, ok := MustWorkloadQuery(5).Root.(*query.Aggregate); !ok {
		t.Error("Q5 should be a COUNT query")
	}
	if agg, ok := MustWorkloadQuery(9).Root.(*query.Aggregate); !ok || agg.Func != engine.AggSum {
		t.Error("Q9 should be a SUM query")
	}
}

func TestParametricQueryFamilies(t *testing.T) {
	for n := 1; n <= 5; n++ {
		q, err := SelectionChainQuery(n)
		if err != nil {
			t.Fatalf("selection chain %d: %v", n, err)
		}
		// n selections plus the projection.
		if got := q.NumOperators(); got != n+1 {
			t.Errorf("selection chain %d has %d operators, want %d", n, got, n+1)
		}
	}
	if _, err := SelectionChainQuery(0); err == nil {
		t.Error("0 selections should error")
	}
	if _, err := SelectionChainQuery(6); err == nil {
		t.Error("6 selections should error")
	}
	for p := 1; p <= 3; p++ {
		q, err := SelfJoinQuery(p)
		if err != nil {
			t.Fatalf("self join %d: %v", p, err)
		}
		if got := len(q.Scans()); got != p+1 {
			t.Errorf("self join %d has %d relation occurrences, want %d", p, got, p+1)
		}
	}
	if _, err := SelfJoinQuery(0); err == nil {
		t.Error("0 products should error")
	}
	if _, err := SelfJoinQuery(4); err == nil {
		t.Error("4 products should error")
	}
}

// TestWorkloadEndToEnd runs every Table III query end to end on a small
// instance with every evaluation method and checks cross-method consistency.
func TestWorkloadEndToEnd(t *testing.T) {
	datasets := make(map[TargetName]*Dataset)
	for _, tgt := range AllTargets() {
		ds, err := NewDataset(DatasetOptions{Target: tgt, NumMappings: 12, SizeMB: 6})
		if err != nil {
			t.Fatal(err)
		}
		datasets[tgt] = ds
	}
	for id := 1; id <= NumWorkloadQueries; id++ {
		tgt, _ := QueryTarget(id)
		ds := datasets[tgt]
		q := MustWorkloadQuery(id)
		want, err := core.NewEvaluator(ds.DB, ds.Mappings()).Evaluate(q, core.Options{Method: core.MethodBasic, Parallelism: 1})
		if err != nil {
			t.Fatalf("Q%d basic: %v", id, err)
		}
		for _, method := range []core.Method{core.MethodEBasic, core.MethodQSharing, core.MethodOSharing} {
			got, err := core.NewEvaluator(ds.DB, ds.Mappings()).Evaluate(q, core.Options{Method: method})
			if err != nil {
				t.Fatalf("Q%d %v: %v", id, method, err)
			}
			if len(got.Answers) != len(want.Answers) {
				t.Errorf("Q%d %v: %d answers, basic has %d", id, method, len(got.Answers), len(want.Answers))
				continue
			}
			for i := range want.Answers {
				if want.Answers[i].Tuple.Key() != got.Answers[i].Tuple.Key() {
					t.Errorf("Q%d %v: answer %d tuple mismatch", id, method, i)
					break
				}
				if diff := want.Answers[i].Prob - got.Answers[i].Prob; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("Q%d %v: answer %d prob %g vs %g", id, method, i, got.Answers[i].Prob, want.Answers[i].Prob)
					break
				}
			}
		}
	}
}

// TestMappingCoverageOfWorkload checks that for every workload query at least
// one mapping covers all its target attributes, so answers are non-trivial.
func TestMappingCoverageOfWorkload(t *testing.T) {
	for id := 1; id <= NumWorkloadQueries; id++ {
		tgt, _ := QueryTarget(id)
		ds, err := NewDataset(DatasetOptions{Target: tgt, NumMappings: 20, SizeMB: 5})
		if err != nil {
			t.Fatal(err)
		}
		q := MustWorkloadQuery(id)
		res, err := q.Resolve()
		if err != nil {
			t.Fatalf("Q%d: %v", id, err)
		}
		attrs := res.Attributes()
		covered := 0
		for _, m := range ds.Mappings() {
			if m.Covers(attrs) {
				covered++
			}
		}
		if covered == 0 {
			t.Errorf("Q%d: no mapping covers its %d attributes", id, len(attrs))
		}
	}
}

var _ = schema.Attribute{} // keep the schema import referenced in helper-only builds
