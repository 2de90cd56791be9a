package match

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/probdb/urm/internal/schema"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"deliverToStreet", []string{"deliver", "to", "street"}},
		{"invoice_to", []string{"invoice", "to"}},
		{"itemNum1", []string{"item", "num", "1"}},
		{"PO", []string{"po"}},
		{"ship-to-phone", []string{"ship", "to", "phone"}},
		{"", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestNGramsAndJaccard(t *testing.T) {
	g := NGrams("phone", 3)
	if len(g) != 3 || !g["pho"] || !g["hon"] || !g["one"] {
		t.Errorf("NGrams(phone,3) = %v", g)
	}
	if len(NGrams("ab", 3)) != 1 {
		t.Error("short strings should yield one gram")
	}
	if len(NGrams("", 3)) != 0 {
		t.Error("empty string should yield no grams")
	}
	if len(NGrams("abc", 0)) != 0 {
		t.Error("non-positive n should yield no grams")
	}
	if JaccardStrings(nil, nil) != 1 {
		t.Error("Jaccard of two empty sets should be 1")
	}
	if JaccardStrings(map[string]bool{"a": true}, nil) != 0 {
		t.Error("Jaccard with one empty set should be 0")
	}
	j := JaccardStrings(map[string]bool{"a": true, "b": true}, map[string]bool{"b": true, "c": true})
	if math.Abs(j-1.0/3.0) > 1e-12 {
		t.Errorf("Jaccard = %g, want 1/3", j)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"phone", "phone", 0},
		{"phone", "phones", 1},
		{"ophone", "hphone", 1},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if EditSimilarity("phone", "phone") != 1 {
		t.Error("identical strings should have edit similarity 1")
	}
	if EditSimilarity("", "") != 1 {
		t.Error("empty strings should have edit similarity 1")
	}
	if s := EditSimilarity("abc", "xyz"); s != 0 {
		t.Errorf("disjoint strings similarity = %g, want 0", s)
	}
}

func TestNameSimilarity(t *testing.T) {
	if NameSimilarity("telephone", "telephone") != 1 {
		t.Error("equal names should score 1")
	}
	if NameSimilarity("Telephone", "telephone") != 1 {
		t.Error("case-insensitive equality should score 1")
	}
	related := NameSimilarity("telephone", "phone")
	unrelated := NameSimilarity("telephone", "orderdate")
	if related <= unrelated {
		t.Errorf("telephone~phone (%g) should exceed telephone~orderdate (%g)", related, unrelated)
	}
	synRelated := NameSimilarity("shipToAddress", "deliverToStreet")
	if synRelated <= 0.2 {
		t.Errorf("synonym-related names should have material similarity, got %g", synRelated)
	}
	for _, pair := range [][2]string{{"a", "b"}, {"phone", "telephone"}, {"x", ""}} {
		s := NameSimilarity(pair[0], pair[1])
		if s < 0 || s > 1 {
			t.Errorf("similarity out of range for %v: %g", pair, s)
		}
	}
}

// Property: similarity is symmetric and bounded.
func TestNameSimilarityProperties(t *testing.T) {
	words := []string{"phone", "telephone", "addr", "address", "orderNum", "itemNum", "price", "total", "cname", "pname", "x", ""}
	prop := func(i, j uint8) bool {
		a := words[int(i)%len(words)]
		b := words[int(j)%len(words)]
		s1, s2 := NameSimilarity(a, b), NameSimilarity(b, a)
		return math.Abs(s1-s2) < 1e-12 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHungarianSimple(t *testing.T) {
	// Classic 3x3: optimal assignment is the diagonal-ish max.
	w := [][]float64{
		{0.9, 0.2, 0.1},
		{0.3, 0.8, 0.1},
		{0.1, 0.2, 0.7},
	}
	a := newAssignmentProblem(w).solve()
	if math.Abs(a.weight-2.4) > 1e-9 {
		t.Errorf("weight = %g, want 2.4", a.weight)
	}
	for i, j := range a.assign {
		if i != j {
			t.Errorf("assign[%d] = %d, want diagonal", i, j)
		}
	}
}

func TestHungarianPrefersSwap(t *testing.T) {
	// Greedy would take (0,0)=0.9 then (1,1)=0.1 for 1.0, but the optimum is
	// the anti-diagonal 0.8+0.8=1.6.
	w := [][]float64{
		{0.9, 0.8},
		{0.8, 0.1},
	}
	a := newAssignmentProblem(w).solve()
	if math.Abs(a.weight-1.6) > 1e-9 {
		t.Errorf("weight = %g, want 1.6", a.weight)
	}
}

func TestHungarianPartialAndForbidden(t *testing.T) {
	// Row 1 has no usable candidate; it must stay unassigned.
	w := [][]float64{
		{0.9, 0.5},
		{negInf, negInf},
	}
	a := newAssignmentProblem(w).solve()
	if a.assign[1] != -1 {
		t.Errorf("row 1 should be unassigned, got %d", a.assign[1])
	}
	if math.Abs(a.weight-0.9) > 1e-9 {
		t.Errorf("weight = %g, want 0.9", a.weight)
	}
	// More rows than columns: at most one row can be assigned.
	w2 := [][]float64{{0.5}, {0.6}, {0.7}}
	a2 := newAssignmentProblem(w2).solve()
	assigned := 0
	for _, c := range a2.assign {
		if c >= 0 {
			assigned++
		}
	}
	if assigned != 1 || math.Abs(a2.weight-0.7) > 1e-9 {
		t.Errorf("rectangular case: assigned=%d weight=%g", assigned, a2.weight)
	}
	// Empty problem.
	a3 := newAssignmentProblem(nil).solve()
	if len(a3.assign) != 0 || a3.weight != 0 {
		t.Errorf("empty problem should solve trivially, got %+v", a3)
	}
}

func TestRequireAndForbid(t *testing.T) {
	w := [][]float64{
		{0.9, 0.8},
		{0.8, 0.1},
	}
	p := newAssignmentProblem(w)
	p.require(0, 0) // force the greedy edge
	a := p.solve()
	if a.assign[0] != 0 {
		t.Errorf("required edge not used: %v", a.assign)
	}
	if math.Abs(a.weight-1.0) > 1e-9 {
		t.Errorf("weight with requirement = %g, want 1.0", a.weight)
	}
	p2 := newAssignmentProblem(w)
	p2.forbid(0, 1)
	p2.forbid(1, 0)
	a2 := p2.solve()
	if math.Abs(a2.weight-1.0) > 1e-9 {
		t.Errorf("weight with forbidden anti-diagonal = %g, want 1.0", a2.weight)
	}
}

// bruteForceKBest enumerates all one-to-one partial assignments of the matrix
// and returns the totals of the top k, for cross-checking Murty.
func bruteForceKBest(w [][]float64, k int) []float64 {
	nRows := len(w)
	nCols := 0
	if nRows > 0 {
		nCols = len(w[0])
	}
	var totals []float64
	seen := make(map[string]bool)
	var rec func(row int, used []bool, sum float64, sig string)
	rec = func(row int, used []bool, sum float64, sig string) {
		if row == nRows {
			if !seen[sig] {
				seen[sig] = true
				totals = append(totals, sum)
			}
			return
		}
		rec(row+1, used, sum, sig+".")
		for c := 0; c < nCols; c++ {
			if used[c] || math.IsInf(w[row][c], -1) || w[row][c] <= 0 {
				continue
			}
			used[c] = true
			rec(row+1, used, sum+w[row][c], sig+string(rune('a'+c)))
			used[c] = false
		}
	}
	rec(0, make([]bool, nCols), 0, "")
	sort.Sort(sort.Reverse(sort.Float64Slice(totals)))
	if len(totals) > k {
		totals = totals[:k]
	}
	return totals
}

func TestMurtyKBestMatchesBruteForce(t *testing.T) {
	w := [][]float64{
		{0.9, 0.6, negInf},
		{0.7, 0.8, 0.3},
		{negInf, 0.5, 0.4},
	}
	got := murtyKBest(w, 8)
	want := bruteForceKBest(w, 8)
	if len(got) == 0 {
		t.Fatal("murty returned no assignments")
	}
	// Murty's solutions must come out in non-increasing weight order and the
	// i-th weight must match the brute-force i-th best mapping weight.
	for i := 1; i < len(got); i++ {
		if got[i].weight > got[i-1].weight+1e-9 {
			t.Errorf("murty weights not sorted: %g after %g", got[i].weight, got[i-1].weight)
		}
	}
	limit := len(got)
	if len(want) < limit {
		limit = len(want)
	}
	for i := 0; i < limit; i++ {
		if math.Abs(got[i].weight-want[i]) > 1e-9 {
			t.Errorf("k=%d: murty weight %g, brute force %g", i, got[i].weight, want[i])
		}
	}

	// Seeded random matrices with forbidden cells and tied scores: a single
	// solve reaches the brute-force optimum, the ranking never rises, and
	// its distinct assignments are the brute-force ranking's prefix.  (The
	// ranking may repeat an assignment: a node can branch on a pair it
	// already requires; ROADMAP item 25.)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 300; n++ {
		w := randomWeights(rng, rng.Intn(5)+1, rng.Intn(6)+1)
		want := bruteForceKBest(w, 8)
		got := murtyKBest(w, 8)
		if math.Abs(got[0].weight-want[0]) > 1e-9 {
			t.Errorf("%v: solve weight %g, brute-force optimum %g", w, got[0].weight, want[0])
		}
		seen := make(map[string]bool)
		var distinct []float64
		for i, a := range got {
			if i > 0 && a.weight > got[i-1].weight+1e-9 {
				t.Errorf("%v: murty weights not sorted: %g after %g", w, a.weight, got[i-1].weight)
			}
			if key := fmt.Sprint(a.assign); !seen[key] {
				seen[key] = true
				distinct = append(distinct, a.weight)
			}
		}
		if len(distinct) > len(want) {
			t.Fatalf("%v: %d distinct assignments, brute force has %d", w, len(distinct), len(want))
		}
		for i, d := range distinct {
			if math.Abs(d-want[i]) > 1e-9 {
				t.Errorf("%v: distinct k=%d: murty weight %g, brute force %g", w, i, d, want[i])
			}
		}
	}
}

// randomWeights draws a rows × cols matrix: about a third of the cells are
// forbidden and the rest take one of five scores, so ties are common.
func randomWeights(rng *rand.Rand, rows, cols int) [][]float64 {
	w := make([][]float64, rows)
	for i := range w {
		w[i] = make([]float64, cols)
		for j := range w[i] {
			if rng.Intn(3) == 0 {
				w[i][j] = negInf
			} else {
				w[i][j] = float64(rng.Intn(5)+1) / 10
			}
		}
	}
	return w
}

func attr(rel, name string) schema.Attribute { return schema.Attribute{Relation: rel, Name: name} }

// figure1Correspondences reproduces the running example of Figure 1: the
// Person target relation with ambiguous phone and addr attributes.
func figure1Correspondences() []schema.Correspondence {
	return []schema.Correspondence{
		{Source: attr("Customer", "cname"), Target: attr("Person", "pname"), Score: 0.85},
		{Source: attr("Customer", "ophone"), Target: attr("Person", "phone"), Score: 0.85},
		{Source: attr("Customer", "hphone"), Target: attr("Person", "phone"), Score: 0.83},
		{Source: attr("Customer", "mobile"), Target: attr("Person", "phone"), Score: 0.65},
		{Source: attr("Customer", "oaddr"), Target: attr("Person", "addr"), Score: 0.75},
		{Source: attr("Customer", "haddr"), Target: attr("Person", "addr"), Score: 0.65},
		{Source: attr("Nation", "name"), Target: attr("Person", "nation"), Score: 0.81},
	}
}

func TestKBestMappingsFigure1(t *testing.T) {
	set, err := KBestMappings(figure1Correspondences(), KBestOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 5 {
		t.Fatalf("got %d mappings, want 5", len(set))
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("mapping set invalid: %v", err)
	}
	// Probabilities are sorted non-increasing because mapping scores are.
	for i := 1; i < len(set); i++ {
		if set[i].Prob > set[i-1].Prob+1e-9 {
			t.Errorf("probabilities not ordered: %g after %g", set[i].Prob, set[i-1].Prob)
		}
	}
	// The best mapping uses the highest-score alternatives: ophone and oaddr.
	best := set[0]
	if src, _ := best.SourceFor(attr("Person", "phone")); src != attr("Customer", "ophone") {
		t.Errorf("best mapping phone -> %v, want ophone", src)
	}
	if src, _ := best.SourceFor(attr("Person", "addr")); src != attr("Customer", "oaddr") {
		t.Errorf("best mapping addr -> %v, want oaddr", src)
	}
	// Every mapping keeps the unambiguous correspondences.
	for _, m := range set {
		if src, ok := m.SourceFor(attr("Person", "pname")); !ok || src != attr("Customer", "cname") {
			t.Errorf("mapping %s lost forced correspondence pname->cname", m.ID)
		}
	}
	// All signatures are distinct.
	sigs := make(map[string]bool)
	for _, m := range set {
		if sigs[m.Signature()] {
			t.Errorf("duplicate mapping signature for %s", m.ID)
		}
		sigs[m.Signature()] = true
	}
	// Mappings overlap highly, the property the paper exploits.
	if r := set.ORatio(); r < 0.4 {
		t.Errorf("o-ratio = %g, expected high overlap", r)
	}
}

func TestKBestMappingsErrors(t *testing.T) {
	if _, err := KBestMappings(nil, KBestOptions{K: 3}); err == nil {
		t.Error("empty correspondences should error")
	}
	if _, err := KBestMappings(figure1Correspondences(), KBestOptions{K: 0}); err == nil {
		t.Error("K=0 should error")
	}
	bad := []schema.Correspondence{{Source: attr("A", "a"), Target: attr("B", "b"), Score: 0}}
	if _, err := KBestMappings(bad, KBestOptions{K: 1}); err == nil {
		t.Error("non-positive scores should error")
	}
}

func TestKBestMappingsUnambiguous(t *testing.T) {
	corrs := []schema.Correspondence{
		{Source: attr("C", "a"), Target: attr("T", "x"), Score: 0.9},
		{Source: attr("C", "b"), Target: attr("T", "y"), Score: 0.8},
	}
	set, err := KBestMappings(corrs, KBestOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("unambiguous matching should yield exactly 1 mapping, got %d", len(set))
	}
	if set[0].Prob != 1 {
		t.Errorf("single mapping probability = %g, want 1", set[0].Prob)
	}
	if set[0].Size() != 2 {
		t.Errorf("mapping size = %d, want 2", set[0].Size())
	}
}

func personCustomerSchemas() (*schema.Schema, *schema.Schema) {
	src := schema.NewSchema("Source")
	src.MustAddRelation(&schema.RelationSchema{Name: "Customer", Columns: []schema.Column{
		{Name: "cid"}, {Name: "cname"}, {Name: "ophone"}, {Name: "hphone"}, {Name: "mobile"},
		{Name: "oaddr"}, {Name: "haddr"}, {Name: "nid"},
	}})
	src.MustAddRelation(&schema.RelationSchema{Name: "Nation", Columns: []schema.Column{
		{Name: "nid"}, {Name: "name"},
	}})
	tgt := schema.NewSchema("Target")
	tgt.MustAddRelation(&schema.RelationSchema{Name: "Person", Columns: []schema.Column{
		{Name: "pname"}, {Name: "phone"}, {Name: "addr"}, {Name: "nation"}, {Name: "gender"},
	}})
	return src, tgt
}

func TestMatcherProducesAmbiguousCandidates(t *testing.T) {
	src, tgt := personCustomerSchemas()
	mt := NewMatcher(MatcherOptions{Threshold: 0.4}).Match(src, tgt)
	if err := mt.Validate(); err != nil {
		t.Fatalf("matching invalid: %v", err)
	}
	if len(mt.Correspondences) == 0 {
		t.Fatal("matcher found no correspondences")
	}
	// The phone target attribute should have several candidates (ophone,
	// hphone, mobile) — this ambiguity is what creates multiple mappings.
	phoneCands := 0
	for _, c := range mt.Correspondences {
		if c.Target == attr("Person", "phone") {
			phoneCands++
		}
	}
	if phoneCands < 2 {
		t.Errorf("phone has %d candidates, want >= 2", phoneCands)
	}
}

func TestBuildMatching(t *testing.T) {
	src, tgt := personCustomerSchemas()
	mt, err := BuildMatching(src, tgt, MatcherOptions{Threshold: 0.4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.Mappings) == 0 {
		t.Fatal("no mappings derived")
	}
	if err := mt.Mappings.Validate(); err != nil {
		t.Errorf("mappings invalid: %v", err)
	}
	if len(mt.Mappings) > 5 {
		t.Errorf("more mappings than requested: %d", len(mt.Mappings))
	}
	// MaxCandidatesPerTarget trims candidates.
	trimmed := NewMatcher(MatcherOptions{Threshold: 0.4, MaxCandidatesPerTarget: 1}).Match(src, tgt)
	perTarget := make(map[schema.Attribute]int)
	for _, c := range trimmed.Correspondences {
		perTarget[c.Target]++
	}
	for a, n := range perTarget {
		if n > 1 {
			t.Errorf("target %v has %d candidates after trimming", a, n)
		}
	}
	// Error paths.
	if err := DeriveMappings(nil, 5); err == nil {
		t.Error("DeriveMappings(nil) should error")
	}
	empty := schema.NewSchema("Empty")
	if _, err := BuildMatching(empty, tgt, MatcherOptions{}, 5); err == nil {
		t.Error("BuildMatching with empty source should error")
	}
}

// Property: for any correspondence set built from a small random pattern, the
// generated mapping set validates, has at most K members, all one-to-one.
func TestKBestMappingsProperty(t *testing.T) {
	prop := func(seed uint16, kRaw uint8) bool {
		k := int(kRaw)%6 + 1
		// Build up to 4 target attributes, each with 1-3 source candidates
		// drawn from a pool of 5 sources (shared across targets, creating
		// conflicts).
		var corrs []schema.Correspondence
		s := uint32(seed) + 1
		next := func(n int) int {
			s = s*1664525 + 1013904223
			return int(s>>16) % n
		}
		sources := []string{"s1", "s2", "s3", "s4", "s5"}
		for ti := 0; ti < 4; ti++ {
			nc := next(3) + 1
			used := map[int]bool{}
			for c := 0; c < nc; c++ {
				si := next(len(sources))
				if used[si] {
					continue
				}
				used[si] = true
				corrs = append(corrs, schema.Correspondence{
					Source: attr("S", sources[si]),
					Target: attr("T", string(rune('a'+ti))),
					Score:  0.1 + float64(next(90))/100.0,
				})
			}
		}
		if len(corrs) == 0 {
			return true
		}
		set, err := KBestMappings(corrs, KBestOptions{K: k})
		if err != nil {
			return false
		}
		if len(set) == 0 || len(set) > k {
			return false
		}
		return set.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
