package core

import (
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// TestBasicPaperExample reproduces the worked example of Section III-B:
// π_phone σ_addr='aaa' Person over the Figure 3 mappings and the Figure 2
// instance yields (123, 0.5), (456, 0.8), (789, 0.2).
func TestBasicPaperExample(t *testing.T) {
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	res, err := Basic(exec.Sequential(), q, paperMappings(), paperInstance())
	if err != nil {
		t.Fatal(err)
	}
	got := answersByValue(res)
	want := map[string]float64{"123": 0.5, "456": 0.8, "789": 0.2}
	if len(got) != len(want) {
		t.Fatalf("answers = %v, want %v", got, want)
	}
	for k, p := range want {
		if !approxEqual(got[k], p) {
			t.Errorf("answer %q prob = %g, want %g", k, got[k], p)
		}
	}
	if res.ExecutedQueries != 5 || res.RewrittenQueries != 5 {
		t.Errorf("basic executed/rewrote %d/%d queries, want 5/5", res.ExecutedQueries, res.RewrittenQueries)
	}
	// Answers come sorted by descending probability.
	if res.Answers[0].Prob < res.Answers[len(res.Answers)-1].Prob {
		t.Error("answers not sorted by probability")
	}
	if !approxEqual(res.Answers[0].Prob, 0.8) {
		t.Errorf("top-1 prob = %g, want 0.8", res.Answers[0].Prob)
	}
	if got := res.Lookup(engine.Tuple{engine.S("123")}); !approxEqual(got, 0.5) {
		t.Errorf("Lookup(123) = %g, want 0.5", got)
	}
	if got := res.Lookup(engine.Tuple{engine.S("zzz")}); got != 0 {
		t.Errorf("Lookup(zzz) = %g, want 0", got)
	}
	if !strings.Contains(res.String(), "basic") {
		t.Errorf("result String = %q", res.String())
	}
}

// TestQ0PaperExample checks the introduction's example: π_addr σ_phone='123'
// Person yields {(aaa, 0.5), (hk, 0.5)} — using only mappings that cover both
// attributes (m1..m4 plus m5).
func TestQ0PaperExample(t *testing.T) {
	q := mustParse(t, "q0", "SELECT addr FROM Person WHERE phone = '123'")
	res, err := Basic(exec.Sequential(), q, paperMappings(), paperInstance())
	if err != nil {
		t.Fatal(err)
	}
	got := answersByValue(res)
	// m1, m2 (prob 0.5): ophone=123 -> Alice -> oaddr aaa.
	// m3, m5 (prob 0.3): ophone=123 -> Alice -> haddr hk.
	// m4 (prob 0.2): hphone=123 -> Bob -> haddr hk.
	want := map[string]float64{"aaa": 0.5, "hk": 0.5}
	for k, p := range want {
		if !approxEqual(got[k], p) {
			t.Errorf("answer %q prob = %g, want %g", k, got[k], p)
		}
	}
}

// TestEBasicClustersDistinctQueries verifies that e-basic executes one source
// query per distinct reformulation but returns the same answers as basic.
func TestEBasicClustersDistinctQueries(t *testing.T) {
	q := mustParse(t, "q1", "SELECT pname FROM Person WHERE addr = 'abc'")
	maps := paperMappings()
	db := paperInstance()

	basic, err := Basic(exec.Sequential(), q, maps, db)
	if err != nil {
		t.Fatal(err)
	}
	ebasic, err := EBasic(exec.Sequential(), q, maps, db)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, basic, ebasic, "e-basic vs basic")
	// The paper's q1 example: partitions are {m1,m2}, {m3,m4}, {m5}; m5 does
	// not map pname so it cannot answer, leaving 2 distinct source queries.
	if ebasic.ExecutedQueries != 2 {
		t.Errorf("e-basic executed %d distinct queries, want 2", ebasic.ExecutedQueries)
	}
	if ebasic.RewrittenQueries >= basic.RewrittenQueries && basic.RewrittenQueries != 4 {
		t.Errorf("rewrites: basic %d, e-basic %d", basic.RewrittenQueries, ebasic.RewrittenQueries)
	}
	if ebasic.Stats.TotalOperators() >= basic.Stats.TotalOperators() {
		t.Errorf("e-basic should execute fewer operators: %d vs %d",
			ebasic.Stats.TotalOperators(), basic.Stats.TotalOperators())
	}
}

// TestPartitionTreeFigure4 reproduces the partition of the q1 example
// (Section IV): P1 = {m1, m2}, P2 = {m3, m4}, P3 = {m5}.
func TestPartitionTreeFigure4(t *testing.T) {
	q := mustParse(t, "q1", "SELECT pname FROM Person WHERE addr = 'abc'")
	maps := paperMappings()
	res, err := q.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	parts := PartitionMappings(res, maps)
	if len(parts) != 3 {
		t.Fatalf("partitions = %d, want 3", len(parts))
	}
	byLen := map[int]int{}
	var probs []float64
	for _, p := range parts {
		byLen[len(p.Mappings)]++
		probs = append(probs, p.Prob)
	}
	if byLen[2] != 2 || byLen[1] != 1 {
		t.Errorf("partition sizes wrong: %v", byLen)
	}
	total := 0.0
	for _, p := range probs {
		total += p
	}
	if !approxEqual(total, 1) {
		t.Errorf("partition probabilities sum to %g, want 1", total)
	}
	// The partition containing m1 must have probability 0.5 and representative
	// m1 (first inserted).
	for _, p := range parts {
		for _, m := range p.Mappings {
			if m.ID == "m1" {
				if !approxEqual(p.Prob, 0.5) {
					t.Errorf("partition of m1 has prob %g, want 0.5", p.Prob)
				}
				if p.Representative.ID != "m1" {
					t.Errorf("representative = %s, want m1", p.Representative.ID)
				}
			}
		}
	}
	sizes := partitionSizes(parts)
	if sizes[0] != 2 || sizes[2] != 1 {
		t.Errorf("partition sizes = %v", sizes)
	}
}

// partitionSizes returns the partition sizes sorted descending.
func partitionSizes(parts []*Partition) []int {
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		sizes = append(sizes, len(p.Mappings))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// TestQSharingMatchesBasic verifies Algorithm 1 end to end on several queries.
func TestQSharingMatchesBasic(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	queries := []string{
		"SELECT phone FROM Person WHERE addr = 'aaa'",
		"SELECT pname FROM Person WHERE addr = 'abc'",
		"SELECT addr FROM Person WHERE phone = '123'",
		"SELECT COUNT(*) FROM Person WHERE addr = 'hk' AND phone = '123'",
		"SELECT nation FROM Person WHERE phone = '456'",
	}
	for _, text := range queries {
		q := mustParse(t, "q", text)
		want, err := Basic(exec.Sequential(), q, maps, db)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		got, err := QSharing(exec.Sequential(), q, maps, db)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		sameAnswers(t, want, got, "q-sharing "+text)
		if got.RewrittenQueries > len(maps) {
			t.Errorf("%s: q-sharing rewrote %d queries (more than h)", text, got.RewrittenQueries)
		}
		if got.Partitions == 0 || got.Partitions > len(maps) {
			t.Errorf("%s: q-sharing partitions = %d", text, got.Partitions)
		}
	}
}

// TestEMQOMatchesBasic verifies the e-MQO baseline agrees with basic while
// executing no more operators than e-basic.
func TestEMQOMatchesBasic(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	want, err := Basic(exec.Sequential(), q, maps, db)
	if err != nil {
		t.Fatal(err)
	}
	emqo, err := EMQO(exec.Sequential(), q, maps, db)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, want, emqo, "e-MQO vs basic")
	ebasic, err := EBasic(exec.Sequential(), q, maps, db)
	if err != nil {
		t.Fatal(err)
	}
	if emqo.Stats.TotalOperators() > ebasic.Stats.TotalOperators() {
		t.Errorf("e-MQO executed %d operators, e-basic %d; MQO should not execute more",
			emqo.Stats.TotalOperators(), ebasic.Stats.TotalOperators())
	}
}

// TestOSharingMatchesBasic is the central consistency check: o-sharing (all
// strategies) must produce exactly the answers of basic for a range of query
// shapes, while executing fewer source operators than basic.
func TestOSharingMatchesBasic(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	queries := []string{
		"SELECT phone FROM Person WHERE addr = 'aaa'",
		"SELECT pname FROM Person WHERE addr = 'abc'",
		"SELECT addr FROM Person WHERE phone = '123'",
		"SELECT pname FROM Person WHERE addr = 'hk' AND phone = '123'",
		"SELECT COUNT(*) FROM Person WHERE addr = 'hk' AND phone = '123'",
		"SELECT nation FROM Person WHERE phone = '456' AND addr = 'aaa'",
		"SELECT total FROM Person, Order WHERE addr = 'hk' AND phone = '123'",
		"SELECT SUM(total) FROM Person, Order WHERE addr = 'aaa'",
		"SELECT P1.phone FROM Person P1, Person P2 WHERE P1.addr = P2.addr AND P2.phone = '789'",
	}
	for _, text := range queries {
		q := mustParse(t, "q", text)
		want, err := Basic(exec.Sequential(), q, maps, db)
		if err != nil {
			t.Fatalf("%s: basic: %v", text, err)
		}
		for _, strat := range []Strategy{StrategySEF, StrategySNF, StrategyRandom} {
			got, err := OSharing(exec.Sequential(), q, maps, db, Options{Strategy: strat, RandomSeed: 7})
			if err != nil {
				t.Fatalf("%s (%v): %v", text, strat, err)
			}
			sameAnswers(t, want, got, "o-sharing/"+strat.String()+" "+text)
		}
	}
}

// TestOSharingSharesOperators checks the headline property: for a query whose
// mappings agree on a selective operator, o-sharing executes fewer selection
// operators than one per mapping.
func TestOSharingSharesOperators(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	// phone is shared by m1, m2, m3, m5 (ophone); addr splits the mappings.
	q := mustParse(t, "q", "SELECT pname FROM Person WHERE phone = '123' AND addr = 'hk'")
	basicRes, err := Basic(exec.Sequential(), q, maps, db)
	if err != nil {
		t.Fatal(err)
	}
	osRes, err := OSharing(exec.Sequential(), q, maps, db, Options{Strategy: StrategySEF})
	if err != nil {
		t.Fatal(err)
	}
	if osRes.Stats.Count(engine.OpKindSelect) >= basicRes.Stats.Count(engine.OpKindSelect) {
		t.Errorf("o-sharing ran %d selects, basic ran %d; expected sharing",
			osRes.Stats.Count(engine.OpKindSelect), basicRes.Stats.Count(engine.OpKindSelect))
	}
	sameAnswers(t, basicRes, osRes, "o-sharing sharing check")
}

// TestEntropyFigure7 checks Definition 1 against the paper's Figure 7 numbers:
// partitions of 40/30/30 percent have entropy 1.57; partitions of
// 10/70/10/10 percent have entropy 1.36 (both to two decimals the paper
// rounds to 1.53 and 1.36).
func TestEntropyFigure7(t *testing.T) {
	mk := func(sizes ...int) []*Partition {
		var parts []*Partition
		for _, s := range sizes {
			p := &Partition{}
			for i := 0; i < s; i++ {
				p.Mappings = append(p.Mappings, schema.MustNewMapping("x", nil, 0))
			}
			parts = append(parts, p)
		}
		return parts
	}
	e1 := Entropy(mk(4, 3, 3), 10)
	if math.Abs(e1-1.571) > 0.01 {
		t.Errorf("entropy(40/30/30) = %g, want ~1.57", e1)
	}
	e2 := Entropy(mk(1, 7, 1, 1), 10)
	if math.Abs(e2-1.357) > 0.01 {
		t.Errorf("entropy(10/70/10/10) = %g, want ~1.36", e2)
	}
	if e2 >= e1 {
		t.Error("SEF should prefer the 70-percent-concentrated operator (lower entropy)")
	}
	if Entropy(nil, 0) != 0 {
		t.Error("entropy of empty set should be 0")
	}
	if Entropy(mk(5), 5) != 0 {
		t.Error("entropy of a single partition should be 0")
	}
}

// TestStrategySelection verifies SEF and SNF disagree in the Figure 7
// situation: SNF picks the 3-partition operator, SEF the 4-partition one with
// the concentrated 70% group.
func TestStrategySelection(t *testing.T) {
	// Build 10 mappings over two independent target attributes a (op1) and b
	// (op2).  a has 3 source alternatives split 4/3/3; b has 4 alternatives
	// split 1/7/1/1.
	aAlt := []string{"s1", "s2", "s2", "s2", "s3", "s3", "s3", "s1", "s1", "s1"}
	bAlt := []string{"t1", "t2", "t2", "t2", "t2", "t2", "t2", "t2", "t3", "t4"}
	var maps schema.MappingSet
	for i := 0; i < 10; i++ {
		m := schema.MustNewMapping(
			"m"+string(rune('0'+i)),
			[]schema.Correspondence{
				{Source: attr("S", aAlt[i]), Target: attr("T", "a"), Score: 0.5},
				{Source: attr("S", bAlt[i]), Target: attr("T", "b"), Score: 0.5},
			}, 0.1)
		maps = append(maps, m)
	}
	partsA := PartitionByAttributes([]schema.Attribute{attr("T", "a")}, maps)
	partsB := PartitionByAttributes([]schema.Attribute{attr("T", "b")}, maps)
	if len(partsA) != 3 || len(partsB) != 4 {
		t.Fatalf("partition counts = %d,%d; want 3,4", len(partsA), len(partsB))
	}
	eA := Entropy(partsA, 10)
	eB := Entropy(partsB, 10)
	if !(eB < eA) {
		t.Errorf("entropy: a=%g b=%g; SEF should prefer b", eA, eB)
	}
}

// TestOSharingEmptyIntermediatePruning checks Case 2: when the shared operator
// yields an empty relation the whole partition is answered at once, so fewer
// operators run than under e-basic.
func TestOSharingEmptyIntermediatePruning(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	// No customer has oaddr or haddr equal to 'nowhere': every branch dies at
	// the first selection.
	q := mustParse(t, "q", "SELECT pname FROM Person WHERE addr = 'nowhere' AND phone = '123'")
	res, err := OSharing(exec.Sequential(), q, maps, db, Options{Strategy: StrategySEF})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Errorf("expected no answers, got %v", res.Answers)
	}
	if !approxEqual(res.EmptyProb, 1) {
		t.Errorf("empty prob = %g, want 1", res.EmptyProb)
	}
	basicRes, err := Basic(exec.Sequential(), q, maps, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalOperators() >= basicRes.Stats.TotalOperators() {
		t.Errorf("pruning should save operators: o-sharing %d, basic %d",
			res.Stats.TotalOperators(), basicRes.Stats.TotalOperators())
	}
	// A COUNT query over an empty intermediate still returns 0 as an answer.
	qc := mustParse(t, "qc", "SELECT COUNT(*) FROM Person WHERE addr = 'nowhere'")
	resc, err := OSharing(exec.Sequential(), qc, maps, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantc, err := Basic(exec.Sequential(), qc, maps, db)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, wantc, resc, "count over empty intermediate")
}

// TestNotCoveredMappings verifies that mappings lacking correspondences for
// the query contribute their probability to the empty answer consistently in
// every method.
func TestNotCoveredMappings(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	// gender is mapped by no mapping: no mapping can answer.
	q := mustParse(t, "q", "SELECT gender FROM Person WHERE addr = 'aaa'")
	for name, fn := range map[string]func() (*Result, error){
		"basic":     func() (*Result, error) { return Basic(exec.Sequential(), q, maps, db) },
		"e-basic":   func() (*Result, error) { return EBasic(exec.Sequential(), q, maps, db) },
		"e-MQO":     func() (*Result, error) { return EMQO(exec.Sequential(), q, maps, db) },
		"q-sharing": func() (*Result, error) { return QSharing(exec.Sequential(), q, maps, db) },
		"o-sharing": func() (*Result, error) { return OSharing(exec.Sequential(), q, maps, db, Options{}) },
	} {
		res, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Answers) != 0 {
			t.Errorf("%s: expected no answers, got %v", name, res.Answers)
		}
		if !approxEqual(res.EmptyProb, 1) {
			t.Errorf("%s: empty prob = %g, want 1", name, res.EmptyProb)
		}
	}
	// pname is not covered only by m5 (probability 0.1).
	q2 := mustParse(t, "q2", "SELECT pname FROM Person WHERE addr = 'aaa'")
	res, err := OSharing(exec.Sequential(), q2, maps, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	basicRes, err := Basic(exec.Sequential(), q2, maps, db)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, basicRes, res, "partial coverage")
}

// TestEvaluatorDispatch exercises the Evaluator facade and method parsing.
func TestEvaluatorDispatch(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	ev := NewEvaluator(db, maps)
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	want, err := Basic(exec.Sequential(), q, maps, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing} {
		res, err := ev.Evaluate(q, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sameAnswers(t, want, res, m.String())
		if res.Method != m {
			t.Errorf("result method = %v, want %v", res.Method, m)
		}
	}
	if _, err := ev.Evaluate(q, Options{Method: Method(42)}); err == nil {
		t.Error("unknown method should error")
	}
	if _, err := ev.Evaluate(nil, Options{}); err == nil {
		t.Error("nil query should error")
	}
	// Parsers.
	for _, name := range []string{"basic", "e-basic", "e-mqo", "q-sharing", "o-sharing"} {
		if _, err := ParseMethod(name); err != nil {
			t.Errorf("ParseMethod(%q): %v", name, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("ParseMethod(nope) should error")
	}
	// Top-k is a result label, asked for with Options.TopK, never a method
	// to select.
	if got := MethodTopK.String(); got != "top-k" {
		t.Errorf("MethodTopK renders %q, want top-k", got)
	}
	if _, err := ParseMethod("top-k"); err == nil {
		t.Error("ParseMethod(top-k) should error")
	}
	for _, name := range []string{"SEF", "SNF", "Random"} {
		if _, err := ParseStrategy(name); err != nil {
			t.Errorf("ParseStrategy(%q): %v", name, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("ParseStrategy(nope) should error")
	}
	for _, m := range []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing, MethodTopK, Method(42)} {
		if m.String() == "" {
			t.Errorf("method %d renders empty", m)
		}
	}
	for _, s := range []Strategy{StrategySEF, StrategySNF, StrategyRandom, Strategy(42)} {
		if s.String() == "" {
			t.Errorf("strategy %d renders empty", s)
		}
	}
}

// TestTopKPaperExample reproduces the top-1 evaluation of Section VII/Table II:
// the top answer is found without visiting every e-unit.
func TestTopKPaperExample(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")

	full, err := OSharing(exec.Sequential(), q, maps, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top1, err := TopK(exec.Sequential(), q, maps, db, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(top1.Answers) != 1 {
		t.Fatalf("top-1 returned %d answers", len(top1.Answers))
	}
	// The true top answer is 456 with probability 0.8; the top-k algorithm
	// reports a lower bound that can be below the exact value but must
	// identify the same tuple.
	if top1.Answers[0].Tuple[0].Str != full.Answers[0].Tuple[0].Str {
		t.Errorf("top-1 tuple = %v, want %v", top1.Answers[0].Tuple, full.Answers[0].Tuple)
	}
	if top1.Answers[0].Prob > full.Answers[0].Prob+1e-9 {
		t.Errorf("top-1 lower bound %g exceeds exact %g", top1.Answers[0].Prob, full.Answers[0].Prob)
	}
	if top1.Method != MethodTopK {
		t.Errorf("method = %v, want top-k", top1.Method)
	}
}

// TestTopKMatchesOSharingOrdering verifies that for every k the top-k answer
// set equals the k most probable answers of the full evaluation.
func TestTopKMatchesOSharingOrdering(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	queries := []string{
		"SELECT phone FROM Person WHERE addr = 'aaa'",
		"SELECT addr FROM Person WHERE phone = '123'",
		"SELECT pname FROM Person WHERE addr = 'hk' AND phone = '123'",
		"SELECT total FROM Person, Order WHERE addr = 'hk' AND phone = '123'",
	}
	for _, text := range queries {
		q := mustParse(t, "q", text)
		full, err := OSharing(exec.Sequential(), q, maps, db, Options{})
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for k := 1; k <= len(full.Answers)+1; k++ {
			topk, err := TopK(exec.Sequential(), q, maps, db, k, Options{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", text, k, err)
			}
			requireValidTopK(t, text, full, topk, k)
		}
	}
}

// TestTopKEarlyTermination checks that small k values explore less of the
// u-trace (fewer executed operators) than the full o-sharing run.
func TestTopKEarlyTermination(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	q := mustParse(t, "q", "SELECT addr FROM Person WHERE phone = '123'")
	full, err := OSharing(exec.Sequential(), q, maps, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top1, err := TopK(exec.Sequential(), q, maps, db, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if top1.Stats.TotalOperators() > full.Stats.TotalOperators() {
		t.Errorf("top-1 executed %d operators, full o-sharing %d",
			top1.Stats.TotalOperators(), full.Stats.TotalOperators())
	}
	if _, err := TopK(exec.Sequential(), q, maps, db, 0, Options{}); err == nil {
		t.Error("k=0 should error")
	}
}

// TestValidateInputs exercises the shared argument validation.
func TestValidateInputs(t *testing.T) {
	maps := paperMappings()
	db := paperInstance()
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	if _, err := validateInputs(q, maps, nil); err == nil {
		t.Error("nil instance should error")
	}
	if _, err := validateInputs(q, nil, db); err == nil {
		t.Error("empty mapping set should error")
	}
	bad := schema.MappingSet{schema.MustNewMapping("m1", nil, 0.4)}
	if _, err := validateInputs(q, bad, db); err == nil {
		t.Error("invalid probabilities should error")
	}
	badQuery := &query.Query{Name: "bad", Target: paperTargetSchema(), Root: &query.Scan{Relation: "NoSuch"}}
	if _, err := validateInputs(badQuery, maps, db); err == nil {
		t.Error("invalid query should error")
	}
}

// TestOutputColumns covers answer column labelling.
func TestOutputColumns(t *testing.T) {
	q := mustParse(t, "q", "SELECT pname, addr FROM Person WHERE phone = '1'")
	cols := OutputColumns(q)
	if len(cols) != 2 || cols[0] != "pname" {
		t.Errorf("columns = %v", cols)
	}
	qa := mustParse(t, "qa", "SELECT COUNT(*) FROM Person WHERE phone = '1'")
	if cols := OutputColumns(qa); len(cols) != 1 || cols[0] != "COUNT" {
		t.Errorf("aggregate columns = %v", cols)
	}
	qs := mustParse(t, "qs", "SELECT SUM(total) FROM Order WHERE status = 'x'")
	if cols := OutputColumns(qs); len(cols) != 1 || !strings.Contains(cols[0], "SUM") {
		t.Errorf("sum columns = %v", cols)
	}
	qn := mustParse(t, "qn", "SELECT * FROM Person WHERE phone = '1'")
	if cols := OutputColumns(qn); strings.Join(cols, ",") != "pname,phone,addr,nation,gender" {
		t.Errorf("SELECT * columns = %v, want Person's attributes in schema order", cols)
	}
	qj := mustParse(t, "qj", "SELECT * FROM Person P, Order")
	if cols := OutputColumns(qj); strings.Join(cols, ",") != "P.pname,P.phone,P.addr,P.nation,P.gender,Order.sname,Order.item,Order.status,Order.price,Order.total" {
		t.Errorf("SELECT * over two relations: columns = %v, want each one's attributes, qualified", cols)
	}
}

// TestAggregatorDuplicateRowsWithinMapping ensures duplicate rows produced by a
// single mapping are counted once (the paper aggregates distinct answers).
func TestAggregatorDuplicateRowsWithinMapping(t *testing.T) {
	agg := newAggregator()
	rel := engine.NewRelation("R", []string{"v"})
	rel.MustAppend(engine.Tuple{engine.S("x")})
	rel.MustAppend(engine.Tuple{engine.S("x")})
	agg.addRows(rel.Rows, 0.5)
	entries, _ := agg.sorted()
	answers := answersOf(entries)
	if len(answers) != 1 || !approxEqual(answers[0].Prob, 0.5) {
		t.Errorf("answers = %v, want single x@0.5", answers)
	}
	agg.addRows(engine.NewRelation("E", []string{"v"}).Rows, 0.25)
	if !approxEqual(agg.emptyProb, 0.25) {
		t.Errorf("empty prob = %g", agg.emptyProb)
	}
}

// TestOSharingUnsupportedShape checks the explicit error for queries o-sharing
// does not handle (nested projection).
func TestOSharingUnsupportedShape(t *testing.T) {
	tgt := paperTargetSchema()
	inner := &query.Project{Refs: []query.AttrRef{query.Ref("Person", "phone")}, Child: &query.Scan{Relation: "Person"}}
	q := &query.Query{Name: "nested", Target: tgt, Root: &query.Select{
		Ref: query.Ref("Person", "phone"), Op: engine.OpEq, Value: engine.S("123"), Child: inner,
	}}
	if err := q.Validate(); err != nil {
		t.Fatalf("fixture query invalid: %v", err)
	}
	if _, err := OSharing(exec.Sequential(), q, paperMappings(), paperInstance(), Options{}); err == nil {
		t.Error("nested projection should be rejected by o-sharing")
	}
	// The basic method still evaluates it.
	if _, err := Basic(exec.Sequential(), q, paperMappings(), paperInstance()); err != nil {
		t.Errorf("basic should handle nested projection: %v", err)
	}
}
