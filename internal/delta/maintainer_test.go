package delta

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// fakeScenario is the minimal Scenario: an instance guarded by the same
// RWMutex discipline the serving layer uses (appends exclusive, views shared).
// The stale floor is atomic, as the serving layer's is: the maintainer reads
// it inside View, and a second read lock there deadlocks against a waiting
// append.
type fakeScenario struct {
	name  string
	mu    sync.RWMutex
	db    *engine.Instance
	epoch uint64
	floor atomic.Uint64
}

func (s *fakeScenario) Name() string { return s.name }

func (s *fakeScenario) StaleFloor() uint64 { return s.floor.Load() }

func (s *fakeScenario) View(f func(db *engine.Instance, epoch uint64) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return f(s.db, s.epoch)
}

func (s *fakeScenario) append(rel string, row engine.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.Relation(rel).MustAppend(row)
	s.epoch++
}

func (s *fakeScenario) bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	s.floor.Store(s.epoch)
}

// newFixture builds a two-mapping scenario (the S/T fixture shared with the
// store and server tests) and a delta state for its canonical query.
func newFixture(t *testing.T, name string) (*fakeScenario, schema.MappingSet, *query.Query, *core.DeltaState) {
	t.Helper()
	target := schema.NewSchema("Target")
	target.MustAddRelation(&schema.RelationSchema{Name: "T", Columns: []schema.Column{
		{Name: "a"}, {Name: "b", Type: schema.TypeInt},
	}})
	sAttr := func(n string) schema.Attribute { return schema.Attribute{Relation: "S", Name: n} }
	tAttr := func(n string) schema.Attribute { return schema.Attribute{Relation: "T", Name: n} }
	maps := schema.MappingSet{
		schema.MustNewMapping("m1", []schema.Correspondence{
			{Source: sAttr("x"), Target: tAttr("a"), Score: 0.9},
			{Source: sAttr("y"), Target: tAttr("b"), Score: 0.8},
		}, 0.6),
		schema.MustNewMapping("m2", []schema.Correspondence{
			{Source: sAttr("x"), Target: tAttr("a"), Score: 0.9},
			{Source: sAttr("z"), Target: tAttr("b"), Score: 0.7},
		}, 0.4),
	}
	db := engine.NewInstance(name)
	rel := engine.NewRelation("S", []string{"x", "y", "z"})
	for i := 0; i < 8; i++ {
		rel.MustAppend(sRow(fmt.Sprintf("k%d", i%3), int64(i%4), int64(i%3)))
	}
	db.AddRelation(rel)
	sc := &fakeScenario{name: name, db: db, epoch: 1}

	q, err := query.Parse("q", target, "SELECT a FROM T WHERE b = 2")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.NewEvaluator(db, maps).Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ec := exec.NewContext(context.Background(), 1)
	st, err := prep.Maintain(ec, core.Options{Method: core.MethodEBasic})
	if err != nil {
		t.Fatal(err)
	}
	return sc, maps, q, st
}

func sRow(x string, y, z int64) engine.Tuple {
	return engine.Tuple{engine.S(x), engine.I(y), engine.I(z)}
}

type published struct {
	scenario, query string
	epoch           uint64
	res             *core.Result
}

// collector accumulates publishes under a lock (the background loop runs on
// its own goroutine).
type collector struct {
	mu   sync.Mutex
	pubs []published
}

func (c *collector) publish(scenario, query string, method core.Method, strategy core.Strategy, res *core.Result, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pubs = append(c.pubs, published{scenario: scenario, query: query, epoch: epoch, res: res})
}

func (c *collector) snapshot() []published {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]published(nil), c.pubs...)
}

func requireSameResult(t *testing.T, label string, want, got *core.Result) {
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
}

// TestConvergePublishesAtNewEpoch: a converge over an unchanged scenario
// publishes nothing; after appends, one pass publishes once at the viewed
// epoch with the cold answer's bits.
func TestConvergePublishesAtNewEpoch(t *testing.T) {
	sc, maps, q, st := newFixture(t, "s1")
	col := &collector{}
	m := New(Config{Publish: col.publish})
	if !m.Enroll(sc, "q", core.MethodEBasic, core.StrategySEF, st, sc.epoch) {
		t.Fatal("enroll refused")
	}
	if n := m.Converge("s1"); n != 0 {
		t.Fatalf("idle converge published %d, want 0", n)
	}

	sc.append("S", sRow("fresh", 2, 2))
	sc.append("S", sRow("fresh2", 2, 0))
	if n := m.Converge("s1"); n != 1 {
		t.Fatalf("converge published %d, want 1", n)
	}
	pubs := col.snapshot()
	if len(pubs) != 1 || pubs[0].epoch != 3 || pubs[0].scenario != "s1" || pubs[0].query != "q" {
		t.Fatalf("published %+v, want one publish for s1/q at epoch 3", pubs)
	}
	cold, err := core.NewEvaluator(sc.db, maps).Evaluate(q, core.Options{Method: core.MethodEBasic})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "published", cold, pubs[0].res)
	// Converging again with no new appends republishes nothing.
	if n := m.Converge("s1"); n != 0 {
		t.Fatalf("second converge published %d, want 0", n)
	}
	if pubs := col.snapshot(); len(pubs) != 1 {
		t.Fatalf("%d publishes in all, want 1", len(pubs))
	}
}

// TestBackgroundLoopCoalesces: a burst of MarkDirty calls while the loop runs
// converges to the final state — the answer published last matches a cold
// evaluation over everything appended.
func TestBackgroundLoopCoalesces(t *testing.T) {
	sc, maps, q, st := newFixture(t, "s2")
	col := &collector{}
	m := New(Config{Publish: col.publish})
	m.Start()
	defer m.Stop()
	if !m.Enroll(sc, "q", core.MethodEBasic, core.StrategySEF, st, sc.epoch) {
		t.Fatal("enroll refused")
	}
	for i := 0; i < 30; i++ {
		sc.append("S", sRow(fmt.Sprintf("burst%d", i), int64(i%4), 2))
		m.MarkDirty("s2")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		pubs := col.snapshot()
		if len(pubs) > 0 && pubs[len(pubs)-1].epoch == 31 {
			cold, err := core.NewEvaluator(sc.db, maps).Evaluate(q, core.Options{Method: core.MethodEBasic})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "converged", cold, pubs[len(pubs)-1].res)
			if len(pubs) > 30 {
				t.Fatalf("%d publishes for 30 appends: no coalescing at all", len(pubs))
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("loop never converged to epoch 31; publishes: %+v", pubs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBumpPurges: a bump between enrollment and convergence must suppress the
// publish and purge the scenario — a bumped epoch's answers may only come from
// fresh evaluation.
func TestBumpPurges(t *testing.T) {
	sc, _, _, st := newFixture(t, "s3")
	col := &collector{}
	m := New(Config{Publish: col.publish})
	if !m.Enroll(sc, "q", core.MethodEBasic, core.StrategySEF, st, sc.epoch) {
		t.Fatal("enroll refused")
	}
	sc.append("S", sRow("pre-bump", 2, 2))
	sc.bump()
	if n := m.Converge("s3"); n != 0 {
		t.Fatalf("converge after bump published %d, want 0", n)
	}
	if got := col.snapshot(); len(got) != 0 {
		t.Fatalf("published %+v after a bump, want nothing", got)
	}
	if m.Entries("s3") != 0 {
		t.Fatalf("scenario still enrolled after bump purge")
	}
}

// TestEnrollCap: the per-scenario cap refuses new entries but keeps replacing
// existing ones.
func TestEnrollCap(t *testing.T) {
	sc, _, _, st := newFixture(t, "s4")
	m := New(Config{MaxEntries: 2, Publish: func(string, string, core.Method, core.Strategy, *core.Result, uint64) {}})
	if !m.Enroll(sc, "q1", core.MethodEBasic, core.StrategySEF, st, 1) {
		t.Fatal("first enroll refused")
	}
	if !m.Enroll(sc, "q2", core.MethodBasic, core.StrategySEF, st, 1) {
		t.Fatal("second enroll refused")
	}
	if m.Enroll(sc, "q3", core.MethodEBasic, core.StrategySEF, st, 1) {
		t.Fatal("third enroll accepted past the cap")
	}
	if !m.Enroll(sc, "q1", core.MethodEBasic, core.StrategySEF, st, 2) {
		t.Fatal("re-enroll of an existing key refused")
	}
	if m.Entries("s4") != 2 {
		t.Fatalf("entries = %d, want 2", m.Entries("s4"))
	}
}

// TestFailedDeltaDropsEntry: a state whose relations shrank (something other
// than an append) is dropped, not published.
func TestFailedDeltaDropsEntry(t *testing.T) {
	sc, _, _, st := newFixture(t, "s5")
	m := New(Config{Publish: func(string, string, core.Method, core.Strategy, *core.Result, uint64) {}})
	if !m.Enroll(sc, "q", core.MethodEBasic, core.StrategySEF, st, sc.epoch) {
		t.Fatal("enroll refused")
	}
	sc.mu.Lock()
	rel := sc.db.Relation("S")
	rel.Rows = rel.Rows[:len(rel.Rows)-1]
	sc.epoch++
	sc.mu.Unlock()
	if n := m.Converge("s5"); n != 0 {
		t.Fatalf("converge over shrunk relation published %d, want 0", n)
	}
	if m.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", m.Dropped())
	}
	if m.Entries("s5") != 0 {
		t.Fatalf("entry survived a failed delta")
	}
}
