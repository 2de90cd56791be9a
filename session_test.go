package urm

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/probdb/urm/internal/core"
)

// sessionFixture builds the running-example session through the public API.
func sessionFixture(t *testing.T) (*Session, MappingSet, *Instance) {
	t.Helper()
	source, target := buildPeopleSchemas()
	matching, err := Match(source, target, MatchOptions{Mappings: 6, Threshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	db := buildPeopleInstance()
	sess, err := NewSession(target, db, matching.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	return sess, matching.Mappings, db
}

// TestSessionMatchesColdEvaluate pins the session contract: the session API
// (prepare once, execute many) returns answers bit-identical to the cold
// one-shot evaluator, for every method, with and without top-k.
func TestSessionMatchesColdEvaluate(t *testing.T) {
	sess, maps, db := sessionFixture(t)
	cold := core.NewEvaluator(db, maps)
	ctx := context.Background()
	const text = "SELECT addr FROM Person WHERE phone = '123'"
	q, err := ParseQuery("q0", sess.Target(), text)
	if err != nil {
		t.Fatal(err)
	}

	pq, err := sess.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{Basic, EBasic, EMQO, QSharing, OSharing} {
		want, err := cold.Evaluate(q, core.Options{Method: method})
		if err != nil {
			t.Fatalf("%v cold: %v", method, err)
		}
		got, err := pq.Execute(ctx, WithMethod(method))
		if err != nil {
			t.Fatalf("%v session: %v", method, err)
		}
		if len(want.Answers) != len(got.Answers) {
			t.Fatalf("%v: %d answers, want %d", method, len(got.Answers), len(want.Answers))
		}
		for i := range want.Answers {
			if want.Answers[i].Tuple.Key() != got.Answers[i].Tuple.Key() || want.Answers[i].Prob != got.Answers[i].Prob {
				t.Errorf("%v: answer[%d] = %v, want %v", method, i, got.Answers[i], want.Answers[i])
			}
		}
		if want.EmptyProb != got.EmptyProb {
			t.Errorf("%v: empty prob %v, want %v", method, got.EmptyProb, want.EmptyProb)
		}
	}

	// Top-k through options.
	wantTop, err := cold.Evaluate(q, core.Options{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	gotTop, err := pq.Execute(ctx, WithMethod(Basic), WithTopK(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTop.Answers) != len(wantTop.Answers) {
		t.Fatalf("topk: %d answers, want %d", len(gotTop.Answers), len(wantTop.Answers))
	}
	for i := range wantTop.Answers {
		if wantTop.Answers[i].Tuple.Key() != gotTop.Answers[i].Tuple.Key() || wantTop.Answers[i].Prob != gotTop.Answers[i].Prob {
			t.Errorf("topk answer[%d] = %v, want %v", i, gotTop.Answers[i], wantTop.Answers[i])
		}
	}
}

// TestSessionStream checks the public streaming path: Rows yields exactly the
// materialized answers, supports early Close, and works for top-k.
func TestSessionStream(t *testing.T) {
	sess, _, _ := sessionFixture(t)
	ctx := context.Background()
	const text = "SELECT addr FROM Person WHERE phone = '123'"

	res, err := sess.Execute(ctx, text, WithMethod(QSharing), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Stream(ctx, text, WithMethod(QSharing), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	i := 0
	for rows.Next() {
		a := rows.Answer()
		if i >= len(res.Answers) {
			t.Fatalf("stream yielded more than %d answers", len(res.Answers))
		}
		if a.Tuple.Key() != res.Answers[i].Tuple.Key() || a.Prob != res.Answers[i].Prob {
			t.Errorf("streamed[%d] = %v, want %v", i, a, res.Answers[i])
		}
		i++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(res.Answers) {
		t.Errorf("streamed %d answers, want %d", i, len(res.Answers))
	}
	if rows.EmptyProb() != res.EmptyProb {
		t.Errorf("stream empty prob %v, want %v", rows.EmptyProb(), res.EmptyProb)
	}

	// Early close stops iteration.
	rows2, err := sess.Stream(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	if rows2.Len() > 0 {
		if !rows2.Next() {
			t.Fatal("Next on fresh cursor returned false")
		}
	}
	rows2.Close()
	if rows2.Next() {
		t.Error("Next after Close returned true")
	}
}

// TestSessionPreparedReuse: preparing the same (canonically equal) text twice
// returns the same prepared query, and session defaults apply.
func TestSessionPreparedReuse(t *testing.T) {
	source, target := buildPeopleSchemas()
	matching, err := Match(source, target, MatchOptions{Mappings: 6, Threshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	db := buildPeopleInstance()
	sess, err := NewSession(target, db, matching.Mappings, WithMethod(QSharing), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := sess.Prepare("SELECT addr FROM Person WHERE phone = '123'")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sess.Prepare("SELECT  addr  FROM Person WHERE phone='123'")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("canonically equal texts prepared twice")
	}
	if p1.Text() == "" {
		t.Error("prepared query has no canonical text")
	}
	if _, err := p1.Execute(context.Background()); err != nil {
		t.Fatalf("execute with session defaults: %v", err)
	}
	if n, err := p1.Partitions(); err != nil || n < 1 {
		t.Errorf("partitions = %d, %v", n, err)
	}
}

// TestSessionErrors pins the typed sentinels and option validation at the
// facade level.
func TestSessionErrors(t *testing.T) {
	sess, maps, db := sessionFixture(t)
	ctx := context.Background()

	if _, err := sess.Prepare("SELECT FROM nonsense"); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad query: err = %v, want ErrBadQuery", err)
	}
	pq, err := sess.Prepare("SELECT addr FROM Person WHERE phone = '123'")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Execute(ctx, WithTopK(0)); !errors.Is(err, ErrBadOptions) {
		t.Errorf("WithTopK(0): err = %v, want ErrBadOptions", err)
	}
	if _, err := pq.Execute(ctx, WithParallelism(-2)); !errors.Is(err, ErrBadOptions) {
		t.Errorf("negative parallelism: err = %v, want ErrBadOptions", err)
	}
	if _, err := pq.Execute(ctx, WithMethod(Method(99))); !errors.Is(err, ErrBadOptions) {
		t.Errorf("unknown method: err = %v, want ErrBadOptions", err)
	}
	if _, err := pq.Stream(ctx, WithStrategy(Strategy(9))); !errors.Is(err, ErrBadOptions) {
		t.Errorf("unknown strategy: err = %v, want ErrBadOptions", err)
	}

	// Session construction validation.
	if _, err := NewSession(nil, db, maps); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := NewSession(sess.Target(), nil, maps); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := NewSession(sess.Target(), db, nil); err == nil {
		t.Error("empty mapping set accepted")
	}
	if _, err := NewSession(sess.Target(), db, maps, WithParallelism(-1)); !errors.Is(err, ErrBadOptions) {
		t.Errorf("bad session defaults: err = %v, want ErrBadOptions", err)
	}

	// Cancelled context aborts.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pq.Execute(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled execute: err = %v, want context.Canceled", err)
	}
	if _, err := pq.Execute(cancelled, WithMethod(QSharing)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled q-sharing execute: err = %v, want context.Canceled", err)
	}
	if _, err := pq.Execute(cancelled, WithTopK(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled top-k execute: err = %v, want context.Canceled", err)
	}
}

// TestSessionWithShards pins the facade sharding contract: executing with
// WithShards routes through the scatter-gather evaluator and returns answers
// bit-identical to the unsharded path (exact float equality — the merge
// replays the same addition sequence), o-sharing falls back transparently,
// and Stream refuses to combine with shards.
func TestSessionWithShards(t *testing.T) {
	sess, _, _ := sessionFixture(t)
	ctx := context.Background()
	const text = "SELECT addr FROM Person WHERE phone = '123'"
	spec := ShardSpec{Relation: "Customer", Column: "cid", Shards: 4, Kind: HashSharding}

	for _, method := range []Method{Basic, EBasic, EMQO, QSharing, OSharing} {
		want, err := sess.Execute(ctx, text, WithMethod(method))
		if err != nil {
			t.Fatalf("%v unsharded: %v", method, err)
		}
		got, err := sess.Execute(ctx, text, WithMethod(method), WithShards(spec))
		if err != nil {
			t.Fatalf("%v sharded: %v", method, err)
		}
		if len(got.Answers) != len(want.Answers) {
			t.Fatalf("%v: %d answers, want %d", method, len(got.Answers), len(want.Answers))
		}
		for i := range want.Answers {
			if want.Answers[i].Tuple.Key() != got.Answers[i].Tuple.Key() || want.Answers[i].Prob != got.Answers[i].Prob {
				t.Errorf("%v: answer[%d] = %v, want %v", method, i, got.Answers[i], want.Answers[i])
			}
		}
		if want.EmptyProb != got.EmptyProb {
			t.Errorf("%v: empty prob %v, want %v", method, got.EmptyProb, want.EmptyProb)
		}
	}

	// Top-k composes with shards.
	wantTop, err := sess.Execute(ctx, text, WithTopK(1))
	if err != nil {
		t.Fatal(err)
	}
	gotTop, err := sess.Execute(ctx, text, WithTopK(1), WithShards(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTop.Answers) != len(wantTop.Answers) || (len(wantTop.Answers) > 0 && gotTop.Answers[0].Prob != wantTop.Answers[0].Prob) {
		t.Errorf("topk sharded = %v, want %v", gotTop.Answers, wantTop.Answers)
	}

	// Validation: bad specs and Stream are rejected with ErrBadOptions.
	if _, err := sess.Execute(ctx, text, WithShards(ShardSpec{Relation: "Customer", Column: "cid"})); !errors.Is(err, ErrBadOptions) {
		t.Errorf("zero-shard spec: err = %v, want ErrBadOptions", err)
	}
	if _, err := sess.Stream(ctx, text, WithShards(spec)); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Stream with shards: err = %v, want ErrBadOptions", err)
	}
}

// TestScenarioShardSlice pins that slices of a generated scenario exactly
// partition the sharded relation and leave the others shared.
func TestScenarioShardSlice(t *testing.T) {
	s, err := NewScenario(ScenarioOptions{Target: "Excel", Mappings: 4, SizeMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel := s.DB.Relation(s.DB.RelationNames()[0])
	spec := ShardSpec{Relation: rel.Name, Column: rel.Columns[0], Shards: 3, Kind: HashSharding}
	total := 0
	for i := 0; i < spec.Shards; i++ {
		slice, err := s.ShardSlice(spec, i)
		if err != nil {
			t.Fatal(err)
		}
		r := slice.DB.Relation(rel.Name)
		if r == nil {
			t.Fatalf("shard %d lost relation %q", i, rel.Name)
		}
		total += r.NumRows()
	}
	if total != rel.NumRows() {
		t.Errorf("slices hold %d rows of %q, want %d (exact partition)", total, rel.Name, rel.NumRows())
	}
	if _, err := s.ShardSlice(spec, spec.Shards); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}

// TestScenarioNewSession wires the scenario generator into the session API.
func TestScenarioNewSession(t *testing.T) {
	s, err := NewScenario(ScenarioOptions{Target: "Excel", Mappings: 8, SizeMB: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.NewSession(WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.WorkloadQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sess.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mass := res.EmptyProb
	for _, a := range res.Answers {
		mass += a.Prob
	}
	if math.Abs(mass-1) > 1e-6 {
		t.Errorf("probability mass = %g, want 1", mass)
	}
}
