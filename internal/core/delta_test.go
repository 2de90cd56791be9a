package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// deltaRNG is a tiny splitmix64 so the append stream is seeded and identical
// across runs and parallelism levels.
type deltaRNG struct{ s uint64 }

func (r *deltaRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *deltaRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *deltaRNG) pick(opts []string) string { return opts[r.intn(len(opts))] }

// deltaAppend is one step of the stream: a row for one source relation.
type deltaAppend struct {
	rel string
	row engine.Tuple
}

// deltaAppendStream builds a seeded stream of n appends over the paper
// fixture's three source relations.  Values are drawn from small pools that
// include the workload's predicate constants ('aaa', 'hk', '123', '456'), so
// many appended rows actually join and select into the maintained answers.
func deltaAppendStream(seed uint64, n int) []deltaAppend {
	r := &deltaRNG{s: seed}
	phones := []string{"123", "456", "789", "555", "998"}
	addrs := []string{"aaa", "bbb", "hk", "ccc"}
	out := make([]deltaAppend, 0, n)
	for i := 0; i < n; i++ {
		switch r.intn(10) {
		case 0, 1, 2, 3, 4: // half the stream grows Customer
			out = append(out, deltaAppend{rel: "Customer", row: engine.Tuple{
				engine.I(int64(100 + i)),
				engine.S(r.pick([]string{"Dan", "Eve", "Fay", "Alice"})),
				engine.S(r.pick(phones)),
				engine.S(r.pick(phones)),
				engine.S(r.pick(phones)),
				engine.S(r.pick(addrs)),
				engine.S(r.pick(addrs)),
				engine.I(int64(r.intn(2) + 1)),
			}})
		case 5, 6, 7, 8:
			out = append(out, deltaAppend{rel: "C_Order", row: engine.Tuple{
				engine.I(int64(100 + i)),
				engine.I(int64(r.intn(6) + 1)),
				engine.F(float64(r.intn(400)) + 0.5),
			}})
		default:
			out = append(out, deltaAppend{rel: "Nation", row: engine.Tuple{
				engine.I(int64(r.intn(3) + 1)),
				engine.S(r.pick([]string{"HK", "CN", "JP"})),
			}})
		}
	}
	return out
}

// requireBitIdentical asserts got is a bit-for-bit replay of want: the same
// answer tuples in the same canonical order, with probabilities equal as
// IEEE-754 bit patterns, and identical empty-answer probability bits.  This is
// the maintenance contract — approximate equality would hide accumulation-
// order drift.
func requireBitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Answers) != len(got.Answers) {
		t.Fatalf("%s: %d answers, want %d", label, len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		wa, ga := want.Answers[i], got.Answers[i]
		if len(wa.Tuple) != len(ga.Tuple) {
			t.Fatalf("%s: answer %d arity %d, want %d", label, i, len(ga.Tuple), len(wa.Tuple))
		}
		for j := range wa.Tuple {
			if !wa.Tuple[j].Equal(ga.Tuple[j]) {
				t.Fatalf("%s: answer %d value %d = %v, want %v", label, i, j, ga.Tuple[j], wa.Tuple[j])
			}
		}
		if math.Float64bits(wa.Prob) != math.Float64bits(ga.Prob) {
			t.Fatalf("%s: answer %d prob bits %x, want %x (%v vs %v)", label, i,
				math.Float64bits(ga.Prob), math.Float64bits(wa.Prob), ga.Prob, wa.Prob)
		}
	}
	if math.Float64bits(want.EmptyProb) != math.Float64bits(got.EmptyProb) {
		t.Fatalf("%s: empty prob %v, want %v", label, got.EmptyProb, want.EmptyProb)
	}
}

// TestDeltaMaintainedBitIdentical is the maintenance property test: after
// every prefix of a seeded 100-append stream, the delta-maintained answer must
// be bit-identical to a cold re-evaluation of the same method over the same
// instance state — for every maintainable method, at parallelism 1 and 8.
func TestDeltaMaintainedBitIdentical(t *testing.T) {
	queries := []string{
		"SELECT phone FROM Person WHERE addr = 'aaa'",
		"SELECT total FROM Person, Order WHERE addr = 'hk' AND phone = '123'",
	}
	methods := []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing}
	stream := deltaAppendStream(7, 100)
	for _, par := range []int{1, 8} {
		for _, method := range methods {
			for qi, text := range queries {
				t.Run(fmt.Sprintf("p%d/%s/q%d", par, method, qi), func(t *testing.T) {
					db := paperInstance()
					maps := paperMappings()
					q := mustParse(t, "q", text)
					opts := Options{Method: method, Parallelism: par}
					prep, err := NewEvaluator(db, maps).Prepare(q)
					if err != nil {
						t.Fatalf("prepare: %v", err)
					}
					ec := exec.NewContext(context.Background(), par)
					st, err := prep.Maintain(ec, opts)
					if err != nil {
						t.Fatalf("Maintain: %v", err)
					}
					cold, err := NewEvaluator(db, maps).Evaluate(q, opts)
					if err != nil {
						t.Fatalf("cold: %v", err)
					}
					requireBitIdentical(t, "initial", cold, st.Result())
					for i, app := range stream {
						rel := db.Relation(app.rel)
						rel.MustAppend(app.row)
						if _, err := st.ApplyDelta(ec, db); err != nil {
							t.Fatalf("append %d: ApplyDelta: %v", i, err)
						}
						cold, err := NewEvaluator(db, maps).Evaluate(q, opts)
						if err != nil {
							t.Fatalf("append %d: cold: %v", i, err)
						}
						requireBitIdentical(t, fmt.Sprintf("append %d", i), cold, st.Result())
					}
					if st.Passes() == 0 {
						t.Fatalf("no delta passes ran over a 100-append stream")
					}
				})
			}
		}
	}
}

// TestDeltaPruneMarksFlip is maintained o-sharing's property test and shows
// its prune rule is exercised.  Under every strategy, at parallelism 1 and 8,
// the maintained answer is bit-identical to cold o-sharing after every append
// of 100-row streams — three seeded ones over the paper's fixture, one of
// Orders rows over a small Excel fixture — while the state's AND of the runs'
// prune marks flips off at internal u-trace nodes, where an appended row
// first makes a fragment that emptied on every run before non-empty.  On the
// Excel fixture a merge that descended into every pruned node would move Q1's
// empty probability by its last bit.  Appends that change no set reuse the
// last merge, and those answers are held to cold ones too.
func TestDeltaPruneMarksFlip(t *testing.T) {
	type fixture struct {
		db      func() *engine.Instance
		maps    schema.MappingSet
		queries []*query.Query
		streams [][]deltaAppend
	}
	paper := fixture{db: paperInstance, maps: paperMappings()}
	for _, text := range []string{
		"SELECT phone FROM Person WHERE addr = 'ccc'",
		"SELECT phone FROM Person WHERE addr = 'aaa'",
		"SELECT total FROM Person, Order WHERE addr = 'hk' AND phone = '123'",
		"SELECT total FROM Person, Order WHERE phone = '555'",
		"SELECT pname, nation FROM Person WHERE phone = '998'",
		// Its marks flip while its sets stay empty: only the marks say the
		// last merge is stale.
		"SELECT pname FROM Person WHERE addr = 'ccc' AND phone = '998'",
	} {
		paper.queries = append(paper.queries, mustParse(t, "q", text))
	}
	for _, seed := range []uint64{7, 11, 19} {
		paper.streams = append(paper.streams, deltaAppendStream(seed, 100))
	}
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 16, SizeMB: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	excel := fixture{maps: ds.Mappings(), streams: [][]deltaAppend{nil}, db: func() *engine.Instance {
		orders := engine.NewRelation(datagen.AppendStreamRelation, ds.DB.Relation(datagen.AppendStreamRelation).Columns)
		if err := orders.AppendAll(ds.DB.Relation(datagen.AppendStreamRelation).Rows); err != nil {
			t.Fatal(err)
		}
		return ds.DB.WithRelations("excel", map[string]*engine.Relation{orders.Name: orders})
	}}
	for id := 1; id <= 2; id++ { // Q3 self-joins Lineitem
		excel.queries = append(excel.queries, datagen.MustWorkloadQuery(id))
	}
	for _, row := range datagen.AppendStream(datagen.AppendStreamOptions{Rows: 100, Seed: 5}) {
		excel.streams[0] = append(excel.streams[0], deltaAppend{rel: datagen.AppendStreamRelation, row: row})
	}

	flips, reused := 0, 0
	for fi, fx := range []fixture{paper, excel} {
		for si, stream := range fx.streams {
			for _, st := range []Strategy{StrategySEF, StrategySNF, StrategyRandom} {
				for _, par := range []int{1, 8} {
					for qi, q := range fx.queries {
						label := fmt.Sprintf("fixture %d/stream %d/%s/p%d/q%d", fi, si, st, par, qi)
						db := fx.db()
						opts := Options{Method: MethodOSharing, Strategy: st, Parallelism: par}
						prep, err := NewEvaluator(db, fx.maps).Prepare(q)
						if err != nil {
							t.Fatalf("%s prepare: %v", label, err)
						}
						ec := opts.Context(context.Background())
						state, err := prep.Maintain(ec, opts)
						if err != nil {
							t.Fatalf("%s Maintain: %v", label, err)
						}
						for i, app := range stream {
							db.Relation(app.rel).MustAppend(app.row)
							before := append([]bool(nil), state.run.Pruned...)
							if _, err := state.ApplyDelta(ec, db); err != nil {
								t.Fatalf("%s append %d: ApplyDelta: %v", label, i, err)
							}
							for gi, g := range state.sp.Groups {
								if g.Below > 0 && before[gi] && !state.run.Pruned[gi] {
									flips++
								}
							}
							if state.merged != nil {
								reused++
							}
							cold, err := prep.Execute(opts)
							if err != nil {
								t.Fatalf("%s append %d: cold: %v", label, i, err)
							}
							requireBitIdentical(t, fmt.Sprintf("%s append %d", label, i), cold, state.Result())
						}
					}
				}
			}
		}
	}
	if flips == 0 || reused == 0 {
		t.Fatalf("%d prune-mark flips and %d reused merges, want both > 0: a rule was never exercised", flips, reused)
	}
	t.Logf("%d prune-mark flips, %d reused merges", flips, reused)
}

// TestDeltaCoalescedBursts pins that one ApplyDelta folding a burst of appends
// is identical to applying them one at a time — the reconciler's coalescing
// rests on it.
func TestDeltaCoalescedBursts(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	q := mustParse(t, "q", "SELECT total FROM Person, Order WHERE addr = 'hk' AND phone = '123'")
	opts := Options{Method: MethodEBasic, Parallelism: 2}
	prep, err := NewEvaluator(db, maps).Prepare(q)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ec := exec.NewContext(context.Background(), 2)
	st, err := prep.Maintain(ec, opts)
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	for _, app := range deltaAppendStream(11, 60) {
		db.Relation(app.rel).MustAppend(app.row)
	}
	if _, err := st.ApplyDelta(ec, db); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	cold, err := NewEvaluator(db, maps).Evaluate(q, opts)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	requireBitIdentical(t, "burst", cold, st.Result())
	// A pass over an unchanged instance is a no-op.
	passes, err := st.ApplyDelta(ec, db)
	if err != nil {
		t.Fatalf("idle ApplyDelta: %v", err)
	}
	if passes != 0 {
		t.Fatalf("idle ApplyDelta ran %d passes, want 0", passes)
	}
}

// TestDeltaNotMaintainable pins the fallback matrix: o-sharing maintains a
// linear query like the plan methods, self-joins and non-SPJ queries
// (aggregates, DISTINCT) must refuse delta preparation with
// ErrNotDeltaMaintainable, and a shrunk relation must fail ApplyDelta rather
// than corrupt the state.
func TestDeltaNotMaintainable(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	ec := exec.NewContext(context.Background(), 1)

	osq := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	prep, err := NewEvaluator(db, maps).Prepare(osq)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if _, err := prep.Maintain(ec, Options{Method: MethodOSharing}); err != nil {
		t.Fatalf("o-sharing Maintain of a linear query: %v", err)
	}
	selfJoin := mustParse(t, "q", "SELECT P.pname FROM Person P, Person Q WHERE P.phone = Q.phone AND Q.addr = 'aaa'")
	sprep, err := NewEvaluator(db, maps).Prepare(selfJoin)
	if err != nil {
		t.Fatalf("prepare self-join: %v", err)
	}
	if _, err := sprep.Maintain(ec, Options{Method: MethodOSharing}); !errors.Is(err, ErrNotDeltaMaintainable) {
		t.Fatalf("o-sharing self-join Maintain err = %v, want ErrNotDeltaMaintainable", err)
	}

	agg := mustParse(t, "q", "SELECT SUM(total) FROM Person, Order WHERE addr = 'aaa'")
	aprep, err := NewEvaluator(db, maps).Prepare(agg)
	if err != nil {
		t.Fatalf("prepare aggregate: %v", err)
	}
	if _, err := aprep.Maintain(ec, Options{Method: MethodEBasic}); !errors.Is(err, ErrNotDeltaMaintainable) {
		t.Fatalf("aggregate Maintain err = %v, want ErrNotDeltaMaintainable", err)
	}

	jq := mustParse(t, "q", "SELECT total FROM Person, Order WHERE addr = 'hk'")
	jprep, err := NewEvaluator(db, maps).Prepare(jq)
	if err != nil {
		t.Fatalf("prepare join: %v", err)
	}
	st, err := jprep.Maintain(ec, Options{Method: MethodEBasic})
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	cust := db.Relation("Customer")
	cust.Rows = cust.Rows[:len(cust.Rows)-1]
	if _, err := st.ApplyDelta(ec, db); err == nil {
		t.Fatalf("ApplyDelta over a shrunk relation succeeded, want error")
	}
}
