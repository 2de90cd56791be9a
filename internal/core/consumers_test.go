package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// sameWork asserts that got did want's work once per instance it ran on: every
// operator kind, the index lookups and the executed queries scale with the
// instance count; what the front half decided does not.
func sameWork(t *testing.T, label string, want, got *Result, instances int) {
	t.Helper()
	w, g := want.Stats.Operators(), got.Stats.Operators()
	if len(w) != len(g) {
		t.Errorf("%s: operator kinds %v, want %v", label, g, w)
	}
	for kind, n := range w {
		if g[kind] != n*instances {
			t.Errorf("%s: %s operators = %d, want %d", label, kind, g[kind], n*instances)
		}
	}
	if n := want.Stats.IndexLookups() * instances; got.Stats.IndexLookups() != n {
		t.Errorf("%s: index lookups = %d, want %d", label, got.Stats.IndexLookups(), n)
	}
	if n := want.ExecutedQueries * instances; got.ExecutedQueries != n {
		t.Errorf("%s: executed queries = %d, want %d", label, got.ExecutedQueries, n)
	}
	if want.RewrittenQueries != got.RewrittenQueries {
		t.Errorf("%s: rewritten queries = %d, want %d", label, got.RewrittenQueries, want.RewrittenQueries)
	}
	if want.Partitions != got.Partitions {
		t.Errorf("%s: partitions = %d, want %d", label, got.Partitions, want.Partitions)
	}
}

// TestEveryConsumerOfAGroupListAgrees runs each method's front half — a plan
// method's group list, o-sharing's u-trace under each strategy — through
// everything that consumes one: the one-shot evaluator, a prepared execution
// building the front half and one reusing it, a drained stream, the delta
// evaluator's full run, and two runs of the plan merged by ScatterPlan.Result
// (on the same instance twice, the replicated-relation case: every group's
// rows arrive once per run and the merge collapses them).  It holds all of
// them, bit for bit, to an oracle: a plan method's own plans run through the
// naive executor, o-sharing's sequential prepared execution, whose bits
// TestOSharingAtBenchmarkScale pins.  Between themselves they must also have
// done the same work.
func TestEveryConsumerOfAGroupListAgrees(t *testing.T) {
	db := paperInstance()
	maps := mappingSetTimes8(t)
	ctx := context.Background()
	maintained := map[Method]int{}

	for _, qc := range runtimeQueries {
		q := mustParse(t, qc.name, qc.text)
		ev := NewEvaluator(db, maps)
		for _, front := range []Options{
			{Method: MethodBasic}, {Method: MethodEBasic}, {Method: MethodEMQO}, {Method: MethodQSharing},
			{Method: MethodOSharing, Strategy: StrategySEF},
			{Method: MethodOSharing, Strategy: StrategySNF},
			{Method: MethodOSharing, Strategy: StrategyRandom},
		} {
			m := front.Method
			var oracle *Result
			for _, parallelism := range []int{1, 8} {
				opts := front
				opts.Parallelism = parallelism
				label := fmt.Sprintf("%s/%s/%s/p%d", qc.name, m, front.Strategy, parallelism)
				must := func(res *Result, err error) *Result {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return res
				}
				prep, err := ev.Prepare(q)
				if err != nil {
					t.Fatalf("%s prepare: %v", label, err)
				}
				switch {
				case oracle != nil:
				case m == MethodOSharing:
					oracle = must(prep.Execute(Options{Method: m, Strategy: front.Strategy, Parallelism: 1}))
				default:
					oracle = naiveOracle(t, prep, m)
				}
				cold := must(ev.Evaluate(q, opts))
				forms := map[string]*Result{
					"cold":           cold,
					"first execute":  must(prep.Execute(opts)),
					"second execute": must(prep.Execute(opts)),
				}
				cur, err := prep.StreamContext(ctx, opts)
				if err != nil {
					t.Fatalf("%s stream: %v", label, err)
				}
				forms["stream"] = collectCursor(t, cur)

				ec := opts.Context(ctx)
				sp, _, err := prep.FrontHalf(ec, opts)
				if err != nil {
					t.Fatalf("%s front half: %v", label, err)
				}
				switch st, err := prep.Maintain(ec, opts); {
				case err == nil:
					if st.sp != sp {
						t.Errorf("%s: Maintain holds a front half of its own, not the memoized one", label)
					}
					forms["maintained"] = st.Result()
					maintained[m]++
				case !errors.Is(err, ErrNotDeltaMaintainable):
					t.Fatalf("%s prepare delta: %v", label, err)
				}
				for name, res := range forms {
					bitIdenticalResults(t, label+" "+name, oracle, res)
					sameWork(t, label+" "+name, cold, res, 1)
				}

				var runs []*ShardRun
				for i := 0; i < 2; i++ {
					run, err := sp.ExecuteOn(ec, db)
					if err != nil {
						t.Fatalf("%s run %d: %v", label, i, err)
					}
					runs = append(runs, run)
				}
				merged := sp.Result(q, 0, 0, runs...)
				bitIdenticalResults(t, label+" two runs", oracle, merged)
				sameWork(t, label+" two runs", cold, merged, 2)
			}
		}
	}
	for _, m := range []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing} {
		if maintained[m] == 0 {
			t.Errorf("%s: no query was delta-maintainable, so the maintained consumer was never compared", m)
		}
	}
}

// TestFrontHalfIsBuiltAndReportedOnce pins what a Prepared memoizes.  The
// front half is one object per (query, method) — FrontHalf, a shard's run and
// Maintain share it, none reshapes it per call — and of all the executions
// that use a front half exactly the one whose call built it reports a rewrite
// phase, on every path that returns a Result.
func TestFrontHalfIsBuiltAndReportedOnce(t *testing.T) {
	db := paperInstance()
	maps := mappingSetTimes8(t)
	ctx := context.Background()
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	ev := NewEvaluator(db, maps)
	fresh := func() *Prepared {
		t.Helper()
		prep, err := ev.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		return prep
	}
	// paths are the ways to a Result; each is called twice on one Prepared.
	paths := map[string]func(*Prepared, Options) (*Result, error){
		"execute": func(p *Prepared, o Options) (*Result, error) { return p.ExecuteContext(ctx, o) },
		"stream": func(p *Prepared, o Options) (*Result, error) {
			cur, err := p.StreamContext(ctx, o)
			if err != nil {
				return nil, err
			}
			return cur.Result(), nil
		},
		"top-k": func(p *Prepared, o Options) (*Result, error) { return executeTopKContext(ctx, p, 2, o) },
		"maintained": func(p *Prepared, o Options) (*Result, error) {
			st, err := p.Maintain(o.Context(ctx), o)
			if err != nil {
				return nil, err
			}
			return st.Result(), nil
		},
	}
	for _, m := range []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing} {
		opts := Options{Method: m}
		for name, run := range paths {
			prep := fresh()
			for call, built := range []bool{true, false} {
				res, err := run(prep, opts)
				if err != nil {
					t.Fatalf("%s/%s call %d: %v", m, name, call, err)
				}
				if built != (res.RewriteTime > 0) {
					t.Errorf("%s/%s call %d: RewriteTime = %v, want > 0 only when the call built the front half (%v)",
						m, name, call, res.RewriteTime, built)
				}
			}
		}
		prep := fresh()
		ec := opts.Context(ctx)
		first, _, err := prep.FrontHalf(ec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if second, _, _ := prep.FrontHalf(ec, opts); second != first {
			t.Errorf("%s: two FrontHalf calls returned different plans", m)
		}
		res, err := prep.ExecuteContext(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.RewriteTime != 0 {
			t.Errorf("%s: an execution after FrontHalf built the plan reports RewriteTime %v", m, res.RewriteTime)
		}
	}
}

// TestUTraceIsPlannedOncePerStrategy pins the key o-sharing's u-trace is
// memoized under: the strategy, and the seed under Random only.  Top-k walks
// the trace o-sharing planned, so of a sequence of executions exactly those
// that meet a new key plan one and report a rewrite phase.
func TestUTraceIsPlannedOncePerStrategy(t *testing.T) {
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	prep, err := NewEvaluator(paperInstance(), mappingSetTimes8(t)).Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		topk    bool
		opts    Options
		planned bool
	}{
		{false, Options{Method: MethodOSharing}, true},
		{false, Options{Method: MethodOSharing}, false},
		{true, Options{}, false},
		{true, Options{Strategy: StrategySNF}, true},
		{false, Options{Method: MethodOSharing, Strategy: StrategySNF}, false},
		{false, Options{Method: MethodOSharing, Strategy: StrategyRandom, RandomSeed: 7}, true},
		{true, Options{Strategy: StrategyRandom, RandomSeed: 7}, false},
		{false, Options{Method: MethodOSharing, Strategy: StrategyRandom, RandomSeed: 8}, true},
		{false, Options{Method: MethodOSharing, Strategy: StrategySEF, RandomSeed: 8}, false},
	} {
		res, err := prep.Execute(step.opts)
		if step.topk {
			res, err = executeTopK(prep, 2, step.opts)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if step.planned != (res.RewriteTime > 0) {
			t.Errorf("step %d (top-k %v, %s, seed %d): RewriteTime = %v, want > 0 only when it plans a trace (%v)",
				i, step.topk, step.opts.Strategy, step.opts.RandomSeed, res.RewriteTime, step.planned)
		}
	}
	traces := func(p *Prepared) (n int) {
		for key := range p.fronts {
			if key.method == MethodOSharing {
				n++
			}
		}
		return n
	}
	if n := traces(prep); n != 4 {
		t.Errorf("%d traces planned, want 4: SEF, SNF, Random seeded 7 and 8", n)
	}

	// Concurrent executions on a fresh Prepared share one trace per strategy:
	// exactly one of them plans it, and every one walks it to the sequential
	// answers.
	fresh, err := NewEvaluator(paperInstance(), mappingSetTimes8(t)).Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{StrategySEF, StrategySNF, StrategyRandom}
	want := make([][2]*Result, len(strategies))
	for i, st := range strategies {
		opts := Options{Method: MethodOSharing, Strategy: st, Parallelism: 1}
		if want[i][0], err = prep.Execute(opts); err == nil {
			want[i][1], err = executeTopK(prep, 2, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Result, 12)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := Options{Method: MethodOSharing, Strategy: strategies[w%len(strategies)], Parallelism: 4}
			if w%2 == 0 {
				got[w], errs[w] = fresh.Execute(opts)
			} else {
				got[w], errs[w] = executeTopK(fresh, 2, opts)
			}
		}(w)
	}
	wg.Wait()
	planned := 0
	for w, res := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if res.RewriteTime > 0 {
			planned++
		}
		identicalResults(t, fmt.Sprintf("worker %d", w), want[w%len(strategies)][w%2], res)
	}
	if planned != len(strategies) || traces(fresh) != len(strategies) {
		t.Errorf("%d executions planned a trace and %d traces exist, want %d of each", planned, traces(fresh), len(strategies))
	}
}
