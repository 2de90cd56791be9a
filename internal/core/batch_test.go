package core

import (
	"testing"

	"github.com/probdb/urm/internal/query"
)

// batchSizes are the settings every method must be invariant under:
// single-row batches (1), a size that straddles every operator boundary (7)
// and one larger than any intermediate relation in the running example (1024).
// The default (BatchSize 0) is the baseline.
var batchSizes = []int{1, 7, 1024}

// batchEntryPoints are the two ways an evaluation reaches the engine: the cold
// one-shot evaluator, and the prepared path every session, server request and
// benchmark workload takes.
func batchEntryPoints(t *testing.T, ev *Evaluator, q *query.Query) map[string]func(Options) (*Result, error) {
	t.Helper()
	prep, err := ev.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(Options) (*Result, error){
		"cold":     func(o Options) (*Result, error) { return ev.Evaluate(q, o) },
		"prepared": prep.Execute,
	}
}

// TestMethodEquivalenceAcrossBatchSizes is the vectorization's safety net at
// the evaluation layer: every method at every parallelism must produce answers,
// probabilities, answer order and operator statistics bit-identical to the
// default batch size, whatever BatchSize is set to, on both entry points.  The
// batch size is a pure physical-execution knob; if it ever leaks into an answer
// or a logical operator count, this fails.  It must still reach the engine:
// wherever the batch pipeline ran, single-row batches mean more of them.
func TestMethodEquivalenceAcrossBatchSizes(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	methods := []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing, MethodOSharing}

	for _, qc := range runtimeQueries {
		q := mustParse(t, qc.name, qc.text)
		for entry, run := range batchEntryPoints(t, NewEvaluator(db, maps), q) {
			pipelined := false
			for _, m := range methods {
				for _, parallelism := range []int{1, 8} {
					label := qc.name + "/" + m.String() + "/" + entry
					want, err := run(Options{Method: m, Parallelism: parallelism})
					if err != nil {
						t.Fatalf("%s p=%d default: %v", label, parallelism, err)
					}
					batches := map[int]int{}
					for _, bs := range batchSizes {
						got, err := run(Options{Method: m, Parallelism: parallelism, BatchSize: bs})
						if err != nil {
							t.Fatalf("%s p=%d batch %d: %v", label, parallelism, bs, err)
						}
						identicalResults(t, label, want, got)
						if want.Stats.TotalOperators() != got.Stats.TotalOperators() {
							t.Errorf("%s p=%d batch %d: executed %d operators, default executed %d",
								label, parallelism, bs, got.Stats.TotalOperators(), want.Stats.TotalOperators())
						}
						batches[bs] = got.Stats.Batches()
					}
					if want.Stats.Batches() > 0 {
						pipelined = true
						if batches[1] <= batches[1024] {
							t.Errorf("%s p=%d: %d batches at size 1, %d at size 1024: the batch size never reached the engine",
								label, parallelism, batches[1], batches[1024])
						}
					}
				}
			}
			if !pipelined {
				t.Errorf("%s/%s: no method ran the batch pipeline", qc.name, entry)
			}
		}
	}
}

// TestTopKEquivalenceAcrossBatchSizes extends the invariance to the
// probabilistic top-k algorithm, whose early-termination decisions depend on
// the probabilities the engine computes — identical answers at every batch
// size mean the batch size changed none of them.
func TestTopKEquivalenceAcrossBatchSizes(t *testing.T) {
	db := paperInstance()
	maps := paperMappings()
	q := mustParse(t, "topk", "SELECT phone FROM Person WHERE addr = 'aaa'")
	ev := NewEvaluator(db, maps)
	prep, err := ev.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(int, Options) (*Result, error){
		"cold":     func(k int, o Options) (*Result, error) { return evaluateTopK(ev, q, k, o) },
		"prepared": func(k int, o Options) (*Result, error) { return executeTopK(prep, k, o) },
	}
	for entry, run := range entries {
		for _, k := range []int{1, 3} {
			want, err := run(k, Options{})
			if err != nil {
				t.Fatalf("%s k=%d default: %v", entry, k, err)
			}
			for _, bs := range batchSizes {
				got, err := run(k, Options{BatchSize: bs})
				if err != nil {
					t.Fatalf("%s k=%d batch %d: %v", entry, k, bs, err)
				}
				identicalResults(t, "topk/"+entry, want, got)
				if want.Stats.TotalOperators() != got.Stats.TotalOperators() {
					t.Errorf("%s k=%d batch %d: executed %d operators, default executed %d",
						entry, k, bs, got.Stats.TotalOperators(), want.Stats.TotalOperators())
				}
			}
		}
	}
}
