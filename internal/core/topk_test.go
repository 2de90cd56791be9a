package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
)

// TestTopKAllocatesNoMoreThanOSharing pins that a top-k run costs no more
// allocations than the whole distribution on the benchmark fixture (Excel, 100
// mappings, 40 MB, seed 42): top-k folds its leaves into the aggregator's own
// table and reads the same rows or fewer, so only its bound state — the heap
// of the k+1 highest candidates and the touched list, grown by doubling, 13
// allocations at most on these cells — comes on top.  A second answer table,
// per-leaf sets or per-leaf sorts fail here (they cost 31–87 more).
func TestTopKAllocatesNoMoreThanOSharing(t *testing.T) {
	const slack = 16
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ds.DB, ds.Mappings())
	for id := 1; id <= 5; id++ {
		prep, err := ev.Prepare(datagen.MustWorkloadQuery(id))
		if err != nil {
			t.Fatalf("Q%d prepare: %v", id, err)
		}
		for _, st := range []Strategy{StrategySEF, StrategySNF} {
			opts := Options{Method: MethodOSharing, Strategy: st, Parallelism: 1}
			full := testing.AllocsPerRun(10, func() { prep.Execute(opts) })
			for _, k := range []int{1, 3, 10} {
				if _, err := executeTopK(prep, k, opts); err != nil {
					t.Fatalf("Q%d/%s/top-%d: %v", id, st, k, err)
				}
				top := testing.AllocsPerRun(10, func() { executeTopK(prep, k, opts) })
				if top > full+slack {
					t.Errorf("Q%d/%s/top-%d allocated %v times per evaluation, o-sharing %v", id, st, k, top, full)
				}
			}
		}
	}
}

// fuzzLeaf is one leaf a top-k sink takes: its mass and its rows.
type fuzzLeaf struct {
	mass float64
	rows []engine.Tuple
}

// fuzzTuples is the tuple domain of FuzzTopKSink; Table II's answers first.
var fuzzTuples = []engine.Tuple{{engine.S("123")}, {engine.S("456")}, {engine.S("789")}, {engine.S("aaa")}, {engine.I(7)}}

// fuzzLeaves decodes a leaf sequence: per leaf a header byte, whose weight
// 1 + b%6 over the sequence's total weight is the leaf's mass and whose
// (b/6)%5 is its row count, then one byte per row picking from fuzzTuples.
func fuzzLeaves(data []byte) []fuzzLeaf {
	var leaves []fuzzLeaf
	var weights []int
	total := 0
	for len(data) > 0 && len(leaves) < 24 {
		b := data[0]
		w, n := 1+int(b)%6, min(int(b)/6%5, len(data)-1)
		l := fuzzLeaf{}
		for _, r := range data[1 : 1+n] {
			l.rows = append(l.rows, fuzzTuples[int(r)%len(fuzzTuples)])
		}
		data = data[1+n:]
		leaves, weights, total = append(leaves, l), append(weights, w), total+w
	}
	for i := range leaves {
		leaves[i].mass = float64(weights[i]) / float64(total)
	}
	return leaves
}

// TestTopKAnswersAreTheAggregatorsFirstK holds the sink's answers to the first
// k of its aggregator's canonical order — the same entries in the same order,
// which is what the sink returned when it keyed and sorted every candidate —
// over random leaves whose masses and rows tie often, so the k-th lower bound
// is shared by more entries than the heap of k+1 holds.
func TestTopKAnswersAreTheAggregatorsFirstK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	for trial := 0; trial < 3000; trial++ {
		rng.Read(data)
		k := 1 + trial%8
		sink := newTopkBounds(k, 0)
		for i, l := range fuzzLeaves(data) {
			if sink.take(i, l.mass, l.rows) {
				break
			}
		}
		got, gotEmpty := sink.sorted()
		all, wantEmpty := sink.aggregator.sorted()
		want := all[:min(k, len(all))]
		if !slices.Equal(got, want) || gotEmpty != wantEmpty {
			t.Fatalf("trial %d, k=%d: answers %v (empty %g), the aggregator's first k %v (empty %g)",
				trial, k, answersOf(got), gotEmpty, answersOf(want), wantEmpty)
		}
	}
}

// encodeLeaves is fuzzLeaves' inverse for the seed corpus: k, then per leaf
// its weight and the indexes of its rows in fuzzTuples.
func encodeLeaves(k int, leaves ...[]int) []byte {
	out := []byte{byte(k - 1)}
	for _, l := range leaves {
		out = append(out, byte(l[0]-1+6*(len(l)-1)))
		for _, r := range l[1:] {
			out = append(out, byte(r))
		}
	}
	return out
}

// topkStopRef restates decide_result with a sort per leaf: a tuple becomes a
// candidate while ub > LB or fewer than k are known, and the run stops once
// ub ≤ LB and every candidate ranked below k has lower bound + ub ≤ LB, LB
// being the k-th highest lower bound (0 with fewer than k).  It returns the
// index of the leaf after which a sink stops, or len(leaves).
func topkStopRef(k int, leaves []fuzzLeaf) int {
	lower := map[string]float64{}
	ub, lb := 1.0, 0.0
	for i, l := range leaves {
		seen := map[string]bool{}
		for _, row := range l.rows {
			key := row.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			if _, ok := lower[key]; ok || ub > lb || len(lower) < k {
				lower[key] += l.mass
			}
		}
		ub -= l.mass
		var probs []float64
		for _, p := range lower {
			probs = append(probs, p)
		}
		slices.Sort(probs)
		slices.Reverse(probs)
		lb = 0
		if len(probs) >= k {
			lb = probs[k-1]
		}
		stop := ub <= lb
		for _, p := range probs[min(k, len(probs)):] {
			stop = stop && p+ub <= lb
		}
		if stop {
			return i
		}
	}
	return len(leaves)
}

// FuzzTopKSink feeds a top-k sink fuzzed leaves — masses from a few tied
// values, empty leaves, rows repeated within a leaf — and checks that it stops
// at the leaf topkStopRef names, and that its answers are a valid top k of an
// aggregator fed every leaf, in canonical order, with the empty answer's mass
// of the leaves it took.
func FuzzTopKSink(f *testing.F) {
	// Table II: the walk of SELECT phone FROM Person WHERE addr = 'aaa'
	// hands over 123 and 456 at 0.5, 456 at 0.3 and 789 at 0.2; top-1 stops
	// after the second leaf.
	f.Add(encodeLeaves(1, []int{5, 0, 1}, []int{3, 1}, []int{2, 2}))
	// Three answers tie at rank k = 2, with a repeat and an empty leaf.
	f.Add(encodeLeaves(2, []int{3, 0, 1, 1, 2}, []int{2}, []int{2, 0, 1, 2}, []int{1, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%8
		leaves := fuzzLeaves(data[1:])

		sink := newTopkBounds(k, 0)
		exact := newAggregator()
		stop, empty := len(leaves), 0.0
		for i, l := range leaves {
			exact.addRows(l.rows, l.mass)
			if stop < len(leaves) {
				continue
			}
			if len(l.rows) == 0 {
				empty += l.mass
			}
			if sink.take(i, l.mass, l.rows) {
				stop = i
			}
		}
		if want := topkStopRef(k, leaves); stop != want {
			t.Fatalf("k=%d: stopped after leaf %d, the rule stops after %d", k, stop, want)
		}
		entries, emptyProb := sink.sorted()
		if !slices.IsSortedFunc(entries, compareEntries) {
			t.Errorf("k=%d: answers %v are not in canonical order", k, answersOf(entries))
		}
		if emptyProb != empty {
			t.Errorf("k=%d: empty answer %g, want %g", k, emptyProb, empty)
		}
		all, _ := exact.sorted()
		requireValidTopK(t, fmt.Sprintf("leaves %v", leaves), &Result{Answers: answersOf(all)}, &Result{Answers: answersOf(entries)}, k)
	})
}
