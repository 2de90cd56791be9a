package core

import (
	"container/heap"
	"slices"

	"github.com/probdb/urm/internal/engine"
)

// MethodTopK labels results produced by the probabilistic top-k algorithm of
// Section VII.  It is reported through Result.Method but is not a value for
// Options.Method: a top-k run is asked for with Options.TopK.
const MethodTopK Method = 100

// topkBounds implements the decide_result bookkeeping of Algorithm 4: a
// probabilistic top-k query walks the same u-trace as o-sharing but stops as
// soon as the k answers with the highest probabilities are determined.  The
// reported probabilities are the lower bounds accumulated so far — the
// algorithm deliberately avoids computing exact probabilities.
//
// The candidates are the aggregator's entries: an entry's prob is its lower
// bound, and its upper bound is that plus ub, since everything it can still
// gain lies in the unvisited mass.  Only the k+1 highest lower bounds matter
// to decide, so top keeps them and nothing is sorted before the end; keys are
// built once, at the end, for the k winners and the entries tied with the
// k-th.
//
// It is the second answerSink beside the aggregator: an unsharded walk feeds
// it, and so does ScatterPlan.Merge from shards' runs, whose leaves hold the
// same distinct rows in another order.  Neither the answers, ranked in the
// aggregator's canonical order, nor decide, which reads only bound values,
// depends on the order a leaf's rows arrived in.
type topkBounds struct {
	aggregator
	k int
	// ub is the global UB: the probability mass of e-units not yet visited, an
	// upper bound on the probability of any tuple not seen so far.
	ub float64
	// lb is LB as the last decide computed it: the k-th highest lower bound,
	// 0 with fewer than k candidates.  A leaf admits new candidates against it.
	lb float64
	// top is a min-heap of k+1 candidates with the highest lower bounds, ties
	// in any order; touched holds the entries the current leaf added to.
	top     entryHeap
	touched []*aggEntry
}

// newTopkBounds returns the bounds for the top k answers, with pre already
// given to the empty answer.
func newTopkBounds(k int, pre float64) *topkBounds {
	s := &topkBounds{aggregator: *newAggregator(), k: k, ub: 1 - pre}
	s.addEmpty(pre)
	return s
}

// take folds one leaf into the bounds: each distinct tuple's lower bound gains
// the leaf's mass, and a tuple seen for the first time becomes a candidate
// while an unseen tuple could still reach the top k.  No rows send the mass to
// the empty answer.  It reports whether the top k are decided.
func (s *topkBounds) take(_ int, prob float64, rows []engine.Tuple) bool {
	if len(rows) == 0 {
		s.addEmpty(prob)
	} else {
		s.calls++
		for _, row := range rows {
			if e := s.addHashed(row.Hash64(), row, prob, s.ub > s.lb || len(s.order) < s.k); e != nil {
				s.touched = append(s.touched, e)
			}
		}
	}
	s.ub -= prob
	return s.decide()
}

// decide checks the two termination conditions of decide_result: no unseen
// tuple can exceed LB (ub ≤ LB), and no candidate ranked below k can either.
// A candidate's upper bound is its lower bound plus ub, and float addition is
// monotone, so the (k+1)-th highest lower bound speaks for every candidate
// below k.  With fewer than k candidates LB is 0: a new tuple could still
// enter the top k, so the stop must not fire on ub alone.
func (s *topkBounds) decide() bool {
	s.rank()
	// With k+1 entries the heap's root is the (k+1)-th highest and the k-th
	// is the lower of the root's children.
	switch n := len(s.top); {
	case n < s.k:
		s.lb = 0
	case n == s.k:
		s.lb = s.top[0].prob
	case n == 2:
		s.lb = s.top[1].prob
	default:
		s.lb = min(s.top[1].prob, s.top[2].prob)
	}
	if s.ub > s.lb {
		return false
	}
	return len(s.top) <= s.k || s.top[0].prob+s.ub <= s.lb
}

// rank folds the entries the last leaf touched into top.  Lower bounds only
// rise, so the k+1 highest after a leaf lie among the k+1 highest before it
// and the entries it touched — those whose call is the current one.
func (s *topkBounds) rank() {
	if len(s.touched) == 0 {
		return
	}
	kept := s.top[:0]
	for _, e := range s.top {
		if e.call != s.calls {
			kept = append(kept, e)
		}
	}
	s.top = kept
	heap.Init(&s.top)
	for _, e := range s.touched {
		if len(s.top) <= s.k {
			heap.Push(&s.top, e)
		} else if e.prob > s.top[0].prob {
			s.top[0] = e
			heap.Fix(&s.top, 0)
		}
	}
	s.touched = s.touched[:0]
}

// sorted returns the k candidates with the highest lower bounds, in canonical
// order, and the empty answer's mass: the aggregator's first k answers,
// without keying and sorting every candidate.  top holds the k+1 highest
// lower bounds and lb the k-th of them, so every entry above lb is in top;
// the rest of the k are entries tied at lb, which top may hold only some of,
// taken in key order.
func (s *topkBounds) sorted() ([]*aggEntry, float64) {
	if len(s.order) <= s.k {
		return s.aggregator.sorted()
	}
	out := make([]*aggEntry, 0, s.k)
	for _, e := range s.top {
		if e.prob > s.lb {
			out = append(out, e)
		}
	}
	above := len(out)
	for _, e := range s.order {
		if e.prob == s.lb {
			out = append(out, e)
		}
	}
	for _, e := range out {
		e.key = e.tuple.Key()
	}
	slices.SortFunc(out[:above], compareEntries)
	slices.SortFunc(out[above:], compareEntries)
	return out[:s.k], s.emptyProb
}

// entryHeap is a min-heap of entries by probability, for container/heap.
type entryHeap []*aggEntry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].prob < h[j].prob }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)        { *h = append(*h, x.(*aggEntry)) }
func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
