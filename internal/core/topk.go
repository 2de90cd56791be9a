package core

import (
	"slices"

	"github.com/probdb/urm/internal/engine"
)

// MethodTopK labels results produced by the probabilistic top-k algorithm of
// Section VII.  It is reported through Result.Method but is not a value for
// Options.Method: a top-k run is asked for with Options.TopK.
const MethodTopK Method = 100

// tkEntry is one candidate answer with its probability bounds: the embedded
// entry's prob is the lower bound, and its canonical key, which breaks ties
// between equal lower bounds, is computed once, when the candidate is
// admitted.
type tkEntry struct {
	aggEntry
	ub float64
}

// topkBounds implements the decide_result bookkeeping of Algorithm 4: a
// probabilistic top-k query walks the same u-trace as o-sharing but maintains
// lower and upper probability bounds for the candidate answers, stopping as
// soon as the k answers with the highest probabilities are determined.  The
// reported probabilities are the lower bounds accumulated so far — the
// algorithm deliberately avoids computing exact probabilities.  Candidates are
// looked up by 64-bit tuple hash with EqualKey bucket resolution, so a leaf
// formats a key string only for a candidate it admits.
//
// It is the second answerSink beside the aggregator: an unsharded walk feeds
// it, and so does ScatterPlan.Merge from shards' runs, whose leaves hold the
// same distinct rows in another order.  Candidates are ranked in the
// aggregator's canonical order — lower bound, then key — so neither the order
// of tied answers nor decide's check over the ranks from k on depends on the
// order a leaf's rows arrived in.
type topkBounds struct {
	k       int
	buckets map[uint64][]*tkEntry
	order   []*tkEntry
	// ub is the global UB: the probability mass of e-units not yet visited, an
	// upper bound on the probability of any tuple not seen so far.
	ub float64
	// lb is LB as the last decide computed it.  Nothing moves a bound between
	// two leaves, so a leaf admits new candidates against it unsorted.
	lb float64
	// emptyProb accumulates mass of empty results (not candidates).
	emptyProb float64
}

// newTopkBounds returns the bounds for the top k answers, with pre already
// given to the empty answer.
func newTopkBounds(k int, pre float64) *topkBounds {
	return &topkBounds{k: k, buckets: make(map[uint64][]*tkEntry), ub: 1 - pre, emptyProb: pre}
}

// lookup returns the candidate entry for the tuple, or nil.
func (s *topkBounds) lookup(h uint64, t engine.Tuple) *tkEntry {
	for _, e := range s.buckets[h] {
		if e.tuple.EqualKey(t) {
			return e
		}
	}
	return nil
}

// ranked returns the current candidates in canonical order: descending lower
// bound, ties by key.
func (s *topkBounds) ranked() []*tkEntry {
	out := slices.Clone(s.order)
	slices.SortFunc(out, func(a, b *tkEntry) int { return compareEntries(&a.aggEntry, &b.aggEntry) })
	return out
}

// decide checks the two termination conditions of decide_result: every
// candidate ranked below k has ub ≤ LB, and no unseen tuple can exceed LB.  LB
// is the lower bound of the k-th highest candidate, or 0 when fewer than k
// candidates are known (a new tuple could still enter the top-k, so
// termination must not trigger on UB alone in that case).  It ranks the
// candidates once and keeps LB for the next leaf.
func (s *topkBounds) decide() bool {
	ranked := s.ranked()
	s.lb = 0
	if len(ranked) >= s.k {
		s.lb = ranked[s.k-1].prob
	}
	if s.ub > s.lb {
		return false
	}
	for i := s.k; i < len(ranked); i++ {
		if ranked[i].ub > s.lb {
			return false
		}
	}
	return true
}

// take folds one leaf into the bounds: each distinct tuple's lower bound gains
// the leaf's mass, and a tuple seen for the first time becomes a candidate
// while an unseen tuple could still reach the top k.  No rows send the mass to
// the empty answer.  It reports whether the top k are decided.
func (s *topkBounds) take(_ int, prob float64, rows []engine.Tuple) bool {
	if len(rows) == 0 {
		s.emptyProb += prob
	} else {
		firstSeen(engine.NewTupleSet(len(rows)), rows, func(h uint64, row engine.Tuple) {
			if e := s.lookup(h, row); e != nil {
				e.prob += prob
				return
			}
			if s.ub > s.lb || len(s.order) < s.k {
				e := &tkEntry{aggEntry: aggEntry{tuple: row.Clone(), key: row.Key(), prob: prob}, ub: s.ub}
				s.buckets[h] = append(s.buckets[h], e)
				s.order = append(s.order, e)
			}
		})
	}
	s.ub -= prob
	return s.decide()
}

// sorted returns the k candidates with the highest lower bounds, in canonical
// order, and the empty answer's mass.
func (s *topkBounds) sorted() ([]*aggEntry, float64) {
	ranked := s.ranked()
	if len(ranked) > s.k {
		ranked = ranked[:s.k]
	}
	out := make([]*aggEntry, len(ranked))
	for i, e := range ranked {
		out[i] = &e.aggEntry
	}
	return out, s.emptyProb
}
