package core

import (
	"sort"

	"github.com/probdb/urm/internal/engine"
)

// MethodTopK labels results produced by the probabilistic top-k algorithm of
// Section VII.  It is reported through Result.Method but is not a value for
// Options.Method (use Evaluator.EvaluateTopK).
const MethodTopK Method = 100

// tkEntry is one candidate answer with its probability bounds.
type tkEntry struct {
	tuple engine.Tuple
	lb    float64
	ub    float64
}

// topkBounds implements the decide_result bookkeeping of Algorithm 4: a
// probabilistic top-k query walks the same u-trace as o-sharing but maintains
// lower and upper probability bounds for the candidate answers, stopping as
// soon as the k answers with the highest probabilities are determined.  The
// reported probabilities are the lower bounds accumulated so far — the
// algorithm deliberately avoids computing exact probabilities.  Candidates are
// looked up by 64-bit tuple hash with EqualKey bucket resolution, so the
// per-leaf bookkeeping never formats key strings.
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

func newTopkBounds(k int) *topkBounds {
	return &topkBounds{k: k, buckets: make(map[uint64][]*tkEntry), ub: 1}
}

// consumer is the one group consumer that may stop: it folds each leaf the
// walk hands over into the bounds and stops the walk once decide_result holds.
func (s *topkBounds) consumer() groupConsumer {
	return groupConsumer{inOrder: true, take: s.take}
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

// sorted returns the current candidates ordered by descending lower bound.
func (s *topkBounds) sorted() []*tkEntry {
	out := make([]*tkEntry, len(s.order))
	copy(out, s.order)
	sort.SliceStable(out, func(i, j int) bool { return out[i].lb > out[j].lb })
	return out
}

// decide checks the two termination conditions of decide_result: every
// candidate ranked below k has ub ≤ LB, and no unseen tuple can exceed LB.  LB
// is the lower bound of the k-th highest candidate, or 0 when fewer than k
// candidates are known (a new tuple could still enter the top-k, so
// termination must not trigger on UB alone in that case).  It sorts the
// candidates once and keeps LB for the next leaf.
func (s *topkBounds) decide() bool {
	sorted := s.sorted()
	s.lb = 0
	if len(sorted) >= s.k {
		s.lb = sorted[s.k-1].lb
	}
	if s.ub > s.lb {
		return false
	}
	for i := s.k; i < len(sorted); i++ {
		if sorted[i].ub > s.lb {
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
				e.lb += prob
				return
			}
			if s.ub > s.lb || len(s.order) < s.k {
				e := &tkEntry{tuple: row.Clone(), lb: prob, ub: s.ub}
				s.buckets[h] = append(s.buckets[h], e)
				s.order = append(s.order, e)
			}
		})
	}
	s.ub -= prob
	return s.decide()
}

// topK returns the k candidates with the highest lower-bound probabilities.
func (s *topkBounds) topK() []Answer {
	sorted := s.sorted()
	if len(sorted) > s.k {
		sorted = sorted[:s.k]
	}
	out := make([]Answer, 0, len(sorted))
	for _, e := range sorted {
		out = append(out, Answer{Tuple: e.tuple, Prob: e.lb})
	}
	return out
}
