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

// topkSink implements the decide_result bookkeeping of Algorithm 4: a
// probabilistic top-k query explores the same u-trace as o-sharing but
// maintains lower and upper probability bounds for the candidate answers,
// stopping as soon as the k answers with the highest probabilities are
// determined.  The reported probabilities are the lower bounds accumulated so
// far — the algorithm deliberately avoids computing exact probabilities.
// Candidates are looked up by 64-bit tuple hash with EqualKey bucket
// resolution, so the per-leaf bookkeeping never formats key strings.
type topkSink struct {
	k       int
	buckets map[uint64][]*tkEntry
	order   []*tkEntry
	// ub is the global UB: the probability mass of e-units not yet visited, an
	// upper bound on the probability of any tuple not seen so far.
	ub float64
	// emptyProb accumulates mass of empty results (not candidates).
	emptyProb float64
}

func newTopkSink(k int) *topkSink {
	return &topkSink{k: k, buckets: make(map[uint64][]*tkEntry), ub: 1}
}

// lookup returns the candidate entry for the tuple, or nil.
func (s *topkSink) lookup(h uint64, t engine.Tuple) *tkEntry {
	for _, e := range s.buckets[h] {
		if e.tuple.EqualKey(t) {
			return e
		}
	}
	return nil
}

// sorted returns the current candidates ordered by descending lower bound.
func (s *topkSink) sorted() []*tkEntry {
	out := make([]*tkEntry, len(s.order))
	copy(out, s.order)
	sort.SliceStable(out, func(i, j int) bool { return out[i].lb > out[j].lb })
	return out
}

// lowerBound returns LB: the lower bound of the k-th highest candidate, or 0
// when fewer than k candidates are known (a new tuple could still enter the
// top-k, so termination must not trigger on UB alone in that case).
func (s *topkSink) lowerBound() float64 {
	sorted := s.sorted()
	if len(sorted) < s.k {
		return 0
	}
	return sorted[s.k-1].lb
}

// decide checks the two termination conditions of decide_result: every
// candidate ranked below k has ub ≤ LB, and no unseen tuple can exceed LB.
func (s *topkSink) decide() bool {
	lb := s.lowerBound()
	if s.ub > lb {
		return false
	}
	sorted := s.sorted()
	for i := s.k; i < len(sorted); i++ {
		if sorted[i].ub > lb {
			return false
		}
	}
	return true
}

// onAnswers implements resultSink.
func (s *topkSink) onAnswers(rel *engine.Relation, prob float64) bool {
	lb := s.lowerBound()
	seen := engine.NewTupleSet(len(rel.Rows))
	for _, row := range rel.Rows {
		h := row.Hash64()
		if !seen.AddHashed(h, row) {
			continue
		}
		if e := s.lookup(h, row); e != nil {
			e.lb += prob
			continue
		}
		if s.ub > lb || len(s.order) < s.k {
			e := &tkEntry{tuple: row.Clone(), lb: prob, ub: s.ub}
			s.buckets[h] = append(s.buckets[h], e)
			s.order = append(s.order, e)
		}
	}
	s.ub -= prob
	return s.decide()
}

// onEmpty implements resultSink.
func (s *topkSink) onEmpty(prob float64) bool {
	s.emptyProb += prob
	s.ub -= prob
	return s.decide()
}

// topK returns the k candidates with the highest lower-bound probabilities.
func (s *topkSink) topK() []Answer {
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
