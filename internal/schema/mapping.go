package schema

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Mapping is one possible interpretation of an uncertain matching: a
// one-to-one, partial set of correspondences between source and target
// attributes, together with the probability that the mapping is correct
// (Section III-A of the paper).  The correspondence list is the mapping's
// only representation: every lookup scans it.
type Mapping struct {
	// ID is a stable identifier such as "m1", "m2", ... used in traces and
	// experiment output.
	ID string
	// Correspondences is the set of attribute correspondences this mapping
	// asserts.  The target attributes are pairwise distinct and so are the
	// source attributes (one-to-one): NewMapping rejects a list that repeats
	// either.
	Correspondences []Correspondence
	// Prob is Pr(mi), the probability that this mapping is the correct one.
	// Probabilities of all mappings in a Matching sum to 1.
	Prob float64
}

// NewMapping builds a mapping from correspondences, validating the one-to-one
// property.  The probability may be set later via SetProb or by
// NormalizeProbabilities.
func NewMapping(id string, corrs []Correspondence, prob float64) (*Mapping, error) {
	m := &Mapping{ID: id, Prob: prob}
	seenSource := make(map[Attribute]bool, len(corrs))
	seenTarget := make(map[Attribute]bool, len(corrs))
	for _, c := range corrs {
		if seenSource[c.Source] {
			return nil, fmt.Errorf("mapping %s: source attribute %s appears twice", id, c.Source)
		}
		if seenTarget[c.Target] {
			return nil, fmt.Errorf("mapping %s: target attribute %s appears twice", id, c.Target)
		}
		seenSource[c.Source] = true
		seenTarget[c.Target] = true
		m.Correspondences = append(m.Correspondences, c)
	}
	return m, nil
}

// MustNewMapping is NewMapping that panics on error.
func MustNewMapping(id string, corrs []Correspondence, prob float64) *Mapping {
	m, err := NewMapping(id, corrs, prob)
	if err != nil {
		panic(err)
	}
	return m
}

// SourceFor returns the source attribute this mapping assigns to the target
// attribute, and whether such a correspondence exists.  It scans the
// correspondence list, so it always reflects the list as it stands; should a
// list built without NewMapping repeat a target, its first correspondence
// for that target wins.
func (m *Mapping) SourceFor(target Attribute) (Attribute, bool) {
	for _, c := range m.Correspondences {
		if c.Target == target {
			return c.Source, true
		}
	}
	return Attribute{}, false
}

// Covers reports whether the mapping has a correspondence for every target
// attribute in the list.
func (m *Mapping) Covers(targets []Attribute) bool {
	for _, t := range targets {
		if _, ok := m.SourceFor(t); !ok {
			return false
		}
	}
	return true
}

// Size returns the number of correspondences in the mapping.
func (m *Mapping) Size() int { return len(m.Correspondences) }

// TotalScore returns the sum of similarity scores of the mapping's
// correspondences.  It is the raw weight the k-best matcher optimises and the
// quantity that is normalised into Pr(mi).
func (m *Mapping) TotalScore() float64 {
	s := 0.0
	for _, c := range m.Correspondences {
		s += c.Score
	}
	return s
}

// Keys returns the score-free correspondence keys of the mapping, sorted for
// deterministic comparison.
func (m *Mapping) Keys() []Key {
	keys := make([]Key, 0, len(m.Correspondences))
	for _, c := range m.Correspondences {
		keys = append(keys, c.Key())
	}
	slices.SortFunc(keys, func(a, b Key) int {
		if c := compareAttr(a.Target, b.Target); c != 0 {
			return c
		}
		return compareAttr(a.Source, b.Source)
	})
	return keys
}

// Signature returns a canonical string identifying the mapping's
// correspondence set (ignoring scores and probability).  Two mappings with the
// same signature reformulate every query identically.
func (m *Mapping) Signature() string {
	keys := m.Keys()
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(k.Target.String())
		b.WriteByte('=')
		b.WriteString(k.Source.String())
	}
	return b.String()
}

// ProjectedSignature returns a canonical string identifying only the
// correspondences for the given target attributes.  Mappings with equal
// projected signatures produce the same source query for any query that
// touches exactly those attributes (the q-sharing partition criterion).
func (m *Mapping) ProjectedSignature(targets []Attribute) string {
	var b strings.Builder
	for i, t := range targets {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(t.String())
		b.WriteByte('=')
		if src, ok := m.SourceFor(t); ok {
			b.WriteString(src.String())
		} else {
			b.WriteString("<none>")
		}
	}
	return b.String()
}

// Clone returns a deep copy of the mapping.
func (m *Mapping) Clone() *Mapping {
	corrs := make([]Correspondence, len(m.Correspondences))
	copy(corrs, m.Correspondences)
	return &Mapping{ID: m.ID, Correspondences: corrs, Prob: m.Prob}
}

// String renders the mapping id and probability.
func (m *Mapping) String() string {
	return fmt.Sprintf("%s(p=%.3f, %d corrs)", m.ID, m.Prob, len(m.Correspondences))
}

// ORatio computes the overlap ratio |mi ∩ mj| / |mi ∪ mj| between two
// mappings, counting score-free correspondences (Section VIII-B.1).
func ORatio(a, b *Mapping) float64 {
	if a == nil || b == nil {
		return 0
	}
	setA := make(map[Key]bool, len(a.Correspondences))
	for _, c := range a.Correspondences {
		setA[c.Key()] = true
	}
	inter := 0
	union := len(setA)
	for _, c := range b.Correspondences {
		if setA[c.Key()] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// MappingSet is an ordered collection of possible mappings.
type MappingSet []*Mapping

// ORatio returns the average pairwise overlap ratio of the mapping set, the
// metric reported in Figure 9(a).  It returns 1 for sets with fewer than two
// mappings.
func (ms MappingSet) ORatio() float64 {
	if len(ms) < 2 {
		return 1
	}
	sum := 0.0
	pairs := 0
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			sum += ORatio(ms[i], ms[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

// NormalizeProbabilities assigns each mapping a probability equal to its total
// similarity score divided by the sum of scores over the set, the derivation
// used in Section I and [9].  If every score is zero it assigns the uniform
// distribution.
func (ms MappingSet) NormalizeProbabilities() {
	total := 0.0
	for _, m := range ms {
		total += m.TotalScore()
	}
	if total <= 0 {
		for _, m := range ms {
			m.Prob = 1 / float64(len(ms))
		}
		return
	}
	for _, m := range ms {
		m.Prob = m.TotalScore() / total
	}
}

// Validate checks the mutual-exclusiveness contract: probabilities are
// non-negative and sum to 1 within tolerance, and IDs are unique.
func (ms MappingSet) Validate() error {
	if len(ms) == 0 {
		return fmt.Errorf("mapping set is empty")
	}
	ids := make(map[string]bool, len(ms))
	sum := 0.0
	for _, m := range ms {
		if m.Prob < -1e-12 {
			return fmt.Errorf("mapping %s has negative probability %g", m.ID, m.Prob)
		}
		if ids[m.ID] {
			return fmt.Errorf("duplicate mapping id %s", m.ID)
		}
		ids[m.ID] = true
		sum += m.Prob
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("mapping probabilities sum to %g, want 1", sum)
	}
	return nil
}

// Clone returns a deep copy of the mapping set.
func (ms MappingSet) Clone() MappingSet {
	out := make(MappingSet, len(ms))
	for i, m := range ms {
		out[i] = m.Clone()
	}
	return out
}

// Matching is the full uncertain matching between a source and a target
// schema: the raw scored correspondences returned by a matcher plus the set of
// possible mappings derived from them.
type Matching struct {
	Source *Schema
	Target *Schema
	// Correspondences is the matcher's scored correspondence matrix (every
	// candidate pair above threshold), before mapping generation.
	Correspondences []Correspondence
	// Mappings is the set of h possible mappings with probabilities.
	Mappings MappingSet
}

// Validate checks schema membership of every correspondence and the mapping
// probability contract.
func (mt *Matching) Validate() error {
	if mt.Source == nil || mt.Target == nil {
		return fmt.Errorf("matching must reference both schemas")
	}
	for _, c := range mt.Correspondences {
		if !mt.Source.HasAttribute(c.Source) {
			return fmt.Errorf("correspondence %v: source attribute not in schema %s", c, mt.Source.Name)
		}
		if !mt.Target.HasAttribute(c.Target) {
			return fmt.Errorf("correspondence %v: target attribute not in schema %s", c, mt.Target.Name)
		}
		if c.Score <= 0 || c.Score > 1 {
			return fmt.Errorf("correspondence %v: score out of (0,1]", c)
		}
	}
	for _, m := range mt.Mappings {
		for _, c := range m.Correspondences {
			if !mt.Source.HasAttribute(c.Source) || !mt.Target.HasAttribute(c.Target) {
				return fmt.Errorf("mapping %s: correspondence %v not covered by schemas", m.ID, c)
			}
		}
	}
	if len(mt.Mappings) > 0 {
		return mt.Mappings.Validate()
	}
	return nil
}
