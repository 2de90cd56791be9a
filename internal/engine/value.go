// Package engine is an in-memory relational algebra engine: typed values,
// tuples, relations, a named instance (database), predicates, and the physical
// operators needed by the paper's workloads — selection, projection, Cartesian
// product, equi-join, duplicate elimination and COUNT/SUM/AVG/MIN/MAX
// aggregation.  Every operator execution is recorded in a Stats collector so
// the evaluation algorithms can report how many source operators they ran
// (Table IV of the paper).
package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a Value can hold.
type Kind int

// Value kinds.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single typed datum.  The zero value is NULL.
type Value struct {
	Kind  Kind
	Str   string
	Int   int64
	Float float64
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// S returns a string value.
func S(s string) Value { return Value{Kind: KindString, Str: s} }

// I returns an integer value.
func I(i int64) Value { return Value{Kind: KindInt, Int: i} }

// F returns a float value.
func F(f float64) Value { return Value{Kind: KindFloat, Float: f} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat converts numeric values to float64; strings parse if possible.
// The second result reports whether the conversion succeeded.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	case KindString:
		f, err := strconv.ParseFloat(v.Str, 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// String renders the value for display and for canonical answer-tuple keys.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.Str
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	default:
		return "?"
	}
}

// FNV-1a parameters for the 64-bit value/tuple hashes.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hash64 mixes the value into the running FNV-1a hash h.  The kind tag is
// hashed first so that S("1"), I(1) and F(1) — distinct under Key equality —
// land in different buckets.
func (v Value) hash64(h uint64) uint64 {
	h ^= uint64(v.Kind) + 1
	h *= fnvPrime64
	switch v.Kind {
	case KindString:
		for i := 0; i < len(v.Str); i++ {
			h ^= uint64(v.Str[i])
			h *= fnvPrime64
		}
	case KindInt:
		x := uint64(v.Int)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime64
			x >>= 8
		}
	case KindFloat:
		x := math.Float64bits(v.Float)
		if v.Float != v.Float {
			// Key() formats every NaN payload as "NaN", so all NaNs must
			// share a hash to stay consistent with EqualKey.
			x = math.Float64bits(math.NaN())
		}
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime64
			x >>= 8
		}
	}
	return h
}

// Hash64 returns a 64-bit hash of the value, consistent with EqualKey:
// values that are EqualKey always hash identically.
func (v Value) Hash64() uint64 { return v.hash64(fnvOffset64) }

// EqualKey reports equality under the canonical Key encoding: the kinds must
// match and the active payload must render identically.  Floats compare by
// bit pattern — strconv's 'g'/-1 rendering is injective per bit pattern
// (−0 and +0 render differently) — except NaNs, which all render "NaN" and
// so are all equal here regardless of payload bits.  This is the equality
// the engine's duplicate detection and hash joins are defined by; it is
// stricter than Equal, which compares numerics across kinds.
func (v Value) EqualKey(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindString:
		return v.Str == o.Str
	case KindInt:
		return v.Int == o.Int
	case KindFloat:
		if v.Float != v.Float {
			return o.Float != o.Float // every NaN formats as "NaN"
		}
		return math.Float64bits(v.Float) == math.Float64bits(o.Float)
	default:
		return true
	}
}

// Equal reports whether two values are equal.  Numeric values compare by
// numeric value across int/float kinds; NULL equals only NULL.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return v.Kind == KindNull && o.Kind == KindNull
	}
	if v.Kind == KindString && o.Kind == KindString {
		return v.Str == o.Str
	}
	vf, vok := v.AsFloat()
	of, ook := o.AsFloat()
	if vok && ook {
		return vf == of
	}
	return v.String() == o.String()
}

// Compare returns -1, 0 or +1 ordering v relative to o.  NULL sorts before
// everything; strings compare lexicographically; numbers numerically.  Mixed
// string/number comparisons fall back to string comparison of renderings.
func (v Value) Compare(o Value) int {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == KindNull && o.Kind == KindNull:
			return 0
		case v.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.Kind == KindString && o.Kind == KindString {
		return strings.Compare(v.Str, o.Str)
	}
	vf, vok := v.AsFloat()
	of, ook := o.AsFloat()
	if vok && ook {
		switch {
		case vf < of:
			return -1
		case vf > of:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(v.String(), o.String())
}

// Tuple is an ordered list of values; positions correspond to the owning
// relation's columns.
type Tuple []Value

// Key returns a canonical encoding of the tuple used for duplicate detection
// and probabilistic answer aggregation.  Values are separated by an unlikely
// delimiter and prefixed by their kind to keep S("1") distinct from I(1).
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteByte(byte('0' + int(v.Kind)))
		b.WriteByte(':')
		b.WriteString(v.String())
	}
	return b.String()
}

// Hash64 returns a 64-bit hash of the whole tuple, consistent with EqualKey.
// It replaces Key() on the hot paths: hashing never formats values.
func (t Tuple) Hash64() uint64 {
	h := fnvOffset64
	for _, v := range t {
		h = v.hash64(h)
	}
	return h
}

// EqualKey reports element-wise EqualKey equality: exactly the tuples that
// share a canonical Key() are EqualKey.  Unlike Equal it distinguishes
// S("1") from I(1), which is what duplicate elimination and probabilistic
// answer aggregation require.
func (t Tuple) EqualKey(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].EqualKey(o[i]) {
			return false
		}
	}
	return true
}

// Equal reports element-wise equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// TupleSet is a hash set of tuples under Key equality (Hash64/EqualKey),
// backed by the engine's shared hashIndex bucket-chain structure: collisions
// are resolved by scanning a chain of row indices, so membership never formats
// values and never allocates a slice per bucket — storage is flat slices that
// grow geometrically, with the power-of-two bucket array doubling at load
// factor 1.  Chain indices are int32: the set silently assumes fewer than
// 2^31 tuples, which in-memory relations cannot approach (2 billion rows of
// ≥48 bytes each would need >100 GB).  The zero value is not usable; call
// NewTupleSet.
type TupleSet struct {
	idx hashIndex
}

// NewTupleSet returns an empty set sized for about n tuples.
func NewTupleSet(n int) *TupleSet {
	s := &TupleSet{idx: hashIndex{heads: newBuckets(n), col: -1}}
	s.idx.mask = uint64(len(s.idx.heads) - 1)
	return s
}

// Add inserts the tuple and reports whether it was not already present.
func (s *TupleSet) Add(t Tuple) bool { return s.AddHashed(t.Hash64(), t) }

// AddHashed is Add for callers that already computed the tuple's Hash64 —
// the answer aggregators and batch operators reuse one hash for dedup and
// bucket lookup.  Chain entries whose stored hash differs are bucket
// collisions and are rejected without touching the tuple.
func (s *TupleSet) AddHashed(h uint64, t Tuple) bool {
	for j := s.idx.lookup(h); j != 0; j = s.idx.next[j-1] {
		if s.idx.hashes[j-1] == h && s.idx.rows[j-1].EqualKey(t) {
			return false
		}
	}
	s.idx.add(h, t)
	return true
}

// firstSeen is the one dedupe kernel, behind DistinctRows and the batch
// pipeline's distinct: it hashes the live rows of rows — those sel indexes,
// or all of them when sel is nil — in one pass into *hashes (grown as needed),
// then adds them in order and appends to dst the index of each row the set
// did not hold yet.
func (s *TupleSet) firstSeen(rows []Tuple, sel []int32, hashes *[]uint64, dst []int32) []int32 {
	m := len(rows)
	if sel != nil {
		m = len(sel)
	}
	if cap(*hashes) < m {
		*hashes = make([]uint64, m)
	}
	h := (*hashes)[:m]
	if sel == nil {
		for i := range rows {
			h[i] = rows[i].Hash64()
		}
		for i := range rows {
			if s.AddHashed(h[i], rows[i]) {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for k, i := range sel {
		h[k] = rows[i].Hash64()
	}
	for k, i := range sel {
		if s.AddHashed(h[k], rows[i]) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Len returns the number of distinct tuples in the set.
func (s *TupleSet) Len() int { return len(s.idx.rows) }
