package engine

import (
	"math"
	"math/bits"
)

// exactSum accumulates float64 values exactly and rounds once, so a sum does
// not depend on the order its terms arrive in.  It is Neal's small
// superaccumulator ("Fast exact summation using small and large
// superaccumulators", arXiv:1505.05571): the sum is a fixed-point integer in
// units of 2^-1074, the smallest subnormal, held as signed 64-bit chunks of
// 32 bits each.  A term's 53-bit significand, shifted to its exponent, lands
// as at most three 32-bit pieces in three adjacent chunks, with no loop, and
// each chunk's 31 spare bits absorb 2^31 pieces before carries must move up,
// which reserve does every 2^30 terms.
//
// Infinities and NaNs are summed apart and win over any finite total, as in
// plain IEEE summation (+Inf + -Inf is NaN).  A finite total too large for
// float64 rounds to ±Inf.
type exactSum struct {
	chunks    [sumChunks]int64
	terms     uint64 // terms since the carries last moved
	special   float64
	nonFinite bool
}

// sumChunks covers every finite float64: a term shifted by up to 2,045 bits
// spans 32-bit chunks up to index 63+2, and the top chunk takes the carries.
const sumChunks = 66

// add folds x into the sum.
func (s *exactSum) add(x float64) {
	s.reserve(1)
	s.addReserved(x)
}

// reserve makes room for n more terms, moving the carries up first when the
// chunks' spare bits could not absorb them.
func (s *exactSum) reserve(n int) {
	if s.terms+uint64(n) > 1<<30 {
		s.carry()
	}
	s.terms += uint64(n)
}

// addReserved folds x, whose term is reserved, into the sum.  A hot loop
// inlines its common case by hand: a normal x goes straight to addBits.
func (s *exactSum) addReserved(x float64) {
	b := math.Float64bits(x)
	if shift := b>>52&0x7ff - 1; shift < 0x7fe { // a normal x: shift = biased exponent - 1
		s.addBits(shift, b&(1<<52-1)|1<<52, b>>63)
		return
	}
	s.addSpecial(x)
}

// addBits adds ±m · 2^shift units: m shifted into place spans at most three
// 32-bit pieces, which one 64×64→128-bit multiply by 2^(shift mod 32) lays
// out, negated together when neg is 1.
func (s *exactSum) addBits(shift, m, neg uint64) {
	i := shift >> 5
	hi, lo := bits.Mul64(m, 1<<(shift&31))
	sign := -int64(neg) // 0, or -1 to negate
	c := (*[3]int64)(s.chunks[i : i+3])
	c[0] += (int64(lo&0xffffffff) ^ sign) - sign
	c[1] += (int64(lo>>32) ^ sign) - sign
	c[2] += (int64(hi) ^ sign) - sign
}

// addSpecial is addReserved for a zero, a subnormal, an infinity or a NaN.
func (s *exactSum) addSpecial(x float64) {
	b := math.Float64bits(x)
	if b>>52&0x7ff == 0x7ff {
		s.special += x
		s.nonFinite = true
		return
	}
	// Zero or subnormal: no implicit bit, scaled as for a biased exponent 1.
	s.addBits(0, b&(1<<52-1), b>>63)
}

// carry moves each chunk's bits above 32 into the next one, leaving every
// chunk but the top in [0, 2^32).
func (s *exactSum) carry() {
	c := &s.chunks
	for i := 0; i < sumChunks-1; i++ {
		hi := c[i] >> 32
		c[i] -= hi << 32
		c[i+1] += hi
	}
	s.terms = 0
}

// value returns the exact sum rounded once to the nearest float64, ties to
// even.  An empty or exactly cancelling sum is +0, as plain summation from 0
// returns.
func (s *exactSum) value() float64 {
	if s.nonFinite {
		return s.special
	}
	s.carry()
	c := s.chunks // a copy: negating it must not disturb the sum
	neg := c[sumChunks-1] < 0
	if neg {
		for i := range c {
			c[i] = -c[i]
		}
		for i := 0; i < sumChunks-1; i++ {
			hi := c[i] >> 32
			c[i] -= hi << 32
			c[i+1] += hi
		}
	}
	t := sumChunks - 1
	for t >= 0 && c[t] == 0 {
		t--
	}
	if t < 0 {
		return 0
	}
	// The magnitude's top 64 bits: chunk t's L bits, chunk t-1's 32 and the
	// top 32-L of chunk t-2, with any bit below them folded into the lowest
	// as a sticky bit.  Converting that window to float64 rounds once, to
	// nearest even; the sticky bit sits far below the rounding position, so it
	// only breaks ties.  A magnitude under 2^53 units (every subnormal total
	// included) has no bits below the window and converts exactly.
	at := func(i int) uint64 {
		if i < 0 {
			return 0
		}
		return uint64(c[i])
	}
	l := uint(bits.Len64(at(t)))
	if l > 32 {
		// Only the top chunk can hold more than 32 bits, and then the
		// magnitude is at least 2^(32·65+32-1074) = 2^1038.
		if neg {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	w := at(t)<<(64-l) | at(t-1)<<(32-l) | at(t-2)>>l
	sticky := at(t-2)&(1<<l-1) != 0
	for i := t - 3; i >= 0 && !sticky; i-- {
		sticky = c[i] != 0
	}
	if sticky {
		w |= 1
	}
	f := math.Ldexp(float64(w), 32*(t-2)+int(l)-1074)
	if neg {
		f = -f
	}
	return f
}
