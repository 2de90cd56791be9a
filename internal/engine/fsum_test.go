package engine

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigSum is the oracle: the exact sum of xs in math/big, rounded once to the
// nearest float64 (ties to even), with an exact zero as +0.
func bigSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetPrec(4096).SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f + 0
}

// fsumCases returns random and adversarial inputs: well-conditioned sums,
// terms that cancel to a tiny or zero remainder, terms spread across the whole
// exponent range (subnormals included), exact halfway cases that a sum rounded
// more than once gets wrong, and order-dependent sums of mixed magnitude.
func fsumCases(rng *rand.Rand) [][]float64 {
	cases := [][]float64{
		nil,
		{0},
		{math.Copysign(0, -1)},
		{1, 1e100, 1, -1e100},
		{1e308, 1e308, -1e308, -1e308, 1},
		{0.1, 0.2, 0.3, -0.6},
		{1, 1e-16, 1e-16}, // rounded twice: 1; exactly: 1+2^-52
		{1, math.Ldexp(1, -53), math.Ldexp(1, -106)}, // just above halfway: round up
		{1, math.Ldexp(1, -53)},                      // exactly halfway: stays 1 (even)
		{1 + math.Ldexp(1, -52), math.Ldexp(1, -53)}, // halfway from odd: rounds up
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64},
		{math.MaxFloat64 / 2, math.MaxFloat64 / 4, -math.MaxFloat64 / 2},
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		switch trial % 5 {
		case 0: // well-conditioned prices
			for i := range xs {
				xs[i] = math.Round(rng.Float64()*1e6) / 100
			}
		case 1: // cancelling: pairs ±x with a small perturbation
			for i := 0; i+1 < n; i += 2 {
				x := rng.NormFloat64() * math.Ldexp(1, rng.Intn(200)-100)
				xs[i], xs[i+1] = x, -x
			}
			xs[n-1] += math.Ldexp(rng.Float64(), -rng.Intn(900))
		case 2: // the whole exponent range, subnormals included
			for i := range xs {
				xs[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(2000)-1074)
			}
		case 3: // mixed magnitudes in an order-dependent arrangement
			for i := range xs {
				xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(32)-16))
			}
		case 4: // integers past 2^53, where float64 addition rounds
			for i := range xs {
				xs[i] = float64(rng.Int63n(1<<60) - 1<<59)
			}
		}
		cases = append(cases, xs)
	}
	return cases
}

// TestExactSumMatchesBig checks the accumulator against math/big on every
// case, in the given order and shuffled: the value is the correctly rounded
// exact sum, whatever order the terms arrive in.
func TestExactSumMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i, xs := range fsumCases(rng) {
		want := bigSum(xs)
		for pass := 0; pass < 3; pass++ {
			var s exactSum
			for _, x := range xs {
				s.add(x)
			}
			if got := s.value(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d pass %d (%d terms): sum %v (%x), want %v (%x)", i, pass, len(xs), got, math.Float64bits(got), want, math.Float64bits(want))
			}
			rng.Shuffle(len(xs), func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
		}
	}
}

// TestExactSumNonFinite: infinities and NaNs behave as in plain summation,
// and a partial that overflows makes the sum infinite.
func TestExactSumNonFinite(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, inf, 2}, inf},
		{[]float64{1, math.Inf(-1)}, math.Inf(-1)},
		{[]float64{inf, 1, math.Inf(-1)}, math.NaN()},
		{[]float64{1, math.NaN(), 2}, math.NaN()},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, inf},
		{[]float64{-math.MaxFloat64, -math.MaxFloat64, 5}, math.Inf(-1)},
	} {
		var s exactSum
		for _, x := range c.xs {
			s.add(x)
		}
		got := s.value()
		if math.IsNaN(c.want) != math.IsNaN(got) || !math.IsNaN(got) && got != c.want {
			t.Errorf("sum of %v = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestAggregateSumOrderFree runs SUM and AVG through the materialized
// Aggregate, the batch pipeline and NaiveAggregate over the same rows in two
// orders: all six agree bit for bit with the math/big oracle.
func TestAggregateSumOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i, xs := range fsumCases(rng)[:60] {
		rel := NewRelation("T", []string{"T.v"})
		for k, x := range xs {
			if k%3 == 0 && x == math.Trunc(x) && math.Abs(x) < 1<<62 {
				rel.MustAppend(Tuple{I(int64(x))})
			} else {
				rel.MustAppend(Tuple{F(x)})
			}
		}
		want := bigSum(xs)
		for pass := 0; pass < 2; pass++ {
			for _, fn := range []AggFunc{AggSum, AggAvg} {
				label := fmt.Sprintf("case %d pass %d %s", i, pass, fn)
				db := NewInstance("D")
				db.AddRelation(rel)
				ex := &Executor{DB: db, Stats: NewStats()}
				batch, err := ex.ExecuteContext(bgCtx, &AggregatePlan{Func: fn, Column: "T.v", Child: &ScanPlan{Relation: "T"}})
				if err != nil {
					t.Fatalf("%s: batch: %v", label, err)
				}
				mat, err := Aggregate(bgCtx, rel, fn, "T.v", nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				naive, err := NaiveAggregate(bgCtx, rel, fn, "T.v", nil)
				if err != nil {
					t.Fatalf("%s: naive: %v", label, err)
				}
				w := F(want)
				if fn == AggAvg {
					w = F(want / float64(len(xs)))
					if len(xs) == 0 {
						w = Null()
					}
				}
				for name, got := range map[string]*Relation{"batch": batch, "materialized": mat, "naive": naive} {
					if g := got.Rows[0][0]; !g.EqualKey(w) || g.Kind == KindFloat && math.Float64bits(g.Float) != math.Float64bits(w.Float) {
						t.Fatalf("%s %s: %v, want %v", label, name, g, w)
					}
				}
			}
			rng.Shuffle(len(rel.Rows), func(a, b int) { rel.Rows[a], rel.Rows[b] = rel.Rows[b], rel.Rows[a] })
		}
	}
}

// TestExactSumCarries moves the carries after every few terms, as 2^30 terms
// would: the sum is unchanged.
func TestExactSumCarries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i, xs := range fsumCases(rng) {
		var s exactSum
		for k, x := range xs {
			s.add(x)
			if k%7 == 6 {
				s.carry()
			}
		}
		if got, want := s.value(), bigSum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: sum %v, want %v", i, got, want)
		}
	}
}
