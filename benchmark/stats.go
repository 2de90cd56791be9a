package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before a
// measuring run reports it: with fewer, the figure is one or two outliers, not
// a percentile.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100):
// the value at rank ceil(p/100·n) of a sorted copy.  It refuses when xs is
// empty or fewer than beyond samples lie above that rank.
func percentile(xs []float64, p float64, beyond int) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range (0,100)", p)
	}
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%v of no samples: workload undersized", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < beyond {
		return 0, fmt.Errorf("p%v of %d samples leaves %d beyond it, need %d: workload undersized", p, n, n-rank, beyond)
	}
	return sortedCopy(xs)[rank-1], nil
}

// gatedPercentile is the percentile classLatency takes of every class: the
// lower decile.  What this sandbox adds to a request — a neighbour's burst on
// the shared cache, a stolen processor, the other client's Q4 — only ever
// makes it slower, so the fast end of a class is what the code costs and the
// middle is what the code costs plus the box's mood.  Over 40 runs each of
// cold_osharing and cold_shared with the raw latencies kept, every cut from
// the 50th percentile down to the 5th was steadier from run to run than the
// one above it (cold_shared, ten-run spread of the class medians against the
// class deciles: 14% and 3% on a quiet stretch, 52% and 22% with two of the
// ten runs inside a neighbour's burst); below the 5th nothing more was gained.
// The 10th keeps about ten samples below it in the smallest classes (Q1 and
// Q5 of cold_osharing, a hundred requests a run each) and hundreds elsewhere.
const gatedPercentile = 10

// classLatency condenses the latencies of a workload's gated operation, kept
// by request class, into one figure: the geometric mean of the classes'
// gatedPercentile-th percentiles, each class weighted by its share of the
// samples.  By class, because a percentile of the mixture sits wherever the
// mix puts it — between two modes it jumps with the luck of the draw, inside
// one it ignores the others.  Geometric and weighted by share, so that a
// class moves the figure by how many requests it is, not by how slow they
// are: a tenth more latency in every class is a tenth more here.  beyond
// counts, as everywhere, the samples above the percentile: the rule keeps a
// tail from being one or two outliers, and the fast end of a latency
// distribution is a floor, not a tail.
func classLatency(classes map[cell][]float64, beyond int) (float64, error) {
	n := 0
	for _, xs := range classes {
		n += len(xs)
	}
	if n == 0 {
		return 0, fmt.Errorf("no gated samples: workload undersized")
	}
	logSum := 0.0
	for c, xs := range classes {
		p, err := percentile(xs, gatedPercentile, beyond)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c, err)
		}
		logSum += float64(len(xs)) / float64(n) * math.Log(p)
	}
	return math.Exp(logSum), nil
}

// median is the middle value of xs, the mean of the middle two when the
// count is even (as Python's statistics.median).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so the
// spreads -compare prints are the ones the acceptance rule is written in.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", n)
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), nil
}

// relSpread is the interquartile distance of xs as a share of its median.
func relSpread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	m := median(xs)
	if m == 0 {
		return 0, fmt.Errorf("relative spread undefined: median is 0")
	}
	return (q3 - q1) / math.Abs(m), nil
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
