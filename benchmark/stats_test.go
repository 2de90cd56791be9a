package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteRank is the reference: sort, then walk up until at least p percent of
// the samples are at or below the value.
func bruteRank(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, v := range s {
		if float64(i+1)*100 >= p*float64(len(s)) {
			return v
		}
	}
	return s[len(s)-1]
}

func TestPercentileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 250 + rng.Intn(2000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() // unsorted, heavy right tail, like latencies
		}
		before := append([]float64(nil), xs...)
		for _, p := range []float64{50, 90, 95} {
			got, err := percentile(xs, p, minBeyond)
			if err != nil {
				t.Fatalf("n=%d p%v: %v", n, p, err)
			}
			if want := bruteRank(xs, p); got != want {
				t.Fatalf("n=%d p%v: got %v, sorted reference %v", n, p, got, want)
			}
		}
		for i := range xs {
			if xs[i] != before[i] {
				t.Fatalf("percentile reordered its input at %d", i)
			}
		}
	}
}

// A percentile taken over the unsorted slice — the bug this file exists to
// keep out — would return the element at the rank position, not the value.
func TestPercentileOfDescendingInput(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got, err := percentile(xs, 50, minBeyond); err != nil || got != 50 {
		t.Fatalf("p50 of 100..1 = %v, %v; want 50", got, err)
	}
	if got, err := percentile(xs, 90, minBeyond); err != nil || got != 90 {
		t.Fatalf("p90 of 100..1 = %v, %v; want 90", got, err)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	// p99 of 1000 samples sits at rank 990: exactly 10 beyond.
	if _, err := percentile(xs, 99, minBeyond); err != nil {
		t.Fatalf("10 samples beyond must be accepted: %v", err)
	}
	// One sample fewer still has rank 990, with 9 beyond.
	if _, err := percentile(xs[:999], 99, minBeyond); err == nil {
		t.Fatalf("9 samples beyond must be refused")
	}
	if _, err := percentile(xs[:19], 50, minBeyond); err == nil {
		t.Fatalf("p50 of 19 samples leaves 9 beyond and must be refused")
	}
	if _, err := percentile(nil, 50, minBeyond); err == nil {
		t.Fatalf("no samples must be refused")
	}
	// The smoke run asks for nothing beyond: any sample will do, none will not.
	if got, err := percentile(xs[:3], 95, 0); err != nil || got != 2 {
		t.Fatalf("p95 of 0,1,2 with nothing required beyond = %v, %v; want 2", got, err)
	}
	if _, err := percentile(nil, 50, 0); err == nil {
		t.Fatalf("no samples must be refused even with nothing required beyond")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(xs, p, minBeyond); err == nil {
			t.Fatalf("p%v must be refused", p)
		}
	}
}

// classLatency is the share-weighted geometric mean of the classes' lower
// deciles: a class moves it by how many requests it is, and a slow tail or a
// second mode above the decile does not move it at all.
func TestClassLatency(t *testing.T) {
	fast := make([]float64, 300) // lower decile 1: ranks 1..30 are 1, the rest a slow mode
	for i := range fast {
		fast[i] = 40
		if i%10 == 3 {
			fast[i] = 1
		}
	}
	slow := make([]float64, 100) // lower decile 16: the tenth of 7..106, descending
	for i := range slow {
		slow[i] = 7 + float64(99-i)
	}
	got, err := classLatency(map[cell][]float64{{query: 1}: fast, {query: 2}: slow}, minBeyond)
	if want := 2.0; err != nil || math.Abs(got-want) > 1e-12 { // 1^(3/4) * 16^(1/4)
		t.Fatalf("classLatency = %v, %v; want %v", got, err, want)
	}
	one, err := classLatency(map[cell][]float64{{query: 2}: slow}, minBeyond)
	if want := bruteRank(slow, gatedPercentile); err != nil || math.Abs(one-want) > 1e-12 {
		t.Fatalf("classLatency of one class = %v, %v; want its lower decile %v", one, err, want)
	}
	if _, err := classLatency(nil, 0); err == nil {
		t.Fatalf("no samples must be refused")
	}
	if _, err := classLatency(map[cell][]float64{{query: 1}: fast, {query: 2}: slow[:5]}, minBeyond); err == nil {
		t.Fatalf("a class too small for its percentile must be refused")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("median of nothing = %v", got)
	}
}

// Values from Python: statistics.quantiles(xs, n=4), the exclusive method the
// acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 9},
		{[]float64{3.5, 1.25, 9, 4, 4, 7.5, 2}, 2, 7.5},
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Fatalf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Fatalf("one sample has no quartiles")
	}
}

func TestRelSpread(t *testing.T) {
	got, err := relSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil || math.Abs(got-1) > 1e-12 { // (8.25 - 2.75) / 5.5
		t.Fatalf("relSpread = %v, %v; want 1", got, err)
	}
	if _, err := relSpread([]float64{-1, 0, 1}); err == nil {
		t.Fatalf("a zero median has no relative spread")
	}
}
