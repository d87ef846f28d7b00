package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestTailPercentileRefusesThinTails(t *testing.T) {
	h := newHistogram()
	for i := 1; i < 1000; i++ {
		h.add(float64(i))
	}
	if _, err := h.tail(0.99); err == nil {
		t.Fatal("p99 of 999 samples (9.99 beyond) was reported; want a refusal")
	}
	h.add(1000)
	if _, err := h.tail(0.99); err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	small := newHistogram()
	for i := 0; i < 20; i++ {
		small.add(1)
	}
	if _, err := small.tail(0.5); err != nil {
		t.Fatalf("p50 of 20 samples refused: %v", err)
	}
}

func TestHistogramPercentilesAreExactToATenthPercent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	h := newHistogram()
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = math.Exp(r.NormFloat64()*2) * 0.5 // ms, spread over decades
		h.add(xs[i])
	}
	sorted := sortedCopy(xs)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := quantile(sorted, q)
		if got := h.quantile(q); math.Abs(got-want) > 0.001*want {
			t.Errorf("p%g = %v, exact %v", 100*q, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which is how spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
