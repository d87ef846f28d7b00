package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a tail percentile before it is
// reported: with fewer, the "p99" is one or two outliers, not a percentile.
const minTail = 10

// quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks (the same rule as Python's statistics.quantiles with
// method="inclusive"). sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Latency histogram geometry: bucket i holds [histMin·histGrowth^i,
// histMin·histGrowth^(i+1)) milliseconds, so 20,000 buckets 0.1% wide span
// 1µs to about 8 minutes.
const (
	histMin     = 1e-3
	histGrowth  = 1.001
	histBuckets = 20000
)

// histogram counts latencies in logarithmic buckets 0.1% wide. A percentile
// read from it is within 0.1% of the exact one, and its size does not grow
// with the number of requests, so the benchmark's own bookkeeping stays
// constant in the heap it measures.
type histogram struct {
	counts []uint64
	n      uint64
}

func newHistogram() *histogram { return &histogram{counts: make([]uint64, histBuckets)} }

func (h *histogram) add(ms float64) {
	i := 0
	if ms > histMin {
		i = min(int(math.Log(ms/histMin)/math.Log(histGrowth)), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// value returns the latency of the sample of 0-based rank r: the midpoint
// of its bucket.
func (h *histogram) value(r uint64) float64 {
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen > r {
			return histMin * math.Pow(histGrowth, float64(i)+0.5)
		}
	}
	return histMin * math.Pow(histGrowth, histBuckets)
}

// quantile is the q-quantile by the rule of quantile on sorted samples.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	pos := q * float64(h.n-1)
	lo := uint64(pos)
	v := h.value(lo)
	if lo+1 >= h.n {
		return v
	}
	return v + (pos-float64(lo))*(h.value(lo+1)-v)
}

// tail is quantile for a tail percentile: it refuses q when fewer than
// minTail samples lie beyond it.
func (h *histogram) tail(q float64) (float64, error) {
	if beyond := float64(h.n) * (1 - q); beyond < minTail {
		return 0, fmt.Errorf("p%g needs ≥%d samples beyond it; %d samples leave %.1f", 100*q, minTail, h.n, beyond)
	}
	return h.quantile(q), nil
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs, or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), 0.5)
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule of Python's statistics.quantiles(xs, n=4) (method "exclusive"),
// which is how the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// CPython's exclusive method, integer for integer.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
