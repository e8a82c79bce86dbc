package main

import (
	"math"
	"sort"
)

// Summary is what a metric reports about its samples: the median that
// is its value, the quartiles that bound its spread, and how many
// samples there were.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Spread is the distance between the quartiles as a share of the
// median — the number the driver holds against a metric's bound.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles computes Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so a
// spread printed here matches the one the driver computes. Fewer than
// two samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func summarize(xs []float64) Summary {
	q1, q3 := quartiles(xs)
	return Summary{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
}

// tailPercentiles are the tail percentiles a latency may be reported
// at, lowest first.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// topPercentile returns the highest tail percentile that still has at
// least ten of the n samples beyond it; ok is false when even the
// lowest has fewer, and the metric then reports a median alone.
func topPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(100-c) >= 1000-1e-6 { // 1e-6: 100-99.9 is not exactly 0.1
			p, ok = c, true
		}
	}
	return p, ok
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(1, min(rank, len(s)))-1]
}
