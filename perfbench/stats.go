package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// that percentile to be trusted: the p99 of 500 samples rests on five
// values and moves with every outlier.
const minBeyond = 10

// quantile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least q of all samples at or below
// it. xs is sorted in place. An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankOf(len(xs), q)]
}

// rankOf is the zero-based index of the q-quantile among n sorted samples.
func rankOf(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples ranked after the q-quantile of n samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankOf(n, q)
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// summary is a timing distribution reduced to what the benchmark reports:
// its median and p99 with the sample count behind them.
type summary struct {
	N        int
	P50, P99 float64
	Beyond99 int // samples ranked after the p99
}

// summarize sorts xs in place and reduces it.
func summarize(xs []float64) summary {
	return summary{
		N:        len(xs),
		P50:      quantile(xs, 0.5),
		P99:      quantile(xs, 0.99),
		Beyond99: beyond(len(xs), 0.99),
	}
}

// tailTrusted reports whether the p99 rests on at least minBeyond samples.
func (s summary) tailTrusted() bool { return s.Beyond99 >= minBeyond }
