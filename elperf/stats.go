package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a timing may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p among n
// samples: the smallest rank whose share of the samples is at least p%.
func rank(p float64, n int) int {
	// The epsilon keeps float error in p*n/100 (99.9 is not exact) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// supports reports whether n samples leave at least minBeyond samples
// beyond the p-th percentile.
func supports(p float64, n int) bool { return n > 0 && n-rank(p, n) >= minBeyond }

// tail returns the highest candidate percentile with at least minBeyond
// samples beyond it, its value, and the sample count. ok is false when no
// candidate qualifies.
func tail(sorted []float64) (p, v float64, n int, ok bool) {
	n = len(sorted)
	for _, c := range tailCandidates {
		if supports(c, n) {
			return c, percentile(sorted, c), n, true
		}
	}
	return 0, math.NaN(), n, false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an even
// count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
