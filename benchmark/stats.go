package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (p in (0, 100]) of an
// ascending sample: the value at 1-based rank ceil(p*n/100). It is the rule
// of internal/obs.Quantile, kept as the harness's own so that a change to the
// code under test cannot move the benchmark's figures.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func samplesBeyond(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank > n {
		rank = n
	}
	return n - rank
}

// tailPercentile returns the highest of the reporting percentiles (50, 90,
// 99, 99.9) that still has at least ten samples beyond it; a sample too small
// for even the p90 gets the median.
func tailPercentile(n int) float64 {
	tail := 50.0
	for _, p := range []float64{90, 99, 99.9} {
		if samplesBeyond(n, p) >= 10 {
			tail = p
		}
	}
	return tail
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an even
// count), as Python's statistics.median does.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so that spreads
// computed here agree with the driver's.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of the 3 cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}
