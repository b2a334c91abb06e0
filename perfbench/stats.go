package main

import (
	"fmt"
	"math"
	"slices"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule by which run-to-run spread is judged. It needs two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), nil
}

// minBeyond is the fewest samples that must lie beyond a percentile
// for it to be reported: with fewer, the tail is one or two samples and
// moves from run to run.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs.
// It refuses when fewer than minBeyond samples lie beyond it, so an
// undersampled tail fails the run instead of being reported.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", q*100, minBeyond, n, max(n-rank, 0))
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// spread is the distance between the quartiles of xs as a share of its
// median: the run-to-run spread a bound is judged against, here over
// the samples of one run. It is 0 for fewer than two samples.
func spread(xs []float64) float64 {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0
	}
	return (q3 - q1) / median(xs)
}
