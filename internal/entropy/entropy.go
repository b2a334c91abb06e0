// Package entropy provides the entropy measures of the scan analysis:
// the normalized Shannon entropy of a distribution of discrete
// observations (the MAWI scan criterion requires packet-length entropy
// < 0.1, following Fukuda & Heidemann's definition), and the
// Hamming-weight measures of the target-randomness analysis:
// histograms of interface-identifier Hamming weights (Figure 7 of the
// paper), their summary statistics, and the test for the Gaussian
// signature of uniformly random IIDs. The observations themselves are
// counted by the detectors' own counters in package core.
package entropy

import (
	"math"
	"math/bits"
)

// Shannon returns the Shannon entropy H = -Σ p·log2(p) in bits of a
// distribution of total observations, with p = count/total. each calls
// count once per distinct observed value with its positive count;
// total is the sum of those counts. The float sum runs in each's
// order, so a caller whose result must not depend on how its counts
// were gathered reports them in a fixed order (core's counters report
// ascending keys). Zero observations yield 0.
func Shannon(total uint64, each func(count func(uint64))) float64 {
	if total == 0 {
		return 0
	}
	var h float64
	n := float64(total)
	each(func(c uint64) {
		p := float64(c) / n
		h -= p * math.Log2(p)
	})
	return h
}

// Normalized returns the Shannon entropy divided by log2(total),
// mapping to [0,1]: 0 when every observation has the same value, 1
// when every observation is distinct. This is the packet-length
// entropy criterion of the MAWI scan definition, where a scanner
// emitting near-identical probe packets scores close to 0. Fewer than
// two observations yield 0.
func Normalized(total uint64, each func(count func(uint64))) float64 {
	if total < 2 {
		return 0
	}
	return Shannon(total, each) / math.Log2(float64(total))
}

// HammingHistogram64 returns a 65-bucket histogram of Hamming weights
// (popcounts) of the given 64-bit values, as used for Figure 7 of the
// paper (Hamming weight of destination IIDs).
func HammingHistogram64(values []uint64) [65]uint64 {
	var h [65]uint64
	for _, v := range values {
		h[bits.OnesCount64(v)]++
	}
	return h
}

// HammingStats summarizes a Hamming-weight histogram.
type HammingStats struct {
	N      uint64  // number of values
	Mean   float64 // mean Hamming weight
	StdDev float64 // standard deviation
	Median int     // median bucket
}

// SummarizeHamming computes summary statistics over a Hamming-weight
// histogram as returned by HammingHistogram64.
func SummarizeHamming(h [65]uint64) HammingStats {
	var s HammingStats
	for w, c := range h {
		s.N += c
		s.Mean += float64(w) * float64(c)
	}
	if s.N == 0 {
		return s
	}
	s.Mean /= float64(s.N)
	var varSum float64
	for w, c := range h {
		d := float64(w) - s.Mean
		varSum += d * d * float64(c)
	}
	s.StdDev = math.Sqrt(varSum / float64(s.N))
	var cum, half uint64
	half = (s.N + 1) / 2
	for w, c := range h {
		cum += c
		if cum >= half {
			s.Median = w
			break
		}
	}
	return s
}

// LooksGaussian reports whether a Hamming-weight histogram is
// consistent with uniformly random 64-bit values: mean near 32 and
// standard deviation near 4 (binomial n=64, p=1/2 has σ=4). The paper
// uses this signature to conclude the Dec 24, 2021 scanner generated
// fully random IIDs.
func LooksGaussian(h [65]uint64) bool {
	s := SummarizeHamming(h)
	if s.N < 30 {
		return false
	}
	return math.Abs(s.Mean-32) < 2 && math.Abs(s.StdDev-4) < 1.5
}
