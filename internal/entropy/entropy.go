// Package entropy provides the entropy measures used by the scan
// detectors: normalized Shannon entropy of discrete observations
// (the MAWI detector requires packet-length entropy < 0.1 for a flow to
// qualify as a scan, following Fukuda & Heidemann's definition), and
// Hamming-weight histograms of interface identifiers used in
// target-randomness analysis.
package entropy

import (
	"math"
	"math/bits"
	"slices"
)

// Counter accumulates observations of discrete values (e.g. packet
// lengths) and computes normalized Shannon entropy over them. The zero
// value is ready to use. A single distinct value — the common case for
// scan flows, whose probes are near-identical — is held inline; the
// map materializes on the second distinct value, keeping single-valued
// counters allocation-free.
type Counter struct {
	counts map[uint64]uint64
	first  uint64
	firstN uint64
	total  uint64
}

// Observe records one occurrence of value v.
func (c *Counter) Observe(v uint64) { c.ObserveN(v, 1) }

// ObserveN records n occurrences of value v.
func (c *Counter) ObserveN(v uint64, n uint64) {
	if n == 0 {
		return
	}
	c.total += n
	if c.counts == nil {
		if c.firstN == 0 || c.first == v {
			c.first = v
			c.firstN += n
			return
		}
		c.counts = make(map[uint64]uint64, 4)
		c.counts[c.first] = c.firstN
		c.firstN = 0
	}
	c.counts[v] += n
}

// Shannon returns the Shannon entropy H = -Σ p·log2(p) in bits.
// Zero observations yield 0.
func (c *Counter) Shannon() float64 {
	if c.total == 0 || c.counts == nil {
		// Zero or one distinct value: entropy 0.
		return 0
	}
	// Sum in value order, not map order: a float sum's rounding depends
	// on its order, and map order changes from run to run, so the low
	// bits — which checkpoints store — would too.
	vals := make([]uint64, 0, len(c.counts))
	for v := range c.counts {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	var h float64
	n := float64(c.total)
	for _, v := range vals {
		p := float64(c.counts[v]) / n
		h -= p * math.Log2(p)
	}
	return h
}

// Normalized returns the Shannon entropy divided by log2(total
// observations), mapping to [0,1]: 0 when every observation has the
// same value, 1 when every observation is distinct. This matches the
// packet-length entropy criterion of the MAWI scan definition, where a
// scanner emitting near-identical probe packets scores close to 0.
// Fewer than two observations yield 0.
func (c *Counter) Normalized() float64 {
	if c.total < 2 {
		return 0
	}
	return c.Shannon() / math.Log2(float64(c.total))
}

// Each calls f once per distinct observed value with its count, in
// unspecified order. Snapshot code serializes counters through it (and
// rebuilds them with ObserveN), so the counter's inline/materialized
// representation never leaks into the encoding.
func (c *Counter) Each(f func(v, n uint64)) {
	if c.counts == nil {
		if c.firstN > 0 {
			f(c.first, c.firstN)
		}
		return
	}
	for v, n := range c.counts {
		f(v, n)
	}
}

// Reset discards all observations, retaining allocated capacity.
func (c *Counter) Reset() {
	clear(c.counts)
	c.firstN = 0
	c.total = 0
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
