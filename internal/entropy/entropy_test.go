package entropy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounterEmpty(t *testing.T) {
	var c Counter
	if c.Shannon() != 0 || c.Normalized() != 0 || c.Total() != 0 || c.Distinct() != 0 {
		t.Error("zero counter should report zeros")
	}
}

func TestCounterConstant(t *testing.T) {
	var c Counter
	for i := 0; i < 100; i++ {
		c.Observe(40) // e.g. constant TCP SYN length
	}
	if got := c.Shannon(); got != 0 {
		t.Errorf("Shannon of constant = %v", got)
	}
	if got := c.Normalized(); got != 0 {
		t.Errorf("Normalized of constant = %v", got)
	}
}

func TestCounterAllDistinct(t *testing.T) {
	var c Counter
	for i := uint64(0); i < 64; i++ {
		c.Observe(i)
	}
	if got := c.Normalized(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Normalized of all-distinct = %v, want 1", got)
	}
	if got := c.Shannon(); math.Abs(got-6) > 1e-9 {
		t.Errorf("Shannon of 64 distinct = %v, want 6", got)
	}
}

func TestCounterUniformTwoValues(t *testing.T) {
	var c Counter
	c.ObserveN(1, 50)
	c.ObserveN(2, 50)
	if got := c.Shannon(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Shannon = %v, want 1 bit", got)
	}
}

func TestScanLikeLengthDistribution(t *testing.T) {
	// A scanner sending 10k packets of one length with a handful of
	// stragglers must stay under the 0.1 MAWI threshold.
	var c Counter
	c.ObserveN(60, 10000)
	c.Observe(72)
	c.Observe(80)
	if got := c.Normalized(); got >= 0.1 {
		t.Errorf("scan-like distribution entropy %v, want < 0.1", got)
	}
	// Regular traffic with diverse lengths must exceed it.
	var reg Counter
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		reg.Observe(uint64(40 + rng.Intn(1400)))
	}
	if got := reg.Normalized(); got <= 0.1 {
		t.Errorf("diverse distribution entropy %v, want > 0.1", got)
	}
}

func TestCounterMergeEquivalence(t *testing.T) {
	f := func(a, b []uint8) bool {
		var c1, c2, m Counter
		for _, v := range a {
			c1.Observe(uint64(v))
			m.Observe(uint64(v))
		}
		for _, v := range b {
			c2.Observe(uint64(v))
			m.Observe(uint64(v))
		}
		var merged Counter
		merged.Merge(&c1)
		merged.Merge(&c2)
		return math.Abs(merged.Shannon()-m.Shannon()) < 1e-12 &&
			merged.Total() == m.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterReset(t *testing.T) {
	var c Counter
	c.ObserveN(5, 10)
	c.Reset()
	if c.Total() != 0 || c.Distinct() != 0 {
		t.Error("reset did not clear")
	}
	c.Observe(1)
	if c.Total() != 1 {
		t.Error("counter unusable after reset")
	}
}

func TestNormalizedBounds(t *testing.T) {
	f := func(vals []uint16) bool {
		var c Counter
		for _, v := range vals {
			c.Observe(uint64(v))
		}
		n := c.Normalized()
		return n >= 0 && n <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitEntropy64(t *testing.T) {
	if got := BitEntropy64(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	// Constant values: zero entropy.
	if got := BitEntropy64([]uint64{7, 7, 7, 7}); got != 0 {
		t.Errorf("constant = %v", got)
	}
	// Random values: near 1.
	rng := rand.New(rand.NewSource(2))
	vals := make([]uint64, 4000)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	if got := BitEntropy64(vals); got < 0.95 {
		t.Errorf("random = %v, want ≈1", got)
	}
	// Structured: only low 4 bits vary.
	for i := range vals {
		vals[i] = uint64(rng.Intn(16))
	}
	if got := BitEntropy64(vals); got > 0.1 {
		t.Errorf("structured = %v, want ≈4/64", got)
	}
}

func TestHammingHistogram64(t *testing.T) {
	h := HammingHistogram64([]uint64{0, 1, 3, ^uint64(0)})
	if h[0] != 1 || h[1] != 1 || h[2] != 1 || h[64] != 1 {
		t.Errorf("histogram wrong: %v", h[:5])
	}
	var total uint64
	for _, c := range h {
		total += c
	}
	if total != 4 {
		t.Errorf("total = %d", total)
	}
}

func TestSummarizeHamming(t *testing.T) {
	var h [65]uint64
	h[10] = 5
	s := SummarizeHamming(h)
	if s.N != 5 || s.Mean != 10 || s.StdDev != 0 || s.Median != 10 {
		t.Errorf("stats: %+v", s)
	}
	if s := SummarizeHamming([65]uint64{}); s.N != 0 {
		t.Error("empty histogram")
	}
}

func TestLooksGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]uint64, 5000)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	if !LooksGaussian(HammingHistogram64(vals)) {
		t.Error("random IIDs should look Gaussian")
	}
	// Low-HW structured addresses should not.
	for i := range vals {
		vals[i] = uint64(i % 8)
	}
	if LooksGaussian(HammingHistogram64(vals)) {
		t.Error("structured IIDs misclassified as Gaussian")
	}
	// Too few samples: never Gaussian.
	if LooksGaussian(HammingHistogram64(vals[:10])) {
		t.Error("tiny sample classified Gaussian")
	}
}

// TestShannonDeterministic: the entropy of one multiset is bit-identical
// however its counter was built — map iteration order must not reach
// the float sum.
func TestShannonDeterministic(t *testing.T) {
	var want uint64
	for rep := 0; rep < 20; rep++ {
		// The same 61 values and counts, inserted from a different start.
		var c Counter
		for i := 0; i < 61; i++ {
			v := uint64((i + rep*7) % 61)
			c.ObserveN(v, v%5+1)
		}
		got := math.Float64bits(c.Shannon())
		if rep == 0 {
			want = got
		} else if got != want {
			t.Fatalf("rep %d: Shannon bits %x, want %x", rep, got, want)
		}
	}
}
