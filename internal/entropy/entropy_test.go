package entropy

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// tally returns the total of the observation counts in obs and an each
// that reports them in ascending value order, the way core's counters
// report their keys.
func tally(obs map[uint64]uint64) (uint64, func(func(uint64))) {
	vals := make([]uint64, 0, len(obs))
	var total uint64
	for v, n := range obs {
		vals = append(vals, v)
		total += n
	}
	slices.Sort(vals)
	return total, func(count func(uint64)) {
		for _, v := range vals {
			count(obs[v])
		}
	}
}

func TestCounterEmpty(t *testing.T) {
	total, each := tally(nil)
	if total != 0 || Shannon(total, each) != 0 || Normalized(total, each) != 0 {
		t.Error("no observations should report zeros")
	}
	if got := Normalized(tally(map[uint64]uint64{60: 1})); got != 0 {
		t.Errorf("Normalized of one observation = %v", got)
	}
}

func TestCounterConstant(t *testing.T) {
	total, each := tally(map[uint64]uint64{40: 100}) // e.g. constant TCP SYN length
	if got := Shannon(total, each); got != 0 {
		t.Errorf("Shannon of constant = %v", got)
	}
	if got := Normalized(total, each); got != 0 {
		t.Errorf("Normalized of constant = %v", got)
	}
}

func TestCounterAllDistinct(t *testing.T) {
	obs := map[uint64]uint64{}
	for i := uint64(0); i < 64; i++ {
		obs[i] = 1
	}
	total, each := tally(obs)
	if got := Normalized(total, each); math.Abs(got-1) > 1e-9 {
		t.Errorf("Normalized of all-distinct = %v, want 1", got)
	}
	if got := Shannon(total, each); math.Abs(got-6) > 1e-9 {
		t.Errorf("Shannon of 64 distinct = %v, want 6", got)
	}
}

func TestCounterUniformTwoValues(t *testing.T) {
	if got := Shannon(tally(map[uint64]uint64{1: 50, 2: 50})); math.Abs(got-1) > 1e-9 {
		t.Errorf("Shannon = %v, want 1 bit", got)
	}
}

func TestScanLikeLengthDistribution(t *testing.T) {
	// A scanner sending 10k packets of one length with a handful of
	// stragglers must stay under the 0.1 MAWI threshold.
	if got := Normalized(tally(map[uint64]uint64{60: 10000, 72: 1, 80: 1})); got >= 0.1 {
		t.Errorf("scan-like distribution entropy %v, want < 0.1", got)
	}
	// Regular traffic with diverse lengths must exceed it.
	reg := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		reg[uint64(40+rng.Intn(1400))]++
	}
	if got := Normalized(tally(reg)); got <= 0.1 {
		t.Errorf("diverse distribution entropy %v, want > 0.1", got)
	}
}

func TestNormalizedBounds(t *testing.T) {
	f := func(vals []uint16) bool {
		obs := map[uint64]uint64{}
		for _, v := range vals {
			obs[uint64(v)]++
		}
		n := Normalized(tally(obs))
		return n >= 0 && n <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestShannonDeterministic: the entropy of one sequence of counts is
// bit-identical on every call and equals -Σ p·log2(p) summed in the
// order each reports, over log2(total) when normalized — the float
// expression behind the packet-length entropy that checkpoints store,
// so a restored scan compares equal to a live one.
func TestShannonDeterministic(t *testing.T) {
	obs := map[uint64]uint64{}
	for v := uint64(0); v < 61; v++ {
		obs[v] = v%5 + 1
	}
	total, each := tally(obs)
	var h float64
	n := float64(total)
	each(func(c uint64) {
		p := float64(c) / n
		h -= p * math.Log2(p)
	})
	wantH, wantN := math.Float64bits(h), math.Float64bits(h/math.Log2(n))
	for rep := 0; rep < 20; rep++ {
		if got := math.Float64bits(Shannon(total, each)); got != wantH {
			t.Fatalf("rep %d: Shannon bits %x, want %x", rep, got, wantH)
		}
		if got := math.Float64bits(Normalized(total, each)); got != wantN {
			t.Fatalf("rep %d: Normalized bits %x, want %x", rep, got, wantN)
		}
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
