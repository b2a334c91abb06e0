package core

import (
	"math"
	"math/rand"
	"testing"

	"v6scan/internal/netaddr6"
)

func TestDstSketchAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{50, 100, 1000, 20000} {
		s := NewDstSketch(12)
		for i := 0; i < n; i++ {
			s.Add(netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()}.ToAddr())
		}
		got := float64(s.Estimate())
		relErr := math.Abs(got-float64(n)) / float64(n)
		if relErr > 0.08 {
			t.Errorf("n=%d: estimate %v, rel err %.3f", n, got, relErr)
		}
	}
}

func TestDstSketchDuplicatesIdempotent(t *testing.T) {
	s := NewDstSketch(12)
	a := netaddr6.MustAddr("2001:db8::1")
	for i := 0; i < 10000; i++ {
		s.Add(a)
	}
	if e := s.Estimate(); e > 3 {
		t.Errorf("single address estimated as %d", e)
	}
}

func TestDstSketchThresholdDecision(t *testing.T) {
	// The only decision the detector needs: is the cardinality ≥100?
	// With 3% error the sketch must never be wrong by 2x.
	rng := rand.New(rand.NewSource(2))
	below := NewDstSketch(12)
	for i := 0; i < 50; i++ {
		below.Add(netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()}.ToAddr())
	}
	if below.Estimate() >= 100 {
		t.Errorf("50 dsts estimated as %d (false positive)", below.Estimate())
	}
	above := NewDstSketch(12)
	for i := 0; i < 200; i++ {
		above.Add(netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()}.ToAddr())
	}
	if above.Estimate() < 100 {
		t.Errorf("200 dsts estimated as %d (false negative)", above.Estimate())
	}
}

func TestDstSketchResetAndMemory(t *testing.T) {
	s := NewDstSketch(10)
	if s.MemoryBytes() != 1024 {
		t.Errorf("memory = %d", s.MemoryBytes())
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		s.Add(netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()}.ToAddr())
	}
	s.Reset()
	if e := s.Estimate(); e != 0 {
		t.Errorf("after reset: %d", e)
	}
}

func TestDstSketchPrecisionClamp(t *testing.T) {
	if NewDstSketch(1).MemoryBytes() != 16 {
		t.Error("low clamp failed")
	}
	if NewDstSketch(20).MemoryBytes() != 1<<16 {
		t.Error("high clamp failed")
	}
}

func TestHashAddrSpreads(t *testing.T) {
	// Sequential addresses must not collide in the high bits used for
	// register selection.
	seen := map[uint64]bool{}
	base := netaddr6.MustAddr("2001:db8::")
	for i := 0; i < 4096; i++ {
		h := hashAddr(netaddr6.WithIID(base, uint64(i))) >> 52
		seen[h] = true
	}
	if len(seen) < 2500 {
		t.Errorf("high-bit spread: %d distinct of 4096", len(seen))
	}
}

// fullLoopEstimate is the estimator without the zero-count shortcut:
// the harmonic sum and zero count over every register, every call.
func fullLoopEstimate(regs []uint8) uint64 {
	m := float64(len(regs))
	var sum float64
	zeros := 0
	for _, r := range regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return uint64(e + 0.5)
}

// TestDstSketchEstimateMatchesFullLoop feeds sketches at every
// precision through the shortcut regime, across the 3·zeros = m
// boundary and beyond, and checks Estimate against the full loop — on
// the live sketch, on one restored from its registers a quarter of the
// way in (zero count unknown until its first full-loop Estimate), and
// on the live sketch again after a Reset three quarters of the way in.
// Precisions up to 10 compare at every step; above that every
// 4^(p−10)th step plus every step while the zero count is within 16 of
// m/3, which keeps the O(m) reference affordable under -race while
// still checking each step around the boundary.
func TestDstSketchEstimateMatchesFullLoop(t *testing.T) {
	for p := uint8(4); p <= 16; p++ {
		m := 1 << p
		stride := 1
		if p > 10 {
			stride = 1 << (2 * (p - 10))
		}
		rng := rand.New(rand.NewSource(int64(p)))
		live := NewDstSketch(p)
		var restored *DstSketch
		n := 2 * m
		for i := 0; i < n; i++ {
			u := netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()}
			live.AddU128(u)
			if restored != nil {
				restored.AddU128(u)
			}
			switch i {
			case n / 4:
				var err error
				if restored, err = RestoreDstSketch(p, live.Registers()); err != nil {
					t.Fatal(err)
				}
			case 3 * n / 4:
				live.Reset()
			}
			nearBoundary := live.zeros >= 0 && abs(3*int(live.zeros)-m) <= 48
			if i%stride != 0 && i != n/4 && !nearBoundary {
				continue
			}
			if got, want := live.Estimate(), fullLoopEstimate(live.Registers()); got != want {
				t.Fatalf("p=%d step %d: Estimate %d, full loop %d", p, i, got, want)
			}
			if restored != nil {
				if got, want := restored.Estimate(), fullLoopEstimate(restored.Registers()); got != want {
					t.Fatalf("p=%d step %d (restored): Estimate %d, full loop %d", p, i, got, want)
				}
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
