package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"v6scan/internal/checkpoint"
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

// sketchBase is a sketch's struct, which MemoryBytes always counts.
var sketchBase = int(unsafe.Sizeof(DstSketch{}))

// TestDstSketchResetAndMemory pins MemoryBytes as the bytes a sketch
// holds: its struct while the sparse list fits inline, plus the list's
// capacity beyond that (at most m/2 bytes), plus the m dense register
// bytes once dense — and a Reset that returns it to its struct alone.
func TestDstSketchResetAndMemory(t *testing.T) {
	s := NewDstSketch(10)
	if got := s.MemoryBytes(); got != sketchBase {
		t.Errorf("new sketch: memory = %d, want its struct (%d)", got, sketchBase)
	}
	rng := rand.New(rand.NewSource(3))
	add := func(n int) {
		for i := 0; i < n; i++ {
			s.Add(netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()}.ToAddr())
		}
	}
	add(3)
	if got := s.MemoryBytes(); got != sketchBase {
		t.Errorf("3 destinations: memory = %d, want the struct alone (%d)", got, sketchBase)
	}
	add(20)
	if got, want := s.MemoryBytes(), sketchBase+4*cap(s.sparse); s.registers != nil || got != want || got > sketchBase+1024/2 {
		t.Errorf("23 destinations: memory = %d, want struct + list capacity %d (≤ struct + m/2), sparse", got, want)
	}
	add(500)
	if got := s.MemoryBytes(); s.registers == nil || got != sketchBase+1024 {
		t.Errorf("523 destinations: memory = %d, want struct + 1024 dense registers", got)
	}
	s.Reset()
	if got := s.MemoryBytes(); got != sketchBase {
		t.Errorf("after reset: memory = %d, want %d", got, sketchBase)
	}
	if e := s.Estimate(); e != 0 {
		t.Errorf("after reset: %d", e)
	}
}

// TestDstSketchAddReportsGrowth: every insert returns exactly the
// change in MemoryBytes it caused — on a new sketch, a reset one that
// kept its sparse list, and a restored one whose list was cut from the
// decoder's backing array — through sparse growth and densifying.
func TestDstSketchAddReportsGrowth(t *testing.T) {
	for _, p := range []uint8{4, 6, 10, 14} {
		m := 1 << p
		rng := rand.New(rand.NewSource(int64(p)))
		add := func(s *DstSketch, n int, what string) {
			t.Helper()
			for i := 0; i < n; i++ {
				before := s.MemoryBytes()
				grown := s.AddU128(netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()})
				if got := s.MemoryBytes() - before; grown != got {
					t.Fatalf("p=%d %s insert %d: reported growth %d, MemoryBytes moved %d", p, what, i, grown, got)
				}
			}
		}
		s := NewDstSketch(p)
		add(s, m/16+1, "new")
		restored := roundtripSketch(t, s, false)
		add(restored, 2*m, "restored")
		s.Reset()
		add(s, 2*m, "reset")
		if s.registers == nil || restored.registers == nil {
			t.Fatalf("p=%d: sketches did not densify", p)
		}
	}
}

// TestDstSketchPrecisionClamp: out-of-range precisions clamp to 4 and
// 16, which hold 2^4 and 2^16 register bytes once dense.
func TestDstSketchPrecisionClamp(t *testing.T) {
	for _, tc := range []struct{ in, want uint8 }{{1, 4}, {20, 16}} {
		s := NewDstSketch(tc.in)
		rng := rand.New(rand.NewSource(4))
		for s.registers == nil {
			s.AddU128(netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()})
		}
		if got := s.MemoryBytes(); s.precision != tc.want || got != sketchBase+1<<tc.want {
			t.Errorf("precision %d: clamped to %d holding %d bytes dense, want %d holding struct + %d",
				tc.in, s.precision, got, tc.want, 1<<tc.want)
		}
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
// the live sketch, on one restored from its encoding a quarter of the
// way in (dense by then, so its zero count is unknown until its first
// full-loop Estimate), and on the live sketch again after a Reset three quarters of the way in.
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
				restored = roundtripSketch(t, live, false)
			case 3 * n / 4:
				live.Reset()
			}
			nearBoundary := live.zeros >= 0 && abs(3*int(live.zeros)-m) <= 48
			if i%stride != 0 && i != n/4 && !nearBoundary {
				continue
			}
			if got, want := live.Estimate(), fullLoopEstimate(denseRegisters(live)); got != want {
				t.Fatalf("p=%d step %d: Estimate %d, full loop %d", p, i, got, want)
			}
			if restored != nil {
				if got, want := restored.Estimate(), fullLoopEstimate(denseRegisters(restored)); got != want {
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

// denseRegisters returns s's registers as one dense array, whatever its
// form.
func denseRegisters(s *DstSketch) []uint8 {
	if s.registers != nil {
		return s.registers
	}
	regs := make([]uint8, 1<<s.precision)
	for _, v := range s.sparse {
		regs[v>>8] = uint8(v)
	}
	return regs
}

// encodeSketch returns s's Encode bytes, the form byte first.
func encodeSketch(s *DstSketch) []byte {
	var e checkpoint.Enc
	s.Encode(&e)
	return e.B
}

// decodeSketch decodes one Encode form, requiring it to use every byte.
func decodeSketch(b []byte, v1 bool) (*DstSketch, error) {
	d := checkpoint.NewDec(b)
	form := d.U8()
	sd := SketchDecoder{V1: v1}
	s, err := sd.Decode(d, form)
	if err == nil && d.Len() != 0 {
		return nil, errors.New("trailing bytes")
	}
	return s, err
}

// roundtripSketch decodes s's encoding and checks that the restored
// sketch re-encodes to the same bytes and holds the same registers.
func roundtripSketch(t *testing.T, s *DstSketch, v1 bool) *DstSketch {
	t.Helper()
	b := encodeSketch(s)
	r, err := decodeSketch(b, v1)
	if err != nil {
		t.Fatalf("p=%d: decode: %v", s.precision, err)
	}
	if again := encodeSketch(r); !slices.Equal(again, b) {
		t.Fatalf("p=%d: re-encoding differs", s.precision)
	}
	if !slices.Equal(denseRegisters(r), denseRegisters(s)) {
		t.Fatalf("p=%d: restored registers differ", s.precision)
	}
	return r
}

// plainRegister is the register update as the HyperLogLog paper states
// it, over a plain dense array: the top p hash bits pick the register,
// which rises to the position of the first 1 bit of the rest.
func plainRegister(regs []uint8, p uint8, h uint64) {
	idx := h >> (64 - uint64(p))
	rest := h<<p | 1<<(uint64(p)-1)
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	regs[idx] = max(regs[idx], rank)
}

// TestDstSketchSparseMatchesDense feeds a sketch and a plain dense
// register array the same hashes at every precision, across the
// densify cutoff and on to m/2 nonzero registers, and checks that the
// sketch holds the plain array's registers, estimates bit-identically
// to the full loop over it, and is sparse exactly while at most
// sparseMax registers are nonzero. The encoding round-trips at each
// checked step, and a version 1 (dense-only) encoding of the same
// registers decodes to the same sketch. Above precision 10 the
// O(m) comparisons run every 4^(p−10)th step and at every step within
// two inserts of the cutoff.
func TestDstSketchSparseMatchesDense(t *testing.T) {
	for p := uint8(4); p <= 16; p++ {
		m, cut := 1<<p, sparseMax(p)
		stride := 1
		if p > 10 {
			stride = 1 << (2 * (p - 10))
		}
		rng := rand.New(rand.NewSource(100 + int64(p)))
		s, plain := NewDstSketch(p), make([]uint8, m)
		nonzero, crossed := 0, false
		for i := 0; nonzero < m/2; i++ {
			h := rng.Uint64()
			if i%3 == 0 {
				h = uint64(rng.Intn(m)) << (64 - p) // a register already seen, often
			}
			s.addHash(h)
			if plain[h>>(64-p)] == 0 {
				nonzero++
			}
			plainRegister(plain, p, h)
			if sparse := s.registers == nil; sparse != (nonzero <= cut) {
				t.Fatalf("p=%d step %d: sparse=%v with %d nonzero registers (cutoff %d)", p, i, sparse, nonzero, cut)
			}
			crossed = crossed || nonzero > cut
			if i%stride != 0 && abs(nonzero-cut) > 2 {
				continue
			}
			if !slices.Equal(denseRegisters(s), plain) {
				t.Fatalf("p=%d step %d: registers differ from the plain array", p, i)
			}
			if got, want := s.Estimate(), fullLoopEstimate(plain); got != want {
				t.Fatalf("p=%d step %d: Estimate %d, full loop %d", p, i, got, want)
			}
			roundtripSketch(t, s, false)
			v1 := append([]byte{SketchDense, p}, plain...)
			r, err := decodeSketch(v1, true)
			if err != nil {
				t.Fatalf("p=%d step %d: version 1 decode: %v", p, i, err)
			}
			if !slices.Equal(encodeSketch(r), encodeSketch(s)) {
				t.Fatalf("p=%d step %d: version 1 registers decode to a different sketch", p, i)
			}
		}
		if !crossed {
			t.Fatalf("p=%d: never crossed the cutoff", p)
		}
	}
}

// TestSketchDecoderRejects: every non-canonical or out-of-range
// encoding fails with ErrFormat (or ErrTruncated when cut short), and
// only a version 1 read turns a dense form the cutoff holds sparse
// into a sparse sketch.
func TestSketchDecoderRejects(t *testing.T) {
	const p = 6 // m = 64, cutoff 8, ranks 1..59
	sparse := func(n uint8, pairs ...uint8) []byte { return append([]byte{SketchSparse, p, n}, pairs...) }
	dense := func(nonzero int) []byte {
		b := append([]byte{SketchDense, p}, make([]byte, 1<<p)...)
		for i := range nonzero {
			b[2+i*7%64] = 3
		}
		return b
	}
	for _, tc := range []struct {
		name string
		b    []byte
		v1   bool
		want error
	}{
		{"sparse ok", sparse(2, 3, 1, 60, 59), false, nil},
		{"sparse empty", sparse(0), false, nil},
		{"sparse first index 0", sparse(2, 0, 1, 1, 2), false, nil},
		{"duplicate index", sparse(2, 3, 1, 0, 2), false, checkpoint.ErrFormat},
		{"index past m", sparse(2, 3, 1, 61, 2), false, checkpoint.ErrFormat},
		{"huge delta", sparse(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1), false, checkpoint.ErrFormat},
		{"rank 0", sparse(1, 3, 0), false, checkpoint.ErrFormat},
		{"rank past 65-p", sparse(1, 3, 60), false, checkpoint.ErrFormat},
		{"above cutoff", sparse(9, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), false, checkpoint.ErrFormat},
		{"truncated pairs", sparse(2, 3, 1), false, checkpoint.ErrTruncated},
		{"precision 3", []byte{SketchSparse, 3, 0}, false, checkpoint.ErrFormat},
		{"precision 17", []byte{SketchDense, 17}, false, checkpoint.ErrFormat},
		{"unknown form", []byte{3, p, 0}, false, checkpoint.ErrFormat},
		{"dense ok", dense(9), false, nil},
		{"dense at cutoff", dense(8), false, checkpoint.ErrFormat},
		{"dense at cutoff, v1", dense(8), true, nil},
		{"dense empty, v1", dense(0), true, nil},
		{"dense truncated", dense(9)[:40], false, checkpoint.ErrTruncated},
	} {
		s, err := decodeSketch(tc.b, tc.v1)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			} else if again, err := decodeSketch(encodeSketch(s), false); err != nil || !slices.Equal(denseRegisters(again), denseRegisters(s)) {
				t.Errorf("%s: re-encoding does not decode to the same registers: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// A version 1 register array with a rank no insert could produce
	// stays out of the sparse form (whose decoder would reject it).
	bad := dense(2)
	bad[2] = 60
	if _, err := decodeSketch(bad, true); !errors.Is(err, checkpoint.ErrFormat) {
		t.Errorf("v1 rank past 65-p: err = %v, want ErrFormat", err)
	}
}

// FuzzSketchDecode feeds arbitrary bytes to SketchDecoder as a
// version 1 and a version 2 read. An accepted sketch must re-encode
// canonically: its encoding decodes as version 2 to the same registers
// and re-encodes to the same bytes, in the form its nonzero register
// count selects.
func FuzzSketchDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 2, 7, 9, 40} {
		s := NewDstSketch(6)
		for range n {
			s.AddU128(netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()})
		}
		f.Add(encodeSketch(s))
		f.Add(append([]byte{SketchDense, 6}, denseRegisters(s)...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, v1 := range []bool{false, true} {
			s, err := decodeSketch(b, v1)
			if err != nil {
				continue
			}
			nonzero := 0
			for _, r := range denseRegisters(s) {
				if r != 0 {
					nonzero++
				}
			}
			if sparse := s.registers == nil; sparse != (nonzero <= sparseMax(s.precision)) {
				t.Fatalf("v1=%v: sparse=%v with %d nonzero registers", v1, sparse, nonzero)
			}
			again := roundtripSketch(t, s, false)
			if got, want := again.Estimate(), s.Estimate(); got != want {
				t.Fatalf("v1=%v: restored estimate %d, want %d", v1, got, want)
			}
		}
	})
}
