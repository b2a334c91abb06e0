package core

import (
	"fmt"
	"math"
	"net/netip"

	"v6scan/internal/netaddr6"
)

// DstSketch is a HyperLogLog cardinality estimator over destination
// addresses. The Discussion section argues that inline IDS deployments
// of the scan definition cannot afford an exact destination set per
// candidate source; this sketch bounds per-source memory to 2^precision
// bytes (default 1 KiB) at a relative error of ≈1.04/√(2^precision)
// (≈3.2% at precision 10), which is ample for a ≥100-destinations
// threshold. bench_test.go ablates it against the exact map.
//
// The sketch also counts its zero registers, so Estimate is O(1) while
// at least a third of them are zero — the regime of every candidate
// below a ≥100-destinations threshold at the default precision. The
// shortcut is exact, not an approximation: with zeros ≥ m/3 the
// harmonic sum is ≥ zeros ≥ m/3 (each zero register adds 1), so the
// raw estimate α·m²/sum is ≤ 3α·m ≈ 2.16m < 2.5m and the full loop
// would take the linear-counting branch m·ln(m/zeros) anyway — the
// same float operations on the same inputs.
type DstSketch struct {
	registers []uint8
	// zeros counts zero registers; −1 marks it unknown (a restored
	// sketch, until the first full-loop Estimate records it).
	zeros     int32
	precision uint8
}

// NewDstSketch returns a sketch with 2^precision registers
// (4 ≤ precision ≤ 16; out-of-range values are clamped).
func NewDstSketch(precision uint8) *DstSketch {
	if precision < 4 {
		precision = 4
	}
	if precision > 16 {
		precision = 16
	}
	return &DstSketch{registers: make([]uint8, 1<<precision), zeros: 1 << precision, precision: precision}
}

// Add observes one destination address.
func (s *DstSketch) Add(a netip.Addr) {
	s.addHash(hashAddr(a))
}

// AddU128 observes one destination already in 128-bit integer form —
// the hot-path variant for callers that convert the address once and
// feed several sketches (the IDS engine's per-level tables).
func (s *DstSketch) AddU128(u netaddr6.U128) {
	s.addHash(hashU128(u.Hi, u.Lo))
}

func (s *DstSketch) addHash(h uint64) {
	idx := h >> (64 - uint64(s.precision))
	rest := h<<s.precision | 1<<(uint64(s.precision)-1) // avoid zero tail
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if r := s.registers[idx]; rank > r {
		if r == 0 && s.zeros > 0 {
			s.zeros--
		}
		s.registers[idx] = rank
	}
}

// Estimate returns the approximate number of distinct addresses added.
// While a known zero count covers a third of the registers it returns
// the linear-counting estimate directly (exact; see DstSketch);
// otherwise it runs the full loop and records the zero count.
func (s *DstSketch) Estimate() uint64 {
	m := float64(len(s.registers))
	if z := s.zeros; z >= 0 && 3*int(z) >= len(s.registers) {
		return uint64(m*math.Log(m/float64(z)) + 0.5)
	}
	var sum float64
	zeros := 0
	for _, r := range s.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	s.zeros = int32(zeros)
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	// Small-range correction (linear counting).
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return uint64(e + 0.5)
}

// MemoryBytes returns the sketch's register memory.
func (s *DstSketch) MemoryBytes() int { return len(s.registers) }

// Precision returns the sketch's precision (register count = 2^p).
func (s *DstSketch) Precision() uint8 { return s.precision }

// Registers returns the sketch's register array — its complete
// serializable state. The returned slice is the backing store: callers
// must treat it as read-only and must not retain it past the sketch's
// next mutation. Snapshot code copies it into the checkpoint payload.
func (s *DstSketch) Registers() []uint8 { return s.registers }

// RestoreDstSketch rebuilds a sketch from a precision and register
// array previously obtained from Registers. The registers are copied;
// the zero count is left unknown rather than counted here (restore
// time matters more than the first Estimate, which records it).
func RestoreDstSketch(precision uint8, registers []uint8) (*DstSketch, error) {
	if precision < 4 || precision > 16 {
		return nil, fmt.Errorf("core: sketch precision %d out of range [4,16]", precision)
	}
	if len(registers) != 1<<precision {
		return nil, fmt.Errorf("core: sketch register count %d does not match precision %d (want %d)",
			len(registers), precision, 1<<precision)
	}
	s := &DstSketch{registers: make([]uint8, len(registers)), zeros: -1, precision: precision}
	copy(s.registers, registers)
	return s, nil
}

// Reset zeroes the registers, returning the sketch to its freshly
// allocated state so callers can pool and reuse sketches (the IDS
// engine's candidate arena does): a reset sketch is observationally
// identical to a new one at the same precision.
func (s *DstSketch) Reset() {
	clear(s.registers)
	s.zeros = int32(len(s.registers))
}

// hashAddr is a 64-bit mix of an IPv6 address (SplitMix64-style over
// both halves) — fast, stateless, and adequate for cardinality
// sketching (not adversarially robust; an IDS would key it with a
// per-process secret).
func hashAddr(a netip.Addr) uint64 {
	b := a.As16()
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[i+8])
	}
	return hashU128(hi, lo)
}

func hashU128(hi, lo uint64) uint64 {
	x := hi ^ (lo * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
