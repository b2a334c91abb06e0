package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"net/netip"
	"slices"
	"unsafe"

	"v6scan/internal/checkpoint"
	"v6scan/internal/netaddr6"
)

// DstSketch is a HyperLogLog cardinality estimator over destination
// addresses. The Discussion section argues that inline IDS deployments
// of the scan definition cannot afford an exact destination set per
// candidate source; this sketch bounds per-source memory to 2^precision
// register bytes (default 1 KiB) at a relative error of
// ≈1.04/√(2^precision) (≈3.2% at precision 10), which is ample for a
// ≥100-destinations threshold. bench_test.go ablates it against the
// exact map.
//
// # Sparse and dense forms
//
// A sketch holds its m = 2^precision registers in one of two forms,
// chosen by the register contents alone. While at most sparseMax = m/8
// registers are nonzero it keeps only those, as a list of idx<<8|rank
// entries sorted by register index: HyperLogLog++'s exact sparse form
// (Heule, Nunkesser and Hall, EDBT 2013) at the same precision. The
// insert that would lengthen the list past m/8 converts it to the dense
// m-byte register array, which the sketch keeps until Reset. Both forms
// hold the same registers, so estimates are bit-identical, and since
// the form is a function of the registers, the checkpoint encoding of
// a sketch (Encode) depends only on its state, never on its history.
//
// Memory: MemoryBytes is what a sketch actually holds — its struct
// (with room for four sparse entries inline) plus the dense registers
// or the sparse list's capacity beyond the inline room, at most
// 4·m/8 = m/2 bytes. So no sketch holds more than its struct and m
// bytes, and one that has seen a handful of destinations holds its
// struct alone.
//
// The sketch also counts its zero registers, so Estimate is O(1) while
// at least a third of them are zero — always in the sparse form (zeros
// = m − len ≥ 7m/8), and in the regime of every candidate below a
// ≥100-destinations threshold at the default precision. The shortcut
// is exact, not an approximation: with zeros ≥ m/3 the harmonic sum is
// ≥ zeros ≥ m/3 (each zero register adds 1), so the raw estimate
// α·m²/sum is ≤ 3α·m ≈ 2.16m < 2.5m and the full loop would take the
// linear-counting branch m·ln(m/zeros) anyway — the same float
// operations on the same inputs.
type DstSketch struct {
	// registers is the dense form; nil while the sketch is sparse.
	registers []uint8
	// sparse is the sparse form: the nonzero registers as idx<<8|rank
	// in index order; empty once dense. It starts in inline and moves
	// to the heap (or a restore's backing array) when it outgrows it.
	sparse []uint32
	inline [sparseInline]uint32
	// zeros counts zero registers; −1 marks it unknown (a restored
	// dense sketch, until the first full-loop Estimate records it).
	zeros     int32
	precision uint8
}

// sparseInline is the sparse capacity a sketch's struct holds: enough
// for the 2–4-destination candidates that dominate source churn.
const sparseInline = 4

// sparseMax is the densify cutoff, the longest sparse list at precision
// p: m/8 entries, half the dense bytes at full capacity and far below
// the 2m/3 nonzero registers where Estimate leaves its O(1) branch.
// Against m/16 and m/4 it was measured on sketch fills and the IDS
// benchmarks (CHANGES.md): m/4 saves no memory at full capacity and
// doubles the cost of filling a large sketch, and m/16 makes mid-size
// sketches dense and the churn cut larger, for no engine-level gain.
func sparseMax(p uint8) int { return 1 << p >> 3 }

// maxRank is the largest rank addHash produces at precision p: the
// leading zeros of a (64−p)-bit remainder with its guard bit, plus one.
func maxRank(p uint8) uint8 { return 65 - p }

// NewDstSketch returns an empty (sparse) sketch with 2^precision
// registers (4 ≤ precision ≤ 16; out-of-range values are clamped).
func NewDstSketch(precision uint8) *DstSketch {
	precision = clampPrecision(precision)
	s := &DstSketch{zeros: 1 << precision, precision: precision}
	s.sparse = s.inline[:0]
	return s
}

// clampPrecision clamps a requested precision to [4, 16].
func clampPrecision(p uint8) uint8 { return min(max(p, 4), 16) }

// Precision returns the sketch's precision: it has 2^precision
// registers.
func (s *DstSketch) Precision() uint8 { return s.precision }

// Nonzero returns the number of nonzero registers, from the zero count
// the sketch keeps, or −1 while that count is unknown (a restored dense
// sketch, until an Estimate runs its full loop).
func (s *DstSketch) Nonzero() int {
	if s.zeros < 0 {
		return -1
	}
	return 1<<s.precision - int(s.zeros)
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

// addHash raises register idx (the hash's top precision bits) to the
// rank of the rest: its leading zeros plus one, with a guard bit so a
// zero remainder ranks 65−precision.
func (s *DstSketch) addHash(h uint64) {
	p := uint64(s.precision)
	idx := uint32(h >> (64 - p))
	rank := uint8(bits.LeadingZeros64(h<<p|1<<(p-1))) + 1
	if s.registers == nil {
		s.addSparse(idx, rank)
		return
	}
	if r := s.registers[idx]; rank > r {
		if r == 0 && s.zeros > 0 {
			s.zeros--
		}
		s.registers[idx] = rank
	}
}

// addSparse raises register idx to rank in the sparse list, inserting
// it in index order, or densifies when a new register would lengthen
// the list past sparseMax.
func (s *DstSketch) addSparse(idx uint32, rank uint8) {
	v := idx<<8 | uint32(rank)
	i, _ := slices.BinarySearch(s.sparse, idx<<8) // the entry ≥ (idx, 0)
	if i < len(s.sparse) && s.sparse[i]>>8 == idx {
		s.sparse[i] = max(s.sparse[i], v)
		return
	}
	s.zeros--
	n := len(s.sparse)
	if n == sparseMax(s.precision) {
		s.registers = make([]uint8, 1<<s.precision)
		for _, e := range s.sparse {
			s.registers[e>>8] = uint8(e)
		}
		s.registers[idx] = rank
		s.sparse = s.inline[:0]
		return
	}
	if n == cap(s.sparse) {
		grown := make([]uint32, n, min(max(4*n, 16), sparseMax(s.precision)))
		copy(grown, s.sparse)
		s.sparse = grown
	}
	s.sparse = s.sparse[:n+1]
	copy(s.sparse[i+1:], s.sparse[i:n])
	s.sparse[i] = v
}

// Estimate returns the approximate number of distinct addresses added.
// While a known zero count covers a third of the registers — always in
// the sparse form — it returns the linear-counting estimate directly
// (exact; see DstSketch); otherwise it runs the full loop over the
// dense registers and records the zero count.
func (s *DstSketch) Estimate() uint64 {
	m := float64(int(1) << s.precision)
	if z := s.zeros; z >= 0 && 3*int(z) >= 1<<s.precision {
		return linearCount(m, int(z))
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

// linearCount is Estimate's O(1) branch: the linear-counting estimate
// of m registers of which zeros are zero, rounded.
func linearCount(m float64, zeros int) uint64 {
	return uint64(m*math.Log(m/float64(zeros)) + 0.5)
}

// Threshold decides Estimate() >= min for sketches of one precision
// from their nonzero-register count (Nonzero) alone, wherever Estimate
// takes its O(1) branch, and tells which counts may belong to a dense
// sketch. A caller that keeps the count beside its sketch pointer
// (the IDS engine's candidates) decides most sketches without touching
// them. The linear-counting estimate falls as the zero count rises, so
// the counts that reach min are those at or above one bound, found
// once with Estimate's own float expression.
type Threshold struct {
	precision uint8
	// minRegs is the least count in the O(1) branch whose estimate
	// reaches min, or maxO1+1 when none does.
	minRegs int
	// maxO1 is the largest count in the O(1) branch: 3·zeros ≥ m.
	maxO1 int
	// sparseMax is the densify cutoff: a larger count is dense.
	sparseMax int
}

// NewThreshold returns the threshold of min for sketches of the given
// precision (clamped as NewDstSketch clamps it).
func NewThreshold(precision uint8, min uint64) Threshold {
	p := clampPrecision(precision)
	m := 1 << p
	t := Threshold{precision: p, maxO1: m - (m+2)/3, sparseMax: sparseMax(p)}
	// The least zero count in the branch is ⌈m/3⌉ (count maxO1); find
	// the largest zero count whose estimate still reaches min.
	lo, hi := (m+2)/3, m // the answer z lies in [lo−1, hi]
	if linearCount(float64(m), lo) < min {
		t.minRegs = t.maxO1 + 1
		return t
	}
	for lo < hi { // invariant: estimate(lo) ≥ min
		mid := lo + (hi-lo+1)/2
		if linearCount(float64(m), mid) >= min {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	t.minRegs = m - lo
	return t
}

// Precision returns the (clamped) precision the threshold decides for.
func (t *Threshold) Precision() uint8 { return t.precision }

// Decide reports whether a sketch of the threshold's precision with n
// nonzero registers estimates at least min. ok is false when n alone
// does not decide it — n unknown (−1) or past Estimate's O(1) branch —
// and the caller must ask Estimate.
func (t *Threshold) Decide(n int) (reached, ok bool) {
	if n < 0 || n > t.maxO1 {
		return false, false
	}
	return n >= t.minRegs, true
}

// MayBeDense reports whether a sketch of the threshold's precision with
// n nonzero registers (−1 for unknown) may hold the dense form.
func (t *Threshold) MayBeDense(n int) bool { return n < 0 || n > t.sparseMax }

// MemoryBytes returns the bytes the sketch holds: its struct, and the
// dense registers or the sparse list's capacity outside the struct.
// Every sparse list outside the struct has room for more than
// sparseInline entries (addSparse grows to at least 16 or sparseMax;
// SketchDecoder places lists of at most sparseInline inline).
func (s *DstSketch) MemoryBytes() int {
	n := int(unsafe.Sizeof(*s)) + cap(s.registers)
	if cap(s.sparse) > sparseInline {
		n += 4 * cap(s.sparse)
	}
	return n
}

// Reset empties the sketch, returning it to its freshly allocated
// sparse state so callers can pool and reuse sketches (the IDS
// engine's candidate arena does): a reset sketch is observationally
// identical to a new one at the same precision. A sparse sketch keeps
// its list's capacity; a dense one drops its registers.
func (s *DstSketch) Reset() {
	s.registers = nil
	s.sparse = s.sparse[:0]
	s.zeros = int32(1) << s.precision
}

// Sketch forms: the byte an encoded sketch starts with (an IDS
// candidate's state uses 0 for its inline destination).
const (
	// SketchDense is followed by the precision and the 2^precision
	// register bytes.
	SketchDense uint8 = 1
	// SketchSparse is followed by the precision, the entry count
	// (uvarint) and per nonzero register, in index order, its index
	// minus the previous one's (uvarint; the first from 0) and its
	// rank (u8).
	SketchSparse uint8 = 2
)

// Encode writes the sketch's form byte and state.
func (s *DstSketch) Encode(e *checkpoint.Enc) {
	if s.registers != nil {
		e.U8(SketchDense)
		e.U8(s.precision)
		e.Raw(s.registers)
		return
	}
	e.U8(SketchSparse)
	e.U8(s.precision)
	e.Uvarint(uint64(len(s.sparse)))
	var prev uint32
	for _, v := range s.sparse {
		e.Uvarint(uint64(v>>8 - prev))
		e.U8(uint8(v))
		prev = v >> 8
	}
}

// SketchDecoder rebuilds sketches from their Encode form. Sparse lists
// longer than a sketch's inline room are cut from one backing array
// shared by every sketch the decoder builds, so use one decoder per
// restore.
type SketchDecoder struct {
	// V1 reads a version 1 checkpoint, whose sketches are all dense: a
	// dense sketch the cutoff holds sparse becomes sparse. Otherwise
	// that encoding is not canonical and fails with ErrFormat.
	V1 bool

	backing []uint32
}

// backingChunk is the entry count of each backing array a decoder
// allocates, a few hundred sparse lists' worth.
const backingChunk = 16 << 10

// Decode reads a sketch of the given form (the byte before its state).
// It fails with checkpoint.ErrFormat on a precision out of [4,16], a
// sparse list above the cutoff, out of order, repeating an index or
// holding a rank outside [1, 65−precision], and (unless V1) a dense
// form the cutoff holds sparse.
func (sd *SketchDecoder) Decode(d *checkpoint.Dec, form uint8) (*DstSketch, error) {
	p := d.U8()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if p < 4 || p > 16 {
		return nil, fmt.Errorf("%w: sketch precision %d out of range [4,16]", checkpoint.ErrFormat, p)
	}
	s := &DstSketch{precision: p}
	s.sparse = s.inline[:0]
	var err error
	switch form {
	case SketchDense:
		if regs := d.Raw(1 << p); regs != nil {
			err = sd.dense(s, regs)
		}
	case SketchSparse:
		err = sd.sparseList(s, d)
	default:
		err = fmt.Errorf("%w: sketch form %d", checkpoint.ErrFormat, form)
	}
	if err == nil {
		err = d.Err()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// dense adopts a dense register array in one pass over its 64-bit
// words: the nonzero registers go to the backing array's spare room
// until there are more than the cutoff holds, which keeps a copy of
// the array with its zero count unknown, as a dense restore always
// has. A sparse result is a V1 conversion or a non-canonical encoding.
func (sd *SketchDecoder) dense(s *DstSketch, regs []uint8) error {
	buf := sd.spare(sparseMax(s.precision) + 1)
	n := 0
scan:
	for w := 0; w < len(regs); w += 8 {
		for x := binary.LittleEndian.Uint64(regs[w:]); x != 0; n++ {
			if n == len(buf) {
				break scan
			}
			b := bits.TrailingZeros64(x) >> 3
			buf[n] = uint32(w+b)<<8 | uint32(regs[w+b])
			x &^= 0xFF << (8 * b)
		}
	}
	if n == len(buf) {
		s.registers = slices.Clone(regs)
		s.zeros = -1
		return nil
	}
	if !sd.V1 {
		return fmt.Errorf("%w: dense sketch with %d nonzero registers (at most %d are sparse)",
			checkpoint.ErrFormat, n, sparseMax(s.precision))
	}
	for _, v := range buf[:n] {
		if uint8(v) > maxRank(s.precision) {
			return fmt.Errorf("%w: sketch rank %d above %d", checkpoint.ErrFormat, uint8(v), maxRank(s.precision))
		}
	}
	sd.adopt(s, buf[:n])
	return nil
}

// sparseList reads a sparse list into the backing array's spare room.
func (sd *SketchDecoder) sparseList(s *DstSketch, d *checkpoint.Dec) error {
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if n > uint64(sparseMax(s.precision)) {
		return fmt.Errorf("%w: sparse sketch of %d entries (cutoff %d)", checkpoint.ErrFormat, n, sparseMax(s.precision))
	}
	buf := sd.spare(int(n))
	m := uint64(1) << s.precision
	var idx uint64
	for i := range buf {
		delta, rank := d.Uvarint(), d.U8()
		if err := d.Err(); err != nil {
			return err
		}
		switch idx += delta; {
		case i > 0 && delta == 0:
			return fmt.Errorf("%w: sparse sketch index %d repeated", checkpoint.ErrFormat, idx)
		case delta >= m || idx >= m:
			return fmt.Errorf("%w: sparse sketch index out of range [0,%d)", checkpoint.ErrFormat, m)
		case rank == 0 || rank > maxRank(s.precision):
			return fmt.Errorf("%w: sketch rank %d outside [1,%d]", checkpoint.ErrFormat, rank, maxRank(s.precision))
		}
		buf[i] = uint32(idx)<<8 | uint32(rank)
	}
	sd.adopt(s, buf)
	return nil
}

// spare returns k entries of the backing array's spare room, starting
// a new array when the current one has less.
func (sd *SketchDecoder) spare(k int) []uint32 {
	if cap(sd.backing)-len(sd.backing) < k {
		sd.backing = make([]uint32, 0, max(k, backingChunk))
	}
	l := len(sd.backing)
	return sd.backing[l : l+k]
}

// adopt makes entries, a prefix of the last spare room, s's sparse
// list: copied inline when they fit, else cut from the backing array
// with no spare capacity, so the sketch's next insert moves it out.
func (sd *SketchDecoder) adopt(s *DstSketch, entries []uint32) {
	n := len(entries)
	if n <= sparseInline {
		s.sparse = append(s.inline[:0], entries...)
	} else {
		l := len(sd.backing)
		s.sparse = sd.backing[l : l+n : l+n]
		sd.backing = sd.backing[:l+n]
	}
	s.zeros = int32(1<<s.precision - n)
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
