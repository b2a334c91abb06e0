package u128idx

import (
	"sort"

	"v6scan/internal/netaddr6"
)

// SmallSetSpill is the inline fast-path bound for Set: up to this many
// members live in one small sorted array (binary-searched inserts, no
// hashing, one cache line of keys for the common case); the set spills
// into an Index beyond it. Tuned on BenchmarkDetectorStreaming /
// BenchmarkDetectorSharded4: detector sessions at fine aggregation
// levels overwhelmingly hold a handful of distinct destinations, where
// the sorted array beats any hash table on both time and memory, while
// qualifying scans (hundreds to thousands of members) amortize the
// spill instantly. 16 keeps the array at 256 bytes — two entries short
// of where memmove cost in sorted inserts starts showing up against
// the index at the cutover sizes measured here (12 and 24 were within
// noise on time; 16 wins slightly on allocation volume because fewer
// short-lived sessions spill).
const SmallSetSpill = 16

// Set is a set of netaddr6.U128 values with an inline sorted-array
// fast path before spilling to an open-addressed Index. The zero
// value is an empty set. Reset retains both the array and the spilled
// index for reuse, so pooled owners (recycled detector sessions) add
// members allocation-free in steady state.
type Set struct {
	small []netaddr6.U128 // sorted; authoritative while idx is empty
	idx   Index           // authoritative when non-empty
}

// Len returns the number of members.
func (s *Set) Len() int {
	if n := s.idx.Len(); n > 0 {
		return n
	}
	return len(s.small)
}

// Add inserts k, reporting whether it was absent.
func (s *Set) Add(k netaddr6.U128) bool {
	if s.idx.Len() > 0 {
		_, existed := s.idx.Ref(k)
		return !existed
	}
	if s.small == nil {
		// Materialize the inline array at full capacity in one shot;
		// letting append grow it would cost log2(SmallSetSpill) allocs
		// per materialized set on the session hot path.
		s.small = make([]netaddr6.U128, 0, SmallSetSpill)
	}
	i := sort.Search(len(s.small), func(i int) bool { return s.small[i].Cmp(k) >= 0 })
	if i < len(s.small) && s.small[i] == k {
		return false
	}
	if len(s.small) < SmallSetSpill {
		s.small = append(s.small, netaddr6.U128{})
		copy(s.small[i+1:], s.small[i:])
		s.small[i] = k
		return true
	}
	// Spill: move the array into the index (its backing arrays are
	// reused across lives when the owner recycles), then insert there.
	s.idx.Reserve(4 * SmallSetSpill)
	for _, m := range s.small {
		s.idx.Ref(m)
	}
	s.small = s.small[:0]
	s.idx.Ref(k)
	return true
}

// Contains reports membership.
func (s *Set) Contains(k netaddr6.U128) bool {
	if s.idx.Len() > 0 {
		_, ok := s.idx.Get(k)
		return ok
	}
	i := sort.Search(len(s.small), func(i int) bool { return s.small[i].Cmp(k) >= 0 })
	return i < len(s.small) && s.small[i] == k
}

// Reset empties the set, retaining the inline array and any spilled
// index for reuse.
func (s *Set) Reset() {
	s.small = s.small[:0]
	s.idx.Reset()
}

// AppendSorted appends the members to dst in canonical order and
// returns the extended slice. The inline fast path is already sorted
// (a copy); the spilled path collects and sorts (Index.AppendKeysSorted,
// with counts as the sort's counters). Callers reuse dst and counts as
// scratch buffers across calls to keep serialization allocation-free.
func (s *Set) AppendSorted(dst []netaddr6.U128, counts *[]uint32) []netaddr6.U128 {
	if s.idx.Len() > 0 {
		return s.idx.AppendKeysSorted(dst, counts)
	}
	return append(dst, s.small...)
}
