package netaddr6

import (
	"math"
	"math/bits"
	"slices"
)

// sortCutoff is the bucket size below which SortByKey insertion-sorts a
// bucket: on a few dozen entries the counting passes cost more than
// the comparisons they save, and an insertion sort reads one key per
// comparison where slices.SortFunc through key reads two.
const sortCutoff = 56

// maxDigit caps the radix digit width, so one level's two counter
// arrays stay within 2·2^12 four-byte counters (32 KiB).
const maxDigit = 12

// maxDepth bounds the radix levels on one path: a bucket this deep goes
// to slices.SortFunc. IPv6 keys take one to three levels (the bits that
// tell apart their /48s, their /64s, their interface identifiers).
const maxDepth = 6

// SortByKey sorts s in place into ascending key(s[i]) order (numeric
// U128 order, equivalently netip.Addr.Compare order for the addresses
// the keys encode). The sort is not stable: entries with equal keys
// land in an unspecified order among themselves. Where keys are
// unique, as in a state table's level, the sorted order is unique, so
// the result is canonical whatever order s arrived in.
//
// It is an in-place MSD radix sort (an American-flag permutation, no
// second array). Each bucket first finds the first bit on which its
// keys differ, so the long prefixes IPv6 keys share cost nothing, then
// permutes on the next d bits, d growing with the bucket's length
// (about bits.Len(n)−2, at most 12), and recurses into the buckets.
// Buckets under a few dozen entries are insertion-sorted, and a bucket
// six levels deep goes to slices.SortFunc. A level costs three linear
// passes over its bucket, so the worst case (keys built to split off a
// few entries per level) is six levels of passes plus slices.SortFunc
// on the bucket they leave. Typical keys cost one or two levels plus
// a short insertion sort per bucket, and a slice whose keys are all
// equal costs one pass.
//
// counts holds the digit counters. A caller that sorts repeatedly keeps
// one buffer across calls: it grows to the largest sort once, after
// which SortByKey does not allocate. A nil counts uses a buffer local
// to the call.
func SortByKey[E any](s []E, key func(E) U128, counts *[]uint32) {
	if uint64(len(s)) > math.MaxUint32 {
		slices.SortFunc(s, func(a, b E) int { return key(a).Cmp(key(b)) })
		return
	}
	if counts == nil {
		counts = new([]uint32)
	}
	radixSort(s, key, counts, 0, 0)
}

// radixSort sorts s, a bucket depth levels down whose counters start at
// counts[off:]. Each level keeps its bucket ends in counts until its
// last bucket is sorted, so nested levels take the counters above it.
func radixSort[E any](s []E, key func(E) U128, counts *[]uint32, off, depth int) {
	n := len(s)
	if n < sortCutoff {
		insertionSort(s, key)
		return
	}
	if depth == maxDepth {
		slices.SortFunc(s, func(a, b E) int { return key(a).Cmp(key(b)) })
		return
	}
	first := key(s[0])
	var diff U128
	for i := 1; i < n; i++ {
		k := key(s[i])
		diff.Hi |= k.Hi ^ first.Hi
		diff.Lo |= k.Lo ^ first.Lo
	}
	var p uint // the first bit (MSB first) on which two keys differ
	switch {
	case diff.Hi != 0:
		p = uint(bits.LeadingZeros64(diff.Hi))
	case diff.Lo != 0:
		p = 64 + uint(bits.LeadingZeros64(diff.Lo))
	default:
		return // every key is equal
	}
	d := uint(min(bits.Len(uint(n))-2, maxDigit, 128-int(p)))
	nb := 1 << d
	top := off + 2*nb
	if top > len(*counts) {
		grown := make([]uint32, max(top, 2*len(*counts)))
		copy(grown, (*counts)[:off])
		*counts = grown
	}
	// ends[b] is the end of bucket b; next[b] the first slot in it not
	// yet holding a key of digit b.
	ends, next := (*counts)[off:off+nb], (*counts)[off+nb:top]
	clear(ends)
	for i := range s {
		ends[digit(key(s[i]), p, d)]++
	}
	var sum uint32
	for b, c := range ends {
		next[b] = sum
		sum += c
		ends[b] = sum
	}
	for b := range nb {
		for i := next[b]; i < ends[b]; i = next[b] {
			// Carry s[i] round its cycle: each step drops the carried
			// entry into its bucket and picks up the one it displaces,
			// until an entry of bucket b comes back to slot i.
			v := s[i]
			for c := digit(key(v), p, d); c != b; c = digit(key(v), p, d) {
				j := next[c]
				next[c]++
				v, s[j] = s[j], v
			}
			s[i] = v
			next[b]++
		}
	}
	// A nested sort may move the counters; re-read them through counts.
	var start uint32
	for b := range nb {
		end := (*counts)[off+b]
		if end-start > 1 {
			radixSort(s[start:end], key, counts, top, depth+1)
		}
		start = end
	}
}

// digit returns bits [p, p+d) of k, counting from the most significant,
// for 1 ≤ d ≤ 64 and p+d ≤ 128.
func digit(k U128, p, d uint) int {
	var w uint64
	if p < 64 {
		w = k.Hi<<p | k.Lo>>(64-p)
	} else {
		w = k.Lo << (p - 64)
	}
	return int(w >> (64 - d))
}

// insertionSort sorts a small s, reading each entry's key once per
// comparison with the entry it moves past.
func insertionSort[E any](s []E, key func(E) U128) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		k := key(v)
		j := i
		for ; j > 0 && k.Cmp(key(s[j-1])) < 0; j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
}
