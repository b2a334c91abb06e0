// Package u128idx provides a cache-friendly open-addressed hash index
// specialized for netaddr6.U128 keys, and Table, the keyed state table
// built on it that holds the detector's sessions and the IDS engine's
// candidates at every aggregation level.
//
// # Design
//
// The index is a swiss-table-style flat layout: one control-byte array
// (7-bit hash fragments plus empty/deleted markers, probed a group of
// eight at a time with branch-free word operations), one contiguous
// key array, and one uint32 value array. In a Table the values are
// handles into pages of entries, so the index itself holds no
// per-entry pointers: the garbage collector never traces it bucket by
// bucket, lookups touch two contiguous cache lines per probe group
// instead of chasing bucket chains, and a combined lookup-or-insert is
// a single probe (Ref). The Table files each handle in a hashed timing
// wheel of coarse time buckets, on an intrusive link beside its last
// activity, so its idle sweep (Expire) visits only the buckets that
// are due, not every entry.
//
// # Determinism
//
// Probe order depends on the hash and table size and is NOT canonical.
// Range visits entries in slot order (arbitrary, like map iteration);
// any output that must be deterministic goes through AppendKeysSorted
// (or sorts what Range collected by key), exactly as the snapshot/merge
// seams in core and ids already do. Every such sort is
// netaddr6.SortByKey: keys are unique within an index, so ascending key
// order is unique and the sorted output does not depend on slot order.
// Hashing is seedless and deterministic across processes — canonical
// byte output never depends on it because every serialization path
// sorts first.
//
// # Debug knob
//
// When the U128IDX_DEBUG_TINYCAP environment variable is non-empty,
// every index starts at the minimum capacity (one 8-slot group)
// regardless of size hints, so growth and tombstone-rehash paths are
// exercised constantly. CI runs the detector/IDS parity suites under
// this knob with -race; it is not meant for production use.
package u128idx

import (
	"encoding/binary"
	"math/bits"
	"os"

	"v6scan/internal/netaddr6"
)

// groupSize is the number of control bytes probed per step: one
// 64-bit word.
const groupSize = 8

// Control byte states. Full slots hold the 7-bit hash fragment h2
// (0x00..0x7F, high bit clear); empty and deleted have the high bit
// set so one word-AND finds insertable slots.
const (
	ctrlEmpty   = 0x80
	ctrlDeleted = 0xFE
)

const (
	loBits = 0x0101010101010101
	hiBits = 0x8080808080808080
)

// debugTinyCap forces minimum initial capacity so resize paths run
// under ordinary workloads (set via U128IDX_DEBUG_TINYCAP; see the
// package doc).
var debugTinyCap = os.Getenv("U128IDX_DEBUG_TINYCAP") != ""

// Hash returns the probe hash for a key: a murmur3-style finalizer
// over a rotation-fold of both halves. It is deterministic (seedless)
// — see the package doc for why canonical output never depends on it —
// and strong enough that masked prefix keys (low bits all zero) and
// /128 address keys (high bits shared) both spread across groups.
func Hash(k netaddr6.U128) uint64 {
	x := k.Lo ^ bits.RotateLeft64(k.Hi, 31)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// matchByte returns a word with the high bit set in every byte of g
// equal to b. Exact for the control alphabet in use: the classic
// zero-byte borrow false-positive requires a byte equal to b^0x01
// below a true match in the same word, which the three control states
// plus 7-bit fragments cannot produce for the probes the index issues
// (h2 false positives are filtered by the key comparison anyway).
func matchByte(g uint64, b uint8) uint64 {
	x := g ^ (loBits * uint64(b))
	return (x - loBits) &^ x & hiBits
}

// Index maps netaddr6.U128 keys to uint32 values with open addressing.
// The zero value is an empty index ready for use. Not safe for
// concurrent use; the sharded consumers give each shard its own.
type Index struct {
	ctrl   []uint8         // len = groups*groupSize
	keys   []netaddr6.U128 // parallel to ctrl
	vals   []uint32        // parallel to ctrl
	gmask  uint64          // groups-1 (groups is a power of two)
	n      int             // live entries
	dead   int             // tombstones
	growAt int             // occupied (live+dead) threshold triggering rehash
}

// NewIndex returns an index pre-sized for about hint entries. A zero
// or negative hint (or the zero Index value) starts at one group.
func NewIndex(hint int) *Index {
	ix := new(Index)
	if hint > 0 && !debugTinyCap {
		ix.init(groupsFor(hint))
	}
	return ix
}

// Reserve pre-sizes an empty, never-initialized index for about hint
// entries, saving the doubling steps a zero value would otherwise pay
// on the way up. It is a no-op once the table exists (Reset keeps the
// arrays, so reused indexes are already sized).
func (ix *Index) Reserve(hint int) {
	if ix.ctrl == nil && hint > 0 && !debugTinyCap {
		ix.init(groupsFor(hint))
	}
}

// groupsFor returns the power-of-two group count whose 7/8 load
// threshold accommodates hint entries.
func groupsFor(hint int) uint64 {
	groups := uint64(1)
	for int(groups*groupSize)*7/8 < hint {
		groups *= 2
	}
	return groups
}

func (ix *Index) init(groups uint64) {
	if debugTinyCap {
		groups = 1
	}
	slots := groups * groupSize
	ix.ctrl = make([]uint8, slots)
	for i := range ix.ctrl {
		ix.ctrl[i] = ctrlEmpty
	}
	ix.keys = make([]netaddr6.U128, slots)
	ix.vals = make([]uint32, slots)
	ix.gmask = groups - 1
	ix.growAt = int(slots) * 7 / 8
}

// Len returns the number of live entries.
func (ix *Index) Len() int { return ix.n }

// Cap returns the current slot count (0 before first use). Exposed
// for tests and capacity diagnostics.
func (ix *Index) Cap() int { return len(ix.ctrl) }

// Get looks up a key.
func (ix *Index) Get(k netaddr6.U128) (uint32, bool) {
	return ix.GetH(Hash(k), k)
}

// GetH is Get with a caller-computed hash (the batched pre-hash path:
// one Hash per record group, reused across probe calls).
func (ix *Index) GetH(h uint64, k netaddr6.U128) (uint32, bool) {
	if ix.n == 0 {
		return 0, false
	}
	s := ix.find(h, k)
	if s < 0 {
		return 0, false
	}
	return ix.vals[s], true
}

// find returns the slot of k, or -1. The probe walks groups linearly
// from the hash's home group; a group containing an empty slot
// terminates the chain (insertion would have used it).
func (ix *Index) find(h uint64, k netaddr6.U128) int {
	h2 := uint8(h & 0x7f)
	g := (h >> 7) & ix.gmask
	for {
		cw := binary.LittleEndian.Uint64(ix.ctrl[g*groupSize:])
		m := matchByte(cw, h2)
		for m != 0 {
			s := g*groupSize + uint64(bits.TrailingZeros64(m)>>3)
			if ix.keys[s] == k {
				return int(s)
			}
			m &= m - 1
		}
		if matchByte(cw, ctrlEmpty) != 0 {
			return -1
		}
		g = (g + 1) & ix.gmask
	}
}

// Ref returns a pointer to the value slot for k, inserting the key if
// absent (existed reports which). A fresh slot's value is zeroed; the
// caller assigns it. The pointer is valid only until the next
// mutating call (Put/Ref insert, Delete, Reset) — reads through it
// after that observe unrelated entries.
func (ix *Index) Ref(k netaddr6.U128) (v *uint32, existed bool) {
	return ix.RefH(Hash(k), k)
}

// RefH is Ref with a caller-computed hash.
func (ix *Index) RefH(h uint64, k netaddr6.U128) (v *uint32, existed bool) {
	s, existed, _ := ix.refSlot(h, k)
	return &ix.vals[s], existed
}

// refSlot is RefH returning k's slot. moved reports that the insertion
// rehashed the index, the only operation that moves entries: every
// other key's slot may have changed.
func (ix *Index) refSlot(h uint64, k netaddr6.U128) (s int, existed, moved bool) {
	if ix.ctrl == nil {
		ix.init(1)
	}
	if s := ix.find(h, k); s >= 0 {
		return s, true, false
	}
	if ix.n+ix.dead >= ix.growAt {
		ix.rehash()
		moved = true
	}
	i := ix.insertSlot(h)
	if ix.ctrl[i] == ctrlDeleted {
		ix.dead--
	}
	ix.ctrl[i] = uint8(h & 0x7f)
	ix.keys[i] = k
	ix.vals[i] = 0
	ix.n++
	return int(i), false, moved
}

// insertSlot returns the first empty-or-deleted slot on k's probe
// chain. Callers have established that k is absent.
func (ix *Index) insertSlot(h uint64) uint64 {
	g := (h >> 7) & ix.gmask
	for {
		cw := binary.LittleEndian.Uint64(ix.ctrl[g*groupSize:])
		if m := cw & hiBits; m != 0 {
			return g*groupSize + uint64(bits.TrailingZeros64(m)>>3)
		}
		g = (g + 1) & ix.gmask
	}
}

// Put sets k's value, inserting if absent.
func (ix *Index) Put(k netaddr6.U128, v uint32) {
	ix.PutH(Hash(k), k, v)
}

// PutH is Put with a caller-computed hash.
func (ix *Index) PutH(h uint64, k netaddr6.U128, v uint32) {
	p, _ := ix.RefH(h, k)
	*p = v
}

// Delete removes k, returning its value. Deleting the key most
// recently yielded by a Range callback is allowed (the slot becomes a
// tombstone or empty in place; nothing moves).
func (ix *Index) Delete(k netaddr6.U128) (uint32, bool) {
	return ix.DeleteH(Hash(k), k)
}

// DeleteH is Delete with a caller-computed hash.
func (ix *Index) DeleteH(h uint64, k netaddr6.U128) (uint32, bool) {
	if ix.n == 0 {
		return 0, false
	}
	s := ix.find(h, k)
	if s < 0 {
		return 0, false
	}
	v := ix.vals[s]
	ix.deleteSlot(s)
	return v, true
}

// deleteSlot removes the live entry at slot s.
func (ix *Index) deleteSlot(s int) {
	// If the slot's group still has an empty slot, no probe chain
	// passes through this group, so the slot can re-become empty
	// instead of a tombstone (the abseil "never-full group" rule).
	g := uint64(s) / groupSize
	cw := binary.LittleEndian.Uint64(ix.ctrl[g*groupSize:])
	if matchByte(cw, ctrlEmpty) != 0 {
		ix.ctrl[s] = ctrlEmpty
	} else {
		ix.ctrl[s] = ctrlDeleted
		ix.dead++
	}
	ix.n--
}

// Reset empties the index, retaining its arrays for reuse at the same
// capacity — the recycle-for-reuse discipline of the hot-path arenas.
func (ix *Index) Reset() {
	for i := range ix.ctrl {
		ix.ctrl[i] = ctrlEmpty
	}
	ix.n, ix.dead = 0, 0
}

// rehash rebuilds the table: doubled when genuinely full, at the same
// size when tombstones account for the pressure (churn workloads), so
// sustained delete/insert cycles stay O(1) amortized without growing.
// The same-size purge rebuilds in place (purge) and allocates nothing.
func (ix *Index) rehash() {
	if ix.n < ix.growAt/2 {
		ix.purge()
		return
	}
	groups := 2 * (ix.gmask + 1)
	oldCtrl, oldKeys, oldVals := ix.ctrl, ix.keys, ix.vals
	slots := groups * groupSize
	ix.ctrl = make([]uint8, slots)
	for i := range ix.ctrl {
		ix.ctrl[i] = ctrlEmpty
	}
	ix.keys = make([]netaddr6.U128, slots)
	ix.vals = make([]uint32, slots)
	ix.gmask = groups - 1
	ix.growAt = int(slots) * 7 / 8
	ix.dead = 0
	for s, c := range oldCtrl {
		if c&0x80 != 0 {
			continue
		}
		h := Hash(oldKeys[s])
		ns := ix.insertSlot(h)
		ix.ctrl[ns] = uint8(h & 0x7f)
		ix.keys[ns] = oldKeys[s]
		ix.vals[ns] = oldVals[s]
	}
}

// purge drops every tombstone and re-places the live entries in the
// arrays they are in (abseil's drop-deletes-without-resize). It first
// marks every tombstone empty and every live entry deleted — "still to
// place". Then each such entry goes to the first non-full slot of its
// probe chain, where every slot before it is full, so find reaches it:
// it stays put when that slot is in its own group, moves into an empty
// slot, or swaps with another entry still to place, which is then
// placed from its new slot. A full slot never empties, so a chain that
// ran through full slots when an entry was placed still does.
func (ix *Index) purge() {
	for i, c := range ix.ctrl {
		if c&0x80 != 0 {
			ix.ctrl[i] = ctrlEmpty
		} else {
			ix.ctrl[i] = ctrlDeleted
		}
	}
	ix.dead = 0
	for i := uint64(0); i < uint64(len(ix.ctrl)); i++ {
		if ix.ctrl[i] != ctrlDeleted {
			continue
		}
		h := Hash(ix.keys[i])
		ns := ix.insertSlot(h)
		if ns/groupSize == i/groupSize {
			ix.ctrl[i] = uint8(h & 0x7f)
			continue
		}
		moveTo := ix.ctrl[ns]
		ix.ctrl[ns] = uint8(h & 0x7f)
		if moveTo == ctrlEmpty {
			ix.keys[ns], ix.vals[ns] = ix.keys[i], ix.vals[i]
			ix.ctrl[i] = ctrlEmpty
			continue
		}
		// ns held an entry still to place: swap, and place it from i.
		ix.keys[ns], ix.keys[i] = ix.keys[i], ix.keys[ns]
		ix.vals[ns], ix.vals[i] = ix.vals[i], ix.vals[ns]
		i--
	}
}

// Range calls f for every entry in slot order (arbitrary; see the
// package doc) until f returns false. f may Delete the key it was
// called with; it must not insert.
func (ix *Index) Range(f func(k netaddr6.U128, v uint32) bool) {
	for s, c := range ix.ctrl {
		if c&0x80 == 0 {
			if !f(ix.keys[s], ix.vals[s]) {
				return
			}
		}
	}
}

// AppendKeysSorted appends every live key to dst in canonical
// (numeric, equivalently netip.Addr.Compare) order and returns the
// extended slice — the deterministic-iteration helper the
// snapshot/merge seams consume. The appended keys are sorted by
// netaddr6.SortByKey with counts as its counters, so a caller that
// reuses dst and counts across calls sorts without allocating.
func (ix *Index) AppendKeysSorted(dst []netaddr6.U128, counts *[]uint32) []netaddr6.U128 {
	start := len(dst)
	for s, c := range ix.ctrl {
		if c&0x80 == 0 {
			dst = append(dst, ix.keys[s])
		}
	}
	netaddr6.SortByKey(dst[start:], func(k netaddr6.U128) netaddr6.U128 { return k }, counts)
	return dst
}
