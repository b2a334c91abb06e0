package u128idx

import (
	"math"

	"v6scan/internal/netaddr6"
)

// ExpireAll is the Expire cutoff that closes every live entry,
// whatever its last activity — including one active at the final
// instant of the time axis, which no ordinary cutoff is above. It is
// also the last-column value of a free handle.
const ExpireAll int64 = math.MaxInt64

// pageShift sets the page granularity (512 entries per page): large
// enough to amortize page allocation to noise, small enough that a
// mostly idle table does not strand much memory.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
)

// Table is a keyed state table: an Index from key to u32 handle, and
// per handle the key, a value of type T and the last activity, an
// int64 on an ordered time axis the owner chooses (the detector and
// the IDS use checkpoint.EncodeTime's). Keys and values live in pages
// that never move, so a *T stays valid while other entries are
// inserted, and released handles are reused through a free list. The
// table never resets a value: Ref may hand out a released handle's T
// as its owner left it, so owners empty a value before releasing it
// (and can keep its emptied containers for the next entry).
//
// Idle entries close through one sweep, Expire, which reads only the
// dense last column and skips even that while a conservative bound on
// the oldest live activity shows nothing is due. The zero value is an
// empty table ready for use. Not safe for concurrent use.
type Table[T any] struct {
	idx   Index
	pages [][]entry[T]
	last  []int64 // by handle; ExpireAll for free handles
	free  []uint32
	// oldest is at most every live entry's last activity. Activity
	// only moves an entry's last forward, so the bound stays valid
	// until Expire tightens it.
	oldest int64
}

// entry is one handle's page slot.
type entry[T any] struct {
	key netaddr6.U128
	val T
}

func (t *Table[T]) slot(h uint32) *entry[T] { return &t.pages[h>>pageShift][h&(pageSize-1)] }

// Len returns the number of live entries.
func (t *Table[T]) Len() int { return t.idx.Len() }

// At returns the value of handle h.
func (t *Table[T]) At(h uint32) *T { return &t.slot(h).val }

// Key returns the key of live handle h.
func (t *Table[T]) Key(h uint32) netaddr6.U128 { return t.slot(h).key }

// Last returns the last activity of live handle h.
func (t *Table[T]) Last(h uint32) int64 { return t.last[h] }

// Touch moves h's last activity forward to at; an earlier at is a
// no-op.
func (t *Table[T]) Touch(h uint32, at int64) { t.last[h] = max(t.last[h], at) }

// Get looks up the handle of key.
func (t *Table[T]) Get(key netaddr6.U128) (uint32, bool) { return t.idx.GetH(Hash(key), key) }

// Ref returns key's handle, inserting the key with last activity at
// when absent (existed reports which): lookup and admission in one
// probe. An existing entry's last activity is unchanged.
func (t *Table[T]) Ref(key netaddr6.U128, at int64) (h uint32, existed bool) {
	vp, existed := t.idx.RefH(Hash(key), key)
	if existed {
		return *vp, true
	}
	if n := len(t.free) - 1; n >= 0 {
		h = t.free[n]
		t.free = t.free[:n]
		t.last[h] = at
	} else {
		h = uint32(len(t.last))
		if len(t.last) == len(t.pages)<<pageShift {
			t.pages = append(t.pages, make([]entry[T], pageSize))
		}
		t.last = append(t.last, at)
	}
	t.slot(h).key = key
	if t.idx.Len() == 1 {
		t.oldest = at
	} else {
		t.oldest = min(t.oldest, at)
	}
	*vp = h
	return h, false
}

// Release removes live handle h's key and returns the handle to the
// free list. Its value is left as is (see Table).
func (t *Table[T]) Release(h uint32) {
	t.idx.Delete(t.slot(h).key)
	t.last[h] = ExpireAll
	t.free = append(t.free, h)
}

// Range calls f for every live entry in arbitrary order until f
// returns false. f must not insert or release.
func (t *Table[T]) Range(f func(key netaddr6.U128, h uint32) bool) { t.idx.Range(f) }

// Cutoff returns the Expire cutoff for a clock reading now and an idle
// timeout: now − timeout, saturating at the start of the axis. An entry
// is idle when now − last > timeout, that is when last < cutoff.
func Cutoff(now, timeout int64) int64 {
	if now < math.MinInt64+timeout {
		return math.MinInt64
	}
	return now - timeout
}

// Expire calls f for every live entry whose last activity is before
// cutoff — for ExpireAll, every live entry — and from then on treats
// it as closed. f must not insert, and must Release h before the next
// insertion. The sweep reads only the dense last column and visits an
// entry's page only when it is due.
func (t *Table[T]) Expire(cutoff int64, f func(h uint32)) {
	if t.idx.Len() == 0 {
		return
	}
	if cutoff == ExpireAll {
		// Free handles share that last value with entries active at the
		// final instant, so the drain walks the index, which holds only
		// live entries.
		t.idx.Range(func(_ netaddr6.U128, h uint32) bool {
			f(h)
			return true
		})
		return
	}
	if t.oldest >= cutoff {
		return // even the stalest entry is not due
	}
	oldest := ExpireAll
	for h, last := range t.last {
		if last >= cutoff {
			oldest = min(oldest, last)
			continue
		}
		f(uint32(h))
	}
	t.oldest = oldest
}
