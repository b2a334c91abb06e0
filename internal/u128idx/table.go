package u128idx

import (
	"math"

	"v6scan/internal/netaddr6"
)

// ExpireAll is the Expire cutoff that closes every live entry,
// whatever its last activity — including one active at the final
// instant of the time axis, which no ordinary cutoff is above.
const ExpireAll int64 = math.MaxInt64

// pageShift sets the page granularity (512 entries per page): large
// enough to amortize page allocation to noise, small enough that a
// mostly idle table does not strand much memory.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
)

// The expiry wheel's geometry: a bucket spans 2^bucketShift ns (≈17 s)
// of the time axis, and the ring holds ringSize buckets (≈73 min, just
// over the engines' one-hour timeout). Both are cost settings only:
// Expire is exact at every width and ring size. A narrower bucket
// re-files fewer not-yet-due entries per sweep but walks more empty
// buckets; a ring shorter than the timeout makes live entries alias
// into due buckets, which Expire re-files rather than misses.
const (
	bucketShift = 34
	ringSize    = 256
	ringMask    = ringSize - 1
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
// Idle entries close through one sweep, Expire, over a hashed timing
// wheel (Varghese and Lauck, SOSP 1987): each live handle is filed in
// a ring of coarse time buckets, on intrusive links beside its last
// activity, under the bucket of its last activity when it was filed.
// Touch only moves the activity forward and leaves the handle where it
// is, so a handle never sits in a bucket later than its activity's;
// Expire visits only the buckets up to the cutoff's and re-files the
// handles there that have moved on. A sweep costs what is due plus
// what was touched since it was filed, not what is resident. Each
// handle also keeps its index slot, so Release deletes its key without
// a probe. The zero value is an empty table ready for use. Not safe
// for concurrent use.
type Table[T any] struct {
	idx   Index
	pages [][]entry[T]
	// nodes holds the wheel: nodes[:ringSize] are the buckets' list
	// heads, nodes[ringSize+h] is handle h's last activity, links and
	// index slot.
	// Lists are circular through their head, and a handle on no list
	// (free, or closed by Expire and not yet released) links to itself.
	nodes []node
	free  []uint32
	// stale reports that a rehash moved the index's entries since the
	// nodes' slots were last brought up to date (resync).
	stale bool
	// cur is the wheel's position, an absolute bucket number (last
	// activity >> bucketShift): every filed handle sits under a bucket
	// at or after cur and at or before its last activity's.
	cur int64
}

// entry is one handle's page slot.
type entry[T any] struct {
	key netaddr6.U128
	val T
}

// node is one wheel node: a handle's last activity, its list links
// (node indices) and its index slot, so Release deletes the key without
// probing for it.
type node struct {
	last       int64
	next, prev uint32
	slot       uint32
}

func (t *Table[T]) slot(h uint32) *entry[T] { return &t.pages[h>>pageShift][h&(pageSize-1)] }

// Len returns the number of live entries.
func (t *Table[T]) Len() int { return t.idx.Len() }

// At returns the value of handle h.
func (t *Table[T]) At(h uint32) *T { return &t.slot(h).val }

// Key returns the key of live handle h.
func (t *Table[T]) Key(h uint32) netaddr6.U128 { return t.slot(h).key }

// Last returns the last activity of live handle h.
func (t *Table[T]) Last(h uint32) int64 { return t.nodes[ringSize+h].last }

// Touch moves h's last activity forward to at; an earlier at is a
// no-op. The handle stays in its bucket until Expire visits it.
func (t *Table[T]) Touch(h uint32, at int64) {
	n := &t.nodes[ringSize+h]
	n.last = max(n.last, at)
}

// Get looks up the handle of key.
func (t *Table[T]) Get(key netaddr6.U128) (uint32, bool) { return t.idx.GetH(Hash(key), key) }

// Ref returns key's handle, inserting the key with last activity at
// when absent (existed reports which): lookup and admission in one
// probe. An existing entry's last activity is unchanged.
func (t *Table[T]) Ref(key netaddr6.U128, at int64) (h uint32, existed bool) {
	s, existed, moved := t.idx.refSlot(Hash(key), key)
	if existed {
		return t.idx.vals[s], true
	}
	t.stale = t.stale || moved
	if len(t.nodes) == 0 {
		t.nodes = make([]node, ringSize, ringSize+pageSize)
		for i := range uint32(ringSize) {
			t.nodes[i].next, t.nodes[i].prev = i, i
		}
	}
	if n := len(t.free) - 1; n >= 0 {
		h = t.free[n]
		t.free = t.free[:n]
	} else {
		h = uint32(len(t.nodes) - ringSize)
		if int(h) == len(t.pages)<<pageShift {
			t.pages = append(t.pages, make([]entry[T], pageSize))
		}
		t.nodes = append(t.nodes, node{})
	}
	t.slot(h).key = key
	if b := at >> bucketShift; b < t.cur || t.idx.Len() == 1 {
		t.cur = b // nothing else is filed below b
	}
	t.nodes[ringSize+h].last = at
	t.nodes[ringSize+h].slot = uint32(s)
	t.file(ringSize+h, at)
	t.idx.vals[s] = h
	return h, false
}

// Release removes live handle h's key, unlinks it from the wheel and
// returns the handle to the free list. Its value is left as is (see
// Table).
func (t *Table[T]) Release(h uint32) {
	if t.stale {
		t.resync()
	}
	t.idx.deleteSlot(int(t.nodes[ringSize+h].slot))
	t.unlink(ringSize + h)
	t.free = append(t.free, h)
}

// resync records every live handle's index slot after a rehash moved
// them: O(capacity), once per rehash, which costs as much.
func (t *Table[T]) resync() {
	for s, c := range t.idx.ctrl {
		if c&0x80 == 0 {
			t.nodes[ringSize+t.idx.vals[s]].slot = uint32(s)
		}
	}
	t.stale = false
}

// file links node n at the head of the bucket of activity at.
func (t *Table[T]) file(n uint32, at int64) {
	b := uint32(at >> bucketShift & ringMask)
	first := t.nodes[b].next
	t.nodes[n].next, t.nodes[n].prev = first, b
	t.nodes[first].prev = n
	t.nodes[b].next = n
}

// unlink takes node n off its list in O(1) and links it to itself; a
// node on no list stays as it is.
func (t *Table[T]) unlink(n uint32) {
	next, prev := t.nodes[n].next, t.nodes[n].prev
	t.nodes[prev].next = next
	t.nodes[next].prev = prev
	t.nodes[n].next, t.nodes[n].prev = n, n
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
// insertion. The sweep visits only the wheel buckets from its position
// to the cutoff's (each at most once, so the whole ring when the
// cutoff is a ring or more ahead): a handle there whose last activity
// is before cutoff closes, the others are re-filed under their current
// activity. Visit order is the wheel's, not the keys'.
func (t *Table[T]) Expire(cutoff int64, f func(h uint32)) {
	if t.idx.Len() == 0 {
		return
	}
	if cutoff == ExpireAll {
		// No cutoff is above an entry active at the final instant, so
		// the drain walks the index, which holds every live entry, and
		// empties the ring.
		for b := range uint32(ringSize) {
			t.nodes[b].next, t.nodes[b].prev = b, b
		}
		t.idx.Range(func(_ netaddr6.U128, h uint32) bool {
			t.nodes[ringSize+h].next, t.nodes[ringSize+h].prev = ringSize+h, ringSize+h
			f(h)
			return true
		})
		return
	}
	end := max(cutoff>>bucketShift, t.cur)
	k := t.cur
	if end-k >= ringSize {
		k = end - ringSize + 1
	}
	// A handle the loop leaves filed is not due, so its activity's
	// bucket is end or later.
	t.cur = end
	for ; k <= end; k++ {
		b := uint32(k & ringMask)
		n := t.nodes[b].next
		if n == b {
			continue
		}
		// Detach the bucket's list; its last node still links to b.
		t.nodes[b].next, t.nodes[b].prev = b, b
		for n != b {
			nd := &t.nodes[n]
			next, last := nd.next, nd.last
			nd.next, nd.prev = n, n
			if last < cutoff {
				f(n - ringSize)
			} else {
				t.file(n, last)
			}
			n = next
		}
	}
}
