package u128idx

import (
	"math"
	"math/rand"
	"testing"

	"v6scan/internal/netaddr6"
)

// TestTableDifferential drives a Table[uint64] and a map reference
// through random Ref/Touch/Expire operations, each closed handle
// released, with last activity drawn across the whole axis including
// both ends, and checks lookups, values, last activity, Len, and that
// each Expire closes exactly the reference's idle entries.
func TestTableDifferential(t *testing.T) {
	type refEntry struct {
		val  uint64
		last int64
	}
	rng := rand.New(rand.NewSource(5))
	times := []int64{math.MinInt64, -1, 0, 1, 1000, 2000, 3000, math.MaxInt64 - 1, math.MaxInt64}
	for round := 0; round < 20; round++ {
		var tab Table[uint64]
		ref := map[netaddr6.U128]refEntry{}
		handles := map[netaddr6.U128]uint32{}
		expire := func(cutoff int64) {
			closed := map[netaddr6.U128]bool{}
			tab.Expire(cutoff, func(h uint32) {
				closed[tab.Key(h)] = true
				tab.Release(h)
			})
			for k, e := range ref {
				if due := cutoff == ExpireAll || e.last < cutoff; due != closed[k] {
					t.Fatalf("Expire(%d): key %v last %d closed=%v", cutoff, k, e.last, closed[k])
				}
				if closed[k] {
					delete(ref, k)
					delete(handles, k)
				}
			}
		}
		for op := 0; op < 2000; op++ {
			key := randomKey(rng, 64)
			at := times[rng.Intn(len(times))]
			switch rng.Intn(6) {
			case 0, 1:
				h, existed := tab.Ref(key, at)
				want, ok := ref[key]
				if existed != ok {
					t.Fatalf("Ref(%v) existed=%v, want %v", key, existed, ok)
				}
				if !ok {
					*tab.At(h) = uint64(op)
					want = refEntry{uint64(op), at}
					handles[key] = h
				} else if h != handles[key] {
					t.Fatalf("Ref(%v) = handle %d, want %d", key, h, handles[key])
				}
				ref[key] = want
			case 2:
				if h, ok := tab.Get(key); ok {
					tab.Touch(h, at)
					e := ref[key]
					e.last = max(e.last, at)
					ref[key] = e
				}
			case 3:
				// Release reaches a live entry only through Expire:
				// close key and every entry idle before it.
				if h, ok := tab.Get(key); ok {
					expire(closingCutoff(tab.Last(h)))
				}
			case 4:
				cutoff := times[rng.Intn(len(times))]
				if rng.Intn(4) == 0 {
					cutoff = ExpireAll
				}
				expire(cutoff)
			case 5:
				h, ok := tab.Get(key)
				e, want := ref[key]
				if ok != want {
					t.Fatalf("Get(%v) ok=%v, want %v", key, ok, want)
				}
				if ok && (*tab.At(h) != e.val || tab.Last(h) != e.last || tab.Key(h) != key) {
					t.Fatalf("entry %v = (%d, %d, %v), want (%d, %d)", key, *tab.At(h), tab.Last(h), tab.Key(h), e.val, e.last)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
			}
		}
	}
}

// TestTableHandlesAndPages: released handles are reused before new
// ones are carved, a released handle keeps its key until then, and
// values stay put across page growth.
func TestTableHandlesAndPages(t *testing.T) {
	var tab Table[int]
	first, _ := tab.Ref(netaddr6.U128{Lo: 1}, 5)
	p := tab.At(first)
	*p = 7
	for i := 2; i <= 3*pageSize; i++ {
		tab.Ref(netaddr6.U128{Lo: uint64(i)}, 10)
	}
	if tab.At(first) != p || *p != 7 {
		t.Fatal("value moved across page growth")
	}
	tab.Expire(6, func(h uint32) {
		if h != first {
			t.Fatalf("Expire(6) closed handle %d, want only %d", h, first)
		}
		tab.Release(h)
	})
	if k := tab.Key(first); k != (netaddr6.U128{Lo: 1}) {
		t.Fatalf("released handle's Key = %v, want the key it held", k)
	}
	if h, existed := tab.Ref(netaddr6.U128{Lo: 99999}, 20); existed || h != first || tab.Last(h) != 20 {
		t.Fatalf("Ref after Release = handle %d (existed %v, last %d), want reused %d", h, existed, tab.Last(h), first)
	}
	if k := tab.Key(first); k != (netaddr6.U128{Lo: 99999}) {
		t.Fatalf("reused handle's Key = %v, want the new key", k)
	}
}

// closingCutoff is the Expire cutoff just past last: it closes an
// entry whose last activity is last, and every entry idle before it.
func closingCutoff(last int64) int64 {
	if last == math.MaxInt64 {
		return ExpireAll
	}
	return last + 1
}

func TestCutoff(t *testing.T) {
	for _, c := range []struct{ now, timeout, want int64 }{
		{1000, 100, 900},
		{math.MinInt64 + 100, 100, math.MinInt64},
		{math.MinInt64 + 99, 100, math.MinInt64},
		{math.MinInt64, 0, math.MinInt64},
		{math.MaxInt64, 1, math.MaxInt64 - 1},
	} {
		if got := Cutoff(c.now, c.timeout); got != c.want {
			t.Errorf("Cutoff(%d, %d) = %d, want %d", c.now, c.timeout, got, c.want)
		}
	}
}
