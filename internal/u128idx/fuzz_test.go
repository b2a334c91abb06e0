package u128idx

import (
	"encoding/binary"
	"math"
	"testing"

	"v6scan/internal/netaddr6"
)

// FuzzU128Idx interprets the fuzz input as an op tape against a map
// model: each 3-byte step is (op, keylo, keyhi-ish) over a compact key
// space so the tape revisits keys. Runs in the CI fuzz smoke step.
func FuzzU128Idx(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 0, 2, 1, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 2, 0, 0, 1, 0, 0})
	seed := make([]byte, 0, 3*200)
	for i := 0; i < 200; i++ {
		seed = append(seed, byte(i%5), byte(i), byte(i>>3))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ix := NewIndex(0)
		ref := make(map[netaddr6.U128]uint32)
		var step uint32
		for len(data) >= 3 {
			op, b1, b2 := data[0], data[1], data[2]
			data = data[3:]
			step++
			// Two correlated key families so h2 fragments collide
			// within groups now and then.
			k := netaddr6.U128{Hi: uint64(b2 & 3), Lo: uint64(b1)}
			switch op % 5 {
			case 0, 1: // insert/update via Ref
				_, wantExisted := ref[k]
				p, existed := ix.Ref(k)
				if existed != wantExisted {
					t.Fatalf("Ref(%v) existed=%v, want %v", k, existed, wantExisted)
				}
				*p = step
				ref[k] = step
			case 2: // delete
				want, wantOK := ref[k]
				got, ok := ix.Delete(k)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("Delete(%v) = %d,%v, want %d,%v", k, got, ok, want, wantOK)
				}
				delete(ref, k)
			case 3: // lookup
				want, wantOK := ref[k]
				got, ok := ix.Get(k)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("Get(%v) = %d,%v, want %d,%v", k, got, ok, want, wantOK)
				}
			case 4: // occasional reset
				if b1%32 == 0 {
					ix.Reset()
					clear(ref)
				}
			}
		}
		if ix.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", ix.Len(), len(ref))
		}
		for k, want := range ref {
			got, ok := ix.Get(k)
			if !ok || got != want {
				t.Fatalf("final Get(%v) = %d,%v, want %d,true", k, got, ok, want)
			}
		}
		// Canonical iteration must be sorted and complete.
		keys := ix.AppendKeysSorted(nil, nil)
		if len(keys) != len(ref) {
			t.Fatalf("AppendKeysSorted: %d keys, want %d", len(keys), len(ref))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1].Cmp(keys[i]) >= 0 {
				t.Fatalf("keys out of order at %d: %v >= %v", i, keys[i-1], keys[i])
			}
		}
	})
}

// FuzzHashConsistency checks Hash is a pure function of the key bytes
// and that Put/Get round-trip for arbitrary 128-bit keys (wide key
// space, unlike FuzzU128Idx's compact one).
func FuzzHashConsistency(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(1), uint64(1))
	f.Add(^uint64(0), ^uint64(0), uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, ahi, alo, bhi, blo uint64) {
		a := netaddr6.U128{Hi: ahi, Lo: alo}
		b := netaddr6.U128{Hi: bhi, Lo: blo}
		if Hash(a) != Hash(a) {
			t.Fatal("Hash not deterministic")
		}
		if a == b && Hash(a) != Hash(b) {
			t.Fatal("equal keys, unequal hashes")
		}
		ix := NewIndex(0)
		ix.Put(a, 1)
		ix.Put(b, 2)
		wantA := uint32(1)
		if a == b {
			wantA = 2
		}
		if got, ok := ix.Get(a); !ok || got != wantA {
			t.Fatalf("Get(a) = %d,%v, want %d,true", got, ok, wantA)
		}
		if got, ok := ix.Get(b); !ok || got != 2 {
			t.Fatalf("Get(b) = %d,%v, want 2,true", got, ok)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], Hash(a))
		_ = buf
	})
}

// FuzzTable is the fuzz form of TestTableDifferential: a Table[uint64]
// against a map model, op for op, on random Ref/Touch/Release/Expire
// tapes. Each 3-byte step is (op, key, time). A time byte picks one of
// fuzzTimes — both ends of the axis, bucket and ring boundaries — or,
// with its high bit set, a time near a moving clock that another op
// advances by up to a ring. Expire closes exactly the model's idle
// entries, whether the callback releases each handle at once or the
// caller releases them after the sweep. Runs in the CI fuzz smoke
// step.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 5, 2, 1, 15, 4, 0, 6, 5, 1, 0, 3, 2, 0, 4, 9, 14})
	f.Add([]byte{0, 1, 0x80, 6, 200, 0, 0, 2, 0x81, 2, 1, 0xbf, 6, 255, 0, 7, 60, 0, 5, 1, 0, 7, 1, 0})
	seed := make([]byte, 0, 3*300)
	for i := 0; i < 300; i++ {
		seed = append(seed, byte(i*7%8), byte(i*13), byte(0x80|i*5))
	}
	f.Add(seed)
	f.Fuzz(runTableTape)
}

// runTableTape is FuzzTable's body.
func runTableTape(t *testing.T, data []byte) {
	type refEntry struct {
		val  uint64
		last int64
	}
	var tab Table[uint64]
	ref := map[netaddr6.U128]refEntry{}
	var clock int64
	expire := func(cutoff int64, deferRelease bool) {
		closed := map[netaddr6.U128]uint32{}
		tab.Expire(cutoff, func(h uint32) {
			k := tab.Key(h)
			if _, dup := closed[k]; dup {
				t.Fatalf("Expire(%d) closed %v twice", cutoff, k)
			}
			closed[k] = h
			if !deferRelease {
				tab.Release(h)
			}
		})
		for k, e := range ref {
			_, got := closed[k]
			if due := cutoff == ExpireAll || e.last < cutoff; due != got {
				t.Fatalf("Expire(%d): key %v last %d closed=%v", cutoff, k, e.last, got)
			}
			if got {
				delete(ref, k)
			}
		}
		if len(closed) > 0 && deferRelease {
			for _, h := range closed {
				tab.Release(h)
			}
		}
	}
	for step := uint64(0); len(data) >= 3; step++ {
		op, kb, tb := data[0], data[1], data[2]
		data = data[3:]
		key := netaddr6.U128{Hi: uint64(kb >> 5), Lo: uint64(kb)}
		at := fuzzTimes[tb&15]
		if tb&0x80 != 0 {
			at = satAdd(clock, int64(int8(tb<<1)>>1)<<(bucketShift-2))
		}
		switch op % 8 {
		case 0, 1:
			h, existed := tab.Ref(key, at)
			want, ok := ref[key]
			if existed != ok {
				t.Fatalf("Ref(%v) existed=%v, want %v", key, existed, ok)
			}
			if !ok {
				*tab.At(h) = step
				want = refEntry{step, at}
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
			if h, ok := tab.Get(key); ok {
				tab.Release(h)
				delete(ref, key)
			}
		case 4:
			cutoff := at
			if kb%16 == 0 {
				cutoff = ExpireAll
			}
			expire(cutoff, kb&1 != 0)
		case 5:
			h, ok := tab.Get(key)
			e, want := ref[key]
			if ok != want {
				t.Fatalf("Get(%v) ok=%v, want %v", key, ok, want)
			}
			if ok && (*tab.At(h) != e.val || tab.Last(h) != e.last || tab.Key(h) != key) {
				t.Fatalf("entry %v = (%d, %d, %v), want (%d, %d)", key, *tab.At(h), tab.Last(h), tab.Key(h), e.val, e.last)
			}
		case 6:
			clock = satAdd(clock, int64(kb)<<bucketShift|int64(tb))
		case 7:
			// The engines' sweep: a cutoff one timeout behind the clock.
			expire(Cutoff(clock, int64(tb)<<bucketShift), kb&1 != 0)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
		}
	}
	expire(ExpireAll, false)
	if tab.Len() != 0 {
		t.Fatalf("Len after ExpireAll = %d", tab.Len())
	}
}

// fuzzTimes are FuzzTable's fixed times: both ends of the axis, and
// either side of bucket and ring boundaries.
var fuzzTimes = [16]int64{
	math.MinInt64, math.MinInt64 + 1, -ringSize << bucketShift, -1<<bucketShift - 1,
	-1, 0, 1, 1<<bucketShift - 1,
	1 << bucketShift, ringSize<<bucketShift - 1, ringSize << bucketShift, 2*ringSize<<bucketShift + 5,
	math.MaxInt64 - 1<<bucketShift, math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64,
}

// satAdd returns a+d clamped to the axis.
func satAdd(a, d int64) int64 {
	switch s := a + d; {
	case d > 0 && s < a:
		return math.MaxInt64
	case d < 0 && s > a:
		return math.MinInt64
	default:
		return s
	}
}
