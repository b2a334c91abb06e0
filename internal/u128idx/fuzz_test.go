package u128idx

import (
	"encoding/binary"
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
