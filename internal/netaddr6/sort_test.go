package netaddr6

import (
	"cmp"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"
)

// sortEntry is a gathered entry as the checkpoint cut sorts them: a key
// and a payload the sort must carry along.
type sortEntry struct {
	Key U128
	ID  uint64
	_   uint64
}

func entryKey(e sortEntry) U128 { return e.Key }

// sortTape builds a key set from a fuzz tape: a mode byte, a 16-bit
// length, a base key, a mask and a seed (missing bytes read as zero).
// Even modes draw base ^ (random & mask), odd modes shuffle
// base + i·step; nonzero mode bits 1–3 (k) draw the random part from a
// pool of 4^k values, so keys repeat.
func sortTape(data []byte) []sortEntry {
	var buf [43]byte
	copy(buf[:], data)
	mode := buf[0]
	n := int(binary.LittleEndian.Uint16(buf[1:3])) % 20000
	base := U128{Hi: binary.BigEndian.Uint64(buf[3:11]), Lo: binary.BigEndian.Uint64(buf[11:19])}
	mask := U128{Hi: binary.BigEndian.Uint64(buf[19:27]), Lo: binary.BigEndian.Uint64(buf[27:35])}
	seed := binary.LittleEndian.Uint64(buf[35:43])
	rng := rand.New(rand.NewPCG(seed, uint64(mode)))
	pool := uint64(1) << (2 * uint(mode>>1&7)) // 4^k draws; k = 0 draws freely
	out := make([]sortEntry, n)
	for i := range out {
		var k U128
		if mode&1 == 0 {
			r := rng
			if pool > 1 {
				r = rand.New(rand.NewPCG(seed, rng.Uint64N(pool)))
			}
			k = U128{Hi: base.Hi ^ r.Uint64()&mask.Hi, Lo: base.Lo ^ r.Uint64()&mask.Lo}
		} else {
			k = base.Add(uint64(i) * (mask.Lo | 1))
		}
		out[i] = sortEntry{Key: k, ID: uint64(i)}
	}
	if mode&1 == 1 {
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// sortSeed encodes one sortTape input.
func sortSeed(mode byte, n uint16, base, mask U128, seed uint64) []byte {
	b := []byte{mode}
	b = binary.LittleEndian.AppendUint16(b, n)
	b = binary.BigEndian.AppendUint64(b, base.Hi)
	b = binary.BigEndian.AppendUint64(b, base.Lo)
	b = binary.BigEndian.AppendUint64(b, mask.Hi)
	b = binary.BigEndian.AppendUint64(b, mask.Lo)
	return binary.LittleEndian.AppendUint64(b, seed)
}

// FuzzSortByKey checks SortByKey against slices.SortFunc on key sets
// built from the tape: the keys come out in the reference's order and
// every entry is still there once. One counters buffer serves a prefix
// sort and then the whole set, so stale counters are exercised too.
// Runs in the CI fuzz smoke step.
func FuzzSortByKey(f *testing.F) {
	all := U128{Hi: ^uint64(0), Lo: ^uint64(0)}
	base := U128{Hi: 0x20010db8_00000000, Lo: 0}
	var lengths []uint16
	// Around the small-sort cutoff and each digit width's first length.
	for _, n := range []uint16{0, 1, 2, sortCutoff - 1, sortCutoff, sortCutoff + 1} {
		lengths = append(lengths, n)
	}
	for w := uint(6); w <= 15; w++ {
		lengths = append(lengths, uint16(1)<<w-1, uint16(1)<<w)
	}
	for i, n := range lengths {
		f.Add(sortSeed(0, n, base, all, uint64(i)))
	}
	for _, c := range []struct {
		mode byte
		n    uint16
		mask U128
	}{
		{0, 3000, U128{Lo: 1}},                           // differ only in bit 127
		{0, 3000, U128{Hi: 1 << 63}},                     // differ only in bit 0
		{0, 3000, U128{}},                                // all equal
		{0, 3000, U128{Hi: 0xffff, Lo: ^uint64(0)}},      // inside one /48
		{0, 3000, U128{Hi: 1 << 63, Lo: 0xff}},           // one high bit splits the set
		{4, 3000, all},                                   // 16 distinct keys, duplicated
		{12, 5000, all},                                  // 4096 distinct keys among 5000
		{1, 5000, U128{}},                                // sequential low bits
		{1, 300, U128{Lo: 1 << 40}},                      // sequential with a wide step
		{0, 20000 - 1, U128{Hi: ^uint64(0) >> 1, Lo: 3}}, // bit 0 equal, bits 126, 127 vary
	} {
		f.Add(sortSeed(c.mode, c.n, base, c.mask, 7))
	}
	var counts []uint32
	f.Fuzz(func(t *testing.T, data []byte) {
		in := sortTape(data)
		want := slices.Clone(in)
		slices.SortFunc(want, func(a, b sortEntry) int { return a.Key.Cmp(b.Key) })

		got := slices.Clone(in)
		SortByKey(got[:len(got)/3], entryKey, &counts)
		SortByKey(got, entryKey, &counts)
		for i := range got {
			if got[i].Key != want[i].Key {
				t.Fatalf("n=%d: key %d is %v, want %v", len(got), i, got[i].Key, want[i].Key)
			}
		}
		byKeyID := func(a, b sortEntry) int {
			return cmp.Or(a.Key.Cmp(b.Key), cmp.Compare(a.ID, b.ID))
		}
		slices.SortFunc(got, byKeyID)
		slices.SortFunc(want, byKeyID)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: entries lost or duplicated", len(got))
		}
	})
}

// TestSortByKeyDeepChain sorts keys built to split off a few entries
// per radix level (one key for every fourth high bit, over a thousand
// keys that differ only in their low bits), so the sort reaches its
// depth bound and hands the last bucket to slices.SortFunc.
func TestSortByKeyDeepChain(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var in []sortEntry
	for i := range 1000 {
		in = append(in, sortEntry{Key: U128{Lo: rng.Uint64() & 0xffff}, ID: uint64(i)})
	}
	for b := 0; b < 112; b += 4 {
		in = append(in, sortEntry{Key: U128{}.SetBit(b, 1), ID: uint64(len(in))})
	}
	rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	want := slices.Clone(in)
	slices.SortFunc(want, func(a, b sortEntry) int { return a.Key.Cmp(b.Key) })
	SortByKey(in, entryKey, nil)
	for i := range in {
		if in[i].Key != want[i].Key {
			t.Fatalf("key %d is %v, want %v", i, in[i].Key, want[i].Key)
		}
	}
}

func TestSortByKeyNoAllocs(t *testing.T) {
	in := sortTape(sortSeed(0, 15000, U128{}, U128{Hi: ^uint64(0), Lo: ^uint64(0)}, 1))
	work := slices.Clone(in)
	var counts []uint32
	SortByKey(work, entryKey, &counts) // grow the counters once
	if allocs := testing.AllocsPerRun(5, func() {
		copy(work, in)
		SortByKey(work, entryKey, &counts)
	}); allocs != 0 {
		t.Fatalf("SortByKey with a warm buffer allocated %.0f times, want 0", allocs)
	}
}

// BenchmarkSortByKey sorts 15k checkpoint-sized entries of four key
// shapes with SortByKey (radix) and, beside it, slices.SortFunc over
// U128.Cmp (cmp). The radix runs reuse one warm counters buffer, so
// they must report zero allocs/op.
func BenchmarkSortByKey(b *testing.B) {
	const n = 15000
	all := U128{Hi: ^uint64(0), Lo: ^uint64(0)}
	base := U128{Hi: 0x20010db8_00000000, Lo: 0}
	shapes := []struct {
		name string
		tape []byte
	}{
		{"random", sortSeed(0, n, base, all, 1)},
		{"one48", sortSeed(0, n, base, U128{Hi: 0xffff, Lo: ^uint64(0)}, 1)},
		{"sequential", sortSeed(1, n, base, U128{}, 1)},
		{"highbit", sortSeed(0, n, base, U128{Hi: 1 << 63, Lo: 0xfff}, 1)},
	}
	for _, sh := range shapes {
		in := sortTape(sh.tape)
		work := make([]sortEntry, n)
		b.Run(sh.name+"/radix", func(b *testing.B) {
			var counts []uint32
			copy(work, in)
			SortByKey(work, entryKey, &counts)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				copy(work, in)
				SortByKey(work, entryKey, &counts)
			}
		})
		b.Run(sh.name+"/cmp", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				copy(work, in)
				slices.SortFunc(work, func(x, y sortEntry) int { return x.Key.Cmp(y.Key) })
			}
		})
	}
}
