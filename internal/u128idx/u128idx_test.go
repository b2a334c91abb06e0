package u128idx

import (
	"math/rand"
	"sort"
	"testing"

	"v6scan/internal/netaddr6"
)

// refModel drives an Index and a map[U128]uint32 through the same
// operation sequence and asserts equivalence after every step.
type refModel struct {
	t   *testing.T
	ix  *Index
	ref map[netaddr6.U128]uint32
}

func newModel(t *testing.T, hint int) *refModel {
	return &refModel{t: t, ix: NewIndex(hint), ref: make(map[netaddr6.U128]uint32)}
}

func (m *refModel) put(k netaddr6.U128, v uint32) {
	m.t.Helper()
	_, wantExisted := m.ref[k]
	p, existed := m.ix.Ref(k)
	if existed != wantExisted {
		m.t.Fatalf("Ref(%v) existed=%v, want %v", k, existed, wantExisted)
	}
	*p = v
	m.ref[k] = v
}

func (m *refModel) del(k netaddr6.U128) {
	m.t.Helper()
	want, wantOK := m.ref[k]
	got, ok := m.ix.Delete(k)
	if ok != wantOK || (ok && got != want) {
		m.t.Fatalf("Delete(%v) = %d,%v, want %d,%v", k, got, ok, want, wantOK)
	}
	delete(m.ref, k)
}

func (m *refModel) get(k netaddr6.U128) {
	m.t.Helper()
	want, wantOK := m.ref[k]
	got, ok := m.ix.Get(k)
	if ok != wantOK || (ok && got != want) {
		m.t.Fatalf("Get(%v) = %d,%v, want %d,%v", k, got, ok, want, wantOK)
	}
}

func (m *refModel) reset() {
	m.ix.Reset()
	clear(m.ref)
}

// check verifies full equivalence: length, membership both ways, and
// canonical iteration order.
func (m *refModel) check() {
	m.t.Helper()
	if m.ix.Len() != len(m.ref) {
		m.t.Fatalf("Len = %d, want %d", m.ix.Len(), len(m.ref))
	}
	seen := 0
	m.ix.Range(func(k netaddr6.U128, v uint32) bool {
		want, ok := m.ref[k]
		if !ok {
			m.t.Fatalf("Range yielded absent key %v", k)
		}
		if v != want {
			m.t.Fatalf("Range %v = %d, want %d", k, v, want)
		}
		seen++
		return true
	})
	if seen != len(m.ref) {
		m.t.Fatalf("Range yielded %d entries, want %d", seen, len(m.ref))
	}
	wantKeys := make([]netaddr6.U128, 0, len(m.ref))
	for k := range m.ref {
		wantKeys = append(wantKeys, k)
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i].Cmp(wantKeys[j]) < 0 })
	gotKeys := m.ix.AppendKeysSorted(nil, nil)
	if len(gotKeys) != len(wantKeys) {
		m.t.Fatalf("AppendKeysSorted: %d keys, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			m.t.Fatalf("AppendKeysSorted[%d] = %v, want %v", i, gotKeys[i], wantKeys[i])
		}
	}
}

// randomKey draws from a small key space so the sequence revisits keys
// (exercising updates, deletes of live keys, and tombstone reuse).
func randomKey(rng *rand.Rand, space int) netaddr6.U128 {
	n := uint64(rng.Intn(space))
	switch rng.Intn(3) {
	case 0: // /128-style: varying low bits
		return netaddr6.U128{Hi: 0x20010db800000000, Lo: n}
	case 1: // masked-prefix-style: varying high bits, zero low
		return netaddr6.U128{Hi: 0x2001000000000000 | n<<16, Lo: 0}
	default: // adversarial-ish: both halves correlated
		return netaddr6.U128{Hi: n, Lo: n}
	}
}

// TestIndexDifferentialRandomOps is the property test of record: random
// insert/update/delete/get/reset sequences against the map model, at
// hint sizes spanning the growth schedule.
func TestIndexDifferentialRandomOps(t *testing.T) {
	for _, hint := range []int{0, 1, 7, 64, 1024} {
		rng := rand.New(rand.NewSource(int64(hint)*7919 + 1))
		m := newModel(t, hint)
		for step := 0; step < 20_000; step++ {
			k := randomKey(rng, 512)
			switch op := rng.Intn(10); {
			case op < 5:
				m.put(k, uint32(step))
			case op < 7:
				m.del(k)
			case op < 9:
				m.get(k)
			default:
				if rng.Intn(200) == 0 {
					m.reset()
				}
			}
			if step%997 == 0 {
				m.check()
			}
		}
		m.check()
	}
}

// TestIndexChurnRehashesInPlace drives sustained delete/insert cycles
// over a fixed-size working set: tombstone pressure must trigger
// same-size rehashes, not unbounded growth.
func TestIndexChurnRehashesInPlace(t *testing.T) {
	if debugTinyCap {
		t.Skip("capacity schedule intentionally perturbed by U128IDX_DEBUG_TINYCAP")
	}
	ix := NewIndex(64)
	keys := make([]netaddr6.U128, 64)
	for i := range keys {
		keys[i] = netaddr6.U128{Hi: uint64(i), Lo: ^uint64(i)}
	}
	for i, k := range keys {
		ix.Put(k, uint32(i))
	}
	capBefore := ix.Cap()
	for cycle := 0; cycle < 10_000; cycle++ {
		k := keys[cycle%len(keys)]
		if _, ok := ix.Delete(k); !ok {
			t.Fatalf("cycle %d: key missing", cycle)
		}
		ix.Put(k, uint32(cycle))
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(keys))
	}
	if ix.Cap() > capBefore*2 {
		t.Fatalf("churn grew table from %d to %d slots; tombstones not reclaimed", capBefore, ix.Cap())
	}
}

// TestIndexPurgeInPlace: under churn at a steady working set, the
// same-size rehash that clears tombstones rebuilds in the index's own
// arrays — three purges allocate nothing — and every live key stays
// reachable with its value.
func TestIndexPurgeInPlace(t *testing.T) {
	key := func(i uint64) netaddr6.U128 {
		z := i * 0x9e3779b97f4a7c15
		return netaddr6.U128{Hi: z ^ z>>29, Lo: i}
	}
	const live = 440 // below half of a 1024-slot index's threshold
	ix := NewIndex(896)
	var oldest, next uint64
	for ; next < live; next++ {
		ix.Put(key(next), uint32(next))
	}
	// churn replaces the oldest key with a fresh one until the index
	// has purged n times, and returns its slot count.
	churn := func(n int) int {
		for cycle := 0; n > 0; cycle++ {
			if cycle == 1_000_000 {
				t.Fatalf("no purge in %d cycles", cycle)
			}
			ix.Delete(key(oldest))
			oldest++
			dead := ix.dead
			ix.Put(key(next), uint32(next))
			next++
			if dead > 1 && ix.dead == 0 {
				n--
			}
		}
		return ix.Cap()
	}
	capBefore := churn(1) // reach the working-set size
	// AllocsPerRun runs at GOMAXPROCS 1 and discards a warm-up run, so
	// it measures three purges without counting other goroutines'
	// allocations.
	var capAfter int
	allocs := testing.AllocsPerRun(3, func() { capAfter = churn(1) })
	if capAfter != capBefore {
		t.Fatalf("churn at %d live keys grew the index from %d to %d slots", live, capBefore, capAfter)
	}
	if allocs != 0 {
		t.Errorf("same-size purges allocated %.1f times each", allocs)
	}
	if ix.Len() != live {
		t.Fatalf("Len = %d, want %d", ix.Len(), live)
	}
	for i := oldest; i < next; i++ {
		if v, ok := ix.Get(key(i)); !ok || v != uint32(i) {
			t.Fatalf("key %d: got %d, %v", i, v, ok)
		}
	}
}

// TestIndexRangeDeleteCurrent exercises the documented delete-during-
// Range contract the eviction sweeps rely on.
func TestIndexRangeDeleteCurrent(t *testing.T) {
	ix := NewIndex(0)
	const n = 1000
	for i := 0; i < n; i++ {
		ix.Put(netaddr6.U128{Hi: uint64(i) * 0x9e3779b9, Lo: uint64(i)}, uint32(i))
	}
	ix.Range(func(k netaddr6.U128, v uint32) bool {
		if v%2 == 0 {
			if _, ok := ix.Delete(k); !ok {
				t.Fatalf("delete of current key %v failed", k)
			}
		}
		return true
	})
	if ix.Len() != n/2 {
		t.Fatalf("Len = %d after deleting evens, want %d", ix.Len(), n/2)
	}
	ix.Range(func(k netaddr6.U128, v uint32) bool {
		if v%2 == 0 {
			t.Fatalf("even entry %d survived", v)
		}
		return true
	})
}

// TestIndexRefPointerWrite verifies the single-probe read-modify-write
// pattern the detector hot path uses.
func TestIndexRefPointerWrite(t *testing.T) {
	ix := NewIndex(0)
	k := netaddr6.U128{Hi: 1, Lo: 2}
	p, existed := ix.Ref(k)
	if existed {
		t.Fatal("fresh key reported existing")
	}
	if *p != 0 {
		t.Fatalf("fresh slot = %d, want 0", *p)
	}
	*p = 42
	if v, ok := ix.Get(k); !ok || v != 42 {
		t.Fatalf("Get = %d,%v, want 42,true", v, ok)
	}
	p2, existed := ix.Ref(k)
	if !existed || *p2 != 42 {
		t.Fatalf("re-Ref = %d,%v, want 42,true", *p2, existed)
	}
}

// TestSetDifferential drives Set through random adds/resets against a
// map model, crossing the spill threshold both ways via Reset.
func TestSetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s Set
	ref := make(map[netaddr6.U128]struct{})
	check := func() {
		t.Helper()
		if s.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
		}
		got := s.AppendSorted(nil, nil)
		want := make([]netaddr6.U128, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Cmp(want[j]) < 0 })
		if len(got) != len(want) {
			t.Fatalf("AppendSorted: %d members, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("AppendSorted[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
	for step := 0; step < 30_000; step++ {
		k := randomKey(rng, 300)
		switch {
		case rng.Intn(100) == 0:
			s.Reset()
			clear(ref)
		default:
			_, existed := ref[k]
			if added := s.Add(k); added != !existed {
				t.Fatalf("Add(%v) = %v with map existing=%v", k, added, existed)
			}
			ref[k] = struct{}{}
			if s.Contains(k) != true {
				t.Fatalf("Contains(%v) = false after Add", k)
			}
		}
		if step%613 == 0 {
			check()
		}
	}
	check()
}

// TestSetSpillBoundary pins the inline→spilled transition exactly at
// SmallSetSpill and membership integrity across it.
func TestSetSpillBoundary(t *testing.T) {
	var s Set
	for i := 0; i < SmallSetSpill; i++ {
		s.Add(netaddr6.U128{Lo: uint64(i)})
	}
	if s.idx.Len() > 0 {
		t.Fatalf("spilled at %d members; inline bound is %d", s.Len(), SmallSetSpill)
	}
	s.Add(netaddr6.U128{Lo: uint64(SmallSetSpill)})
	if s.idx.Len() != SmallSetSpill+1 {
		t.Fatalf("no spill past the bound (idx.Len=%d)", s.idx.Len())
	}
	for i := 0; i <= SmallSetSpill; i++ {
		if !s.Contains(netaddr6.U128{Lo: uint64(i)}) {
			t.Fatalf("member %d lost across spill", i)
		}
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Reset", s.Len())
	}
	if !s.Add(netaddr6.U128{Lo: 7}) || s.Len() != 1 {
		t.Fatal("post-Reset Add broken")
	}
	// Back on the inline path after Reset.
	if len(s.small) != 1 {
		t.Fatalf("post-Reset inline array has %d members, want 1", len(s.small))
	}
}
