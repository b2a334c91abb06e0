package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// TestKeyCountsAgainstMap drives keyCounts and a map[uint32]uint64
// through the same adds and compares every key and count, and
// eachSorted's order, after each step: across the inline→table spill,
// through table grows, and over several lives of one counter separated
// by reset, the way recycled sessions use it.
func TestKeyCountsAgainstMap(t *testing.T) {
	cases := []struct {
		name string
		keys int // distinct keys drawn from
		adds int
	}{
		{"one key", 1, 20},
		{"inline", countsInline, 200},
		{"just past the spill", countsInline + 1, 200},
		{"through grows", 8 * countsTableMin, 4000},
	}
	rng := rand.New(rand.NewSource(1))
	var c keyCounts
	for life := range 3 {
		for _, tc := range cases {
			c.reset()
			ref := map[uint32]uint64{}
			pool := make([]uint32, tc.keys)
			for i := range pool {
				pool[i] = rng.Uint32()
			}
			for i := range tc.adds {
				k, n := pool[rng.Intn(len(pool))], uint64(1+rng.Intn(3))
				c.add(k, n)
				ref[k] += n
				if i%97 == 0 || i == tc.adds-1 {
					checkCounts(t, tc.name, life, &c, ref)
				}
			}
		}
	}
	// A zero add holds no key.
	c.reset()
	c.add(7, 0)
	if c.len() != 0 {
		t.Fatalf("add of a zero count holds %d keys", c.len())
	}
}

func checkCounts(t *testing.T, name string, life int, c *keyCounts, ref map[uint32]uint64) {
	t.Helper()
	if c.len() != len(ref) {
		t.Fatalf("%s, life %d: len %d, want %d", name, life, c.len(), len(ref))
	}
	if spilled := c.used > 0; spilled != (len(ref) > countsInline) {
		t.Fatalf("%s, life %d: %d keys, spilled = %v", name, life, len(ref), spilled)
	}
	want := make([]uint32, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	slices.Sort(want)
	var sorted []uint32
	var scratch []countSlot
	c.eachSorted(&scratch, func(k uint32, n uint64) {
		if n != ref[k] {
			t.Fatalf("%s, life %d: key %#x counts %d, want %d", name, life, k, n, ref[k])
		}
		sorted = append(sorted, k)
	})
	if !slices.Equal(sorted, want) {
		t.Fatalf("%s, life %d: eachSorted order %v, want %v", name, life, sorted, want)
	}
}

// TestKeyCountsWideCounts: a count past 32 bits, reached by adds or
// restored whole, spills the counter and stays exact.
func TestKeyCountsWideCounts(t *testing.T) {
	const max32 = 1<<32 - 1
	for _, adds := range [][]uint64{{max32, 1}, {max32 - 1, 1, 1}, {1 << 40}, {3, 1 << 40, 5}} {
		var c keyCounts
		c.add(9, 4) // a second key, kept across the spill
		want := uint64(0)
		for _, n := range adds {
			c.add(7, n)
			want += n
		}
		var scratch []countSlot
		got := map[uint32]uint64{}
		c.eachSorted(&scratch, func(k uint32, n uint64) { got[k] = n })
		if len(got) != 2 || got[7] != want || got[9] != 4 {
			t.Errorf("adds %v: counts %v, want 7:%d 9:4", adds, got, want)
		}
		if spilled := c.used > 0; spilled != (want > max32) {
			t.Errorf("adds %v: spilled = %v", adds, spilled)
		}
	}
}

// TestKeyCountsKeyOrder checks that eachSorted visits the packed keys
// in the order Scan's slices and the snapshot promise: services in
// (proto, port) order and weeks, negative ones included, in sort.Ints
// order.
func TestKeyCountsKeyOrder(t *testing.T) {
	svcs := map[firewall.Service]uint64{}
	var ports keyCounts
	for i := range 40 {
		s := firewall.Service{
			Proto: []layers.IPProtocol{layers.ProtoTCP, layers.ProtoUDP, layers.ProtoICMPv6}[i%3],
			Port:  uint16(65535 - 1637*i),
		}
		svcs[s] += uint64(i + 1)
		ports.add(svcKey(s), uint64(i+1))
	}
	want := make([]PortCount, 0, len(svcs))
	for s, n := range svcs {
		want = append(want, PortCount{s, n})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Service.Proto != want[j].Service.Proto {
			return want[i].Service.Proto < want[j].Service.Proto
		}
		return want[i].Service.Port < want[j].Service.Port
	})
	var got []PortCount
	ports.eachSorted(new([]countSlot), func(k uint32, n uint64) { got = append(got, PortCount{keyService(k), n}) })
	if !slices.Equal(got, want) {
		t.Fatalf("ports iterate as %v, want %v", got, want)
	}

	weekList := []int{-1 << 31, -300, -2, -1, 0, 1, 2, 52, 1<<31 - 1}
	for _, spill := range []bool{false, true} {
		m := map[int]uint64{}
		var weeks keyCounts
		ws := weekList
		if spill {
			for w := -20; w < 20; w++ {
				ws = append(ws, w*7)
			}
		}
		for i, w := range ws {
			m[w] += uint64(i + 1)
			weeks.add(weekKey(int32(w)), uint64(i+1))
		}
		order := make([]int, 0, len(m))
		for w := range m {
			order = append(order, w)
		}
		sort.Ints(order)
		var got []int
		weeks.eachSorted(new([]countSlot), func(k uint32, n uint64) {
			if n != m[keyWeek(k)] {
				t.Fatalf("week %d counts %d, want %d", keyWeek(k), n, m[keyWeek(k)])
			}
			got = append(got, keyWeek(k))
		})
		if !slices.Equal(got, order) {
			t.Fatalf("spill=%v: weeks iterate as %v, want %v", spill, got, order)
		}
	}
}

// TestKeyCountsRecycledNoAllocs pins a recycled counter at zero
// allocations: reset keeps the spill table, so a session reopened
// under a used handle counts, and with a warm sort buffer snapshots,
// without allocating.
func TestKeyCountsRecycledNoAllocs(t *testing.T) {
	var c keyCounts
	var scratch []countSlot
	var sum uint64
	life := func() {
		c.reset()
		for k := range uint32(3 * countsInline) {
			c.add(k*2654435761, 1)
		}
		c.eachSorted(&scratch, func(_ uint32, n uint64) { sum += n })
	}
	life() // the first life allocates the table and the sort buffer
	if allocs := testing.AllocsPerRun(20, life); allocs != 0 {
		t.Fatalf("a recycled counter allocated %.0f times per life, want 0", allocs)
	}
}

// TestWeekCounterOnlyWhenWeekly pins the week counter's lazy
// allocation: without Config.WeekEpoch every session's week counter
// stays nil; with it, a handle gets one counter on its first record and
// keeps it, emptied, when its session times out and reopens.
func TestWeekCounterOnlyWhenWeekly(t *testing.T) {
	t0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	src := netaddr6.MustAddr("2001:db8::1")
	for _, weekly := range []bool{false, true} {
		cfg := Config{MinDsts: 2, Timeout: time.Minute, Levels: []netaddr6.AggLevel{netaddr6.Agg128}}
		if weekly {
			cfg.WeekEpoch = t0
		}
		d := NewDetector(cfg)
		var first *keyCounts
		for life := range 3 {
			// A 10-day step closes the session and reopens it under the
			// same handle, each life in a new week.
			r := firewall.Record{Time: t0.Add(time.Duration(life) * 10 * 24 * time.Hour), Src: src,
				Dst: netaddr6.MustAddr("2001:db8:f::1"), Proto: layers.ProtoTCP, DstPort: 22, Length: 60}
			if err := d.Process(r); err != nil {
				t.Fatal(err)
			}
			tab := &d.levels[0].tab
			var s *session
			tab.Range(func(_ netaddr6.U128, h uint32) bool { s = tab.At(h); return false })
			switch {
			case !weekly && s.weeks != nil:
				t.Fatalf("life %d: a detector without WeekEpoch allocated a week counter", life)
			case weekly && (s.weeks == nil || s.weeks.len() != 1):
				t.Fatalf("life %d: weekly session holds week counter %+v, want one week", life, s.weeks)
			case weekly && life == 0:
				first = s.weeks
			case weekly && s.weeks != first:
				t.Fatalf("life %d: the reopened session allocated a new week counter", life)
			}
		}
	}
}

// lenCounts counts each value once under its own key.
func lenCounts(vals ...uint32) *keyCounts {
	c := new(keyCounts)
	for _, v := range vals {
		c.add(v, 1)
	}
	return c
}

// TestLenEntropyCases pins normalizedEntropy on the distributions that
// define it: no or one observation and a single length give 0, all
// lengths distinct give 1, two equally common lengths give one bit over
// log2(total), and a scanner's near-constant lengths stay under the
// MAWI criterion's 0.1 while diverse regular traffic exceeds it.
func TestLenEntropyCases(t *testing.T) {
	var constant, twoUniform, scanLike, diverse, allDistinct keyCounts
	constant.add(40, 100) // e.g. constant TCP SYN length
	twoUniform.add(1, 50)
	twoUniform.add(2, 50)
	scanLike.add(60, 10000)
	scanLike.add(72, 1)
	scanLike.add(80, 1)
	rng := rand.New(rand.NewSource(1))
	for range 10000 {
		diverse.add(uint32(40+rng.Intn(1400)), 1)
	}
	for k := range uint32(64) {
		allDistinct.add(k, 1)
	}
	cases := []struct {
		name string
		c    *keyCounts
		ok   func(float64) bool
	}{
		{"nil", nil, func(e float64) bool { return e == 0 }},
		{"empty", new(keyCounts), func(e float64) bool { return e == 0 }},
		{"one observation", lenCounts(60), func(e float64) bool { return e == 0 }},
		{"constant", &constant, func(e float64) bool { return e == 0 }},
		{"all distinct", &allDistinct, func(e float64) bool { return math.Abs(e-1) < 1e-9 }},
		{"two uniform", &twoUniform, func(e float64) bool { return math.Abs(e-1/math.Log2(100)) < 1e-12 }},
		{"scan-like", &scanLike, func(e float64) bool { return e < 0.1 }},
		{"diverse", &diverse, func(e float64) bool { return e > 0.1 }},
	}
	var scratch []countSlot
	for _, tc := range cases {
		if e := tc.c.normalizedEntropy(&scratch); !tc.ok(e) {
			t.Errorf("%s: entropy %v", tc.name, e)
		}
	}
}

// TestLenEntropyBounds: the normalized entropy of any length multiset
// lies in [0, 1].
func TestLenEntropyBounds(t *testing.T) {
	var scratch []countSlot
	f := func(vals []uint16) bool {
		var c keyCounts
		for _, v := range vals {
			c.add(uint32(v), 1)
		}
		e := c.normalizedEntropy(&scratch)
		return e >= 0 && e <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLenEntropyDeterministic: the entropy of one multiset is
// bit-identical however its counter was filled — in any insertion
// order, inline or spilled, or rebuilt from another counter's
// eachSorted the way a checkpoint restore rebuilds it — and equals the
// sum taken in ascending length order against the total of the counts,
// the float expression LenEntropy and the MAWI criterion have always
// used.
func TestLenEntropyDeterministic(t *testing.T) {
	ascending := func(counts map[uint32]uint64) float64 {
		keys := make([]uint32, 0, len(counts))
		var total uint64
		for k, n := range counts {
			keys = append(keys, k)
			total += n
		}
		slices.Sort(keys)
		var h float64
		n := float64(total)
		for _, k := range keys {
			p := float64(counts[k]) / n
			h -= p * math.Log2(p)
		}
		return h / math.Log2(float64(total))
	}
	var scratch []countSlot
	for _, distinct := range []int{2, countsInline, 61} {
		counts := map[uint32]uint64{}
		for i := range distinct {
			counts[uint32(40+3*i)] = uint64(i%5 + 1)
		}
		want := math.Float64bits(ascending(counts))
		for rep := range 20 {
			// The same lengths and counts, added from a different start.
			var c keyCounts
			for i := range distinct {
				k := uint32(40 + 3*((i+rep*7)%distinct))
				c.add(k, counts[k])
			}
			if got := math.Float64bits(c.normalizedEntropy(&scratch)); got != want {
				t.Fatalf("%d lengths, rep %d: entropy bits %x, want %x", distinct, rep, got, want)
			}
			var rebuilt keyCounts
			c.eachSorted(&scratch, rebuilt.add)
			if got := math.Float64bits(rebuilt.normalizedEntropy(&scratch)); got != want {
				t.Fatalf("%d lengths, rep %d: rebuilt counter's entropy bits %x, want %x", distinct, rep, got, want)
			}
		}
	}
}

// TestKeyCountsReset: reset empties a counter, inline or spilled, and
// the emptied counter counts afresh.
func TestKeyCountsReset(t *testing.T) {
	var scratch []countSlot
	for _, keys := range []uint32{1, countsInline, 3 * countsInline} {
		var c keyCounts
		for k := range keys {
			c.add(k, 10)
		}
		c.reset()
		seen := 0
		c.eachSorted(&scratch, func(uint32, uint64) { seen++ })
		if c.len() != 0 || seen != 0 || c.normalizedEntropy(&scratch) != 0 {
			t.Errorf("%d keys: reset left len %d, %d keys visited", keys, c.len(), seen)
		}
		c.add(5, 1)
		var got []countSlot
		c.eachSorted(&scratch, func(k uint32, n uint64) { got = append(got, countSlot{n, k}) })
		if !slices.Equal(got, []countSlot{{1, 5}}) {
			t.Errorf("%d keys: counter after reset holds %v, want key 5 once", keys, got)
		}
	}
}

// TestKeyCountsMergeEquivalence: merging counters the way a checkpoint
// restore rebuilds one — eachSorted into add — equals counting the
// union directly: the same keys and counts in the same order, and a
// bit-identical length entropy.
func TestKeyCountsMergeEquivalence(t *testing.T) {
	var scratch []countSlot
	f := func(a, b []uint8) bool {
		var c1, c2, m, merged keyCounts
		for _, v := range a {
			c1.add(uint32(v), 1)
			m.add(uint32(v), 1)
		}
		for _, v := range b {
			c2.add(uint32(v), 1)
			m.add(uint32(v), 1)
		}
		c1.eachSorted(&scratch, merged.add)
		c2.eachSorted(&scratch, merged.add)
		var want, got []countSlot
		m.eachSorted(&scratch, func(k uint32, n uint64) { want = append(want, countSlot{n, k}) })
		merged.eachSorted(&scratch, func(k uint32, n uint64) { got = append(got, countSlot{n, k}) })
		return slices.Equal(got, want) &&
			math.Float64bits(merged.normalizedEntropy(&scratch)) == math.Float64bits(m.normalizedEntropy(&scratch))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
