package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"v6scan/internal/checkpoint"
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
	var got, sorted []uint32
	var scratch []countSlot
	c.each(func(k uint32, n uint64) {
		if n != ref[k] {
			t.Fatalf("%s, life %d: key %#x counts %d, want %d", name, life, k, n, ref[k])
		}
		got = append(got, k)
	})
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s, life %d: each visits %v, want %v", name, life, got, want)
	}
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
// in the order the snapshot writes: services in encodePortMap's
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
	var want checkpoint.Enc
	encodePortMap(&want, svcs)
	var got checkpoint.Enc
	got.Uvarint(uint64(ports.len()))
	ports.eachSorted(new([]countSlot), func(k uint32, n uint64) { encodeService(&got, keyService(k), n) })
	if string(got.B) != string(want.B) {
		t.Fatal("ports in key order encode differently from encodePortMap")
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
