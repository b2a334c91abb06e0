package core

import (
	"cmp"
	"math"
	"slices"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
)

// countsInline is keyCounts' inline cutoff: up to this many keys live
// in the sorted inline array, past it the counter spills into its
// table. Four keys keep a counter at one 64-byte cache line. Measured
// on the simulated CDN telescope (800 machines, 12 weeks, seed 1 —
// the offline benchmark's input — 18199 closed sessions), keys per
// session are bimodal: 82.5% of sessions count one service and 11.8%
// sweep more than 64, while only 0.5% count two to four and 4.7% five
// to sixteen. So 17.0% of port counters spill at this cutoff against
// 12.3% at sixteen, and those are mostly sweepers that would spill at
// any small cutoff. Week counters hold one key in all but 3 of the
// 18199 sessions, so they practically never spill.
const countsInline = 4

// countsTableMin is the spill table's first size: room for twice the
// keys that caused the spill before the first doubling.
const countsTableMin = 4 * countsInline

// keyCounts counts packets per uint32 key: a session's services
// (svcKey) or weeks (weekKey). Up to countsInline keys live in a
// sorted inline array; past that the counter spills into an
// open-addressed, linear-probed power-of-two table. Inline counts are
// 32-bit, which halves the array every session carries; a count that
// would pass 32 bits spills too, since the table counts in 64. Reset
// keeps the table, so a recycled session counts without allocating.
// Adding a zero count is a no-op, so every key held has a positive
// count. The zero value is an empty counter.
type keyCounts struct {
	keys   [countsInline]uint32 // sorted; authoritative while used == 0
	counts [countsInline]uint32
	n      int32 // inline keys held
	used   int32 // table entries held; > 0 once spilled
	tab    []countSlot
}

// countSlot is one spill table entry; n == 0 marks a free slot.
type countSlot struct {
	n uint64
	k uint32
}

// len returns the number of distinct keys; a nil counter holds none.
func (c *keyCounts) len() int {
	if c == nil {
		return 0
	}
	if c.used > 0 {
		return int(c.used)
	}
	return int(c.n)
}

// add counts n more under k.
func (c *keyCounts) add(k uint32, n uint64) {
	if n == 0 {
		return
	}
	if c.used > 0 {
		c.tabAdd(k, n)
		return
	}
	i := int32(0)
	for i < c.n && c.keys[i] < k {
		i++
	}
	if i < c.n && c.keys[i] == k {
		if sum := uint64(c.counts[i]) + n; sum <= math.MaxUint32 {
			c.counts[i] = uint32(sum)
			return
		}
	} else if c.n < countsInline && n <= math.MaxUint32 {
		copy(c.keys[i+1:c.n+1], c.keys[i:c.n])
		copy(c.counts[i+1:c.n+1], c.counts[i:c.n])
		c.keys[i], c.counts[i] = k, uint32(n)
		c.n++
		return
	}
	c.spill()
	c.tabAdd(k, n)
}

// spill moves the inline keys into the table, allocating it on a
// counter's first spill only.
func (c *keyCounts) spill() {
	if c.tab == nil {
		c.tab = make([]countSlot, countsTableMin)
	}
	for i := range c.n {
		c.tabAdd(c.keys[i], uint64(c.counts[i]))
	}
	c.n = 0
}

func (c *keyCounts) tabAdd(k uint32, n uint64) {
	mask := uint64(len(c.tab) - 1)
	for i := countHash(k) & mask; ; i = (i + 1) & mask {
		e := &c.tab[i]
		if e.n == 0 {
			if 2*int(c.used+1) > len(c.tab) {
				c.grow()
				c.tabAdd(k, n)
				return
			}
			*e = countSlot{n: n, k: k}
			c.used++
			return
		}
		if e.k == k {
			e.n += n
			return
		}
	}
}

// grow doubles the table and reinserts the held entries.
func (c *keyCounts) grow() {
	old := c.tab
	c.tab = make([]countSlot, 2*len(old))
	mask := uint64(len(c.tab) - 1)
	for _, e := range old {
		if e.n == 0 {
			continue
		}
		i := countHash(e.k) & mask
		for c.tab[i].n != 0 {
			i = (i + 1) & mask
		}
		c.tab[i] = e
	}
}

// reset empties the counter, keeping its table for the next use. A
// nil counter is already empty.
func (c *keyCounts) reset() {
	if c == nil {
		return
	}
	c.n = 0
	if c.used > 0 {
		clear(c.tab)
		c.used = 0
	}
}

// each calls f for every key and its count, in no particular order
// once spilled. A nil counter holds no key.
func (c *keyCounts) each(f func(k uint32, n uint64)) {
	if c == nil {
		return
	}
	if c.used == 0 {
		for i := range c.n {
			f(c.keys[i], uint64(c.counts[i]))
		}
		return
	}
	for _, e := range c.tab {
		if e.n != 0 {
			f(e.k, e.n)
		}
	}
}

// eachSorted calls f for every key and its count in ascending key
// order: the inline array's order, or a spilled table's entries sorted
// in *scratch, a buffer the caller reuses across calls.
func (c *keyCounts) eachSorted(scratch *[]countSlot, f func(k uint32, n uint64)) {
	if c == nil || c.used == 0 {
		c.each(f)
		return
	}
	ord := (*scratch)[:0]
	for _, e := range c.tab {
		if e.n != 0 {
			ord = append(ord, e)
		}
	}
	slices.SortFunc(ord, func(a, b countSlot) int { return cmp.Compare(a.k, b.k) })
	for _, e := range ord {
		f(e.k, e.n)
	}
	*scratch = ord
}

// countHash is a multiplicative hash whose low bits index the table.
func countHash(k uint32) uint64 {
	x := uint64(k) * 0x9e3779b97f4a7c15
	return x ^ x>>32
}

// svcKey packs a service as proto<<16 | port, so ascending keys are
// (proto, port) order.
func svcKey(s firewall.Service) uint32 { return uint32(s.Proto)<<16 | uint32(s.Port) }

func keyService(k uint32) firewall.Service {
	return firewall.Service{Proto: layers.IPProtocol(k >> 16), Port: uint16(k)}
}

// weekKey maps a week index to a key whose unsigned order is the
// index's signed order.
func weekKey(w int32) uint32 { return uint32(w) ^ 1<<31 }

func keyWeek(k uint32) int { return int(int32(k ^ 1<<31)) }
