package ids

// A deliberately naive IDS, transcribed from the Config docs and the
// package comment: builtin maps, a full scan of every candidate on
// every sweep with the time.Time idle test now.Sub(last) > Timeout,
// one plain dense HyperLogLog register array per candidate from its
// first record (no inline destination, no sparse form, none of
// core.DstSketch's code), estimated by a full loop over its registers, and
// activity bounds that are the earliest and latest record times seen.
// FuzzIDSEngine drives it and the optimized Engine with the same
// record/tick tape and requires identical observable behavior.

import (
	"bytes"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

type refCandidate struct {
	regs        []uint8
	packets     uint64
	first, last time.Time
}

type refIDS struct {
	cfg     Config // normalized by New: levels most specific first
	levels  []map[netaddr6.U128]*refCandidate
	now     time.Time
	alerts  []Alert
	dropped uint64
}

func newRefIDS(cfg Config) *refIDS {
	r := &refIDS{cfg: New(cfg).Config()}
	for range r.cfg.Levels {
		r.levels = append(r.levels, map[netaddr6.U128]*refCandidate{})
	}
	return r
}

// refAdd raises the register the destination's hash picks (its top p
// bits, p = log2 len(regs)) to the position of the first 1 bit of the
// rest, as the HyperLogLog paper states it. The hash is core's
// SplitMix64-style mix of the address halves, transcribed.
func refAdd(regs []uint8, d netaddr6.U128) {
	x := d.Hi ^ (d.Lo * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	p := uint64(0)
	for 1<<p < len(regs) {
		p++
	}
	idx, rank := x>>(64-p), uint8(1)
	for rest := x<<p | 1<<(p-1); rest&(1<<63) == 0; rest <<= 1 {
		rank++
	}
	if rank > regs[idx] {
		regs[idx] = rank
	}
}

// refEstimate is the HyperLogLog estimate recomputed from scratch over
// every register: harmonic mean, linear counting below 2.5m.
func refEstimate(regs []uint8) uint64 {
	m := float64(len(regs))
	var sum float64
	zeros := 0
	for _, r := range regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := 0.7213 / (1 + 1.079/m) * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return uint64(e + 0.5)
}

func (r *refIDS) process(rec firewall.Record) {
	if rec.Time.After(r.now) {
		r.now = rec.Time
	}
	src, dst := netaddr6.ToU128(rec.Src), netaddr6.ToU128(rec.Dst)
	for i, agg := range r.cfg.Levels {
		key := src.Mask(int(agg))
		c, ok := r.levels[i][key]
		if !ok {
			if len(r.levels[i]) >= r.cfg.MaxCandidates {
				r.dropped++
				continue
			}
			c = &refCandidate{regs: make([]uint8, 1<<r.cfg.SketchPrecision), first: rec.Time, last: rec.Time}
			r.levels[i][key] = c
		}
		refAdd(c.regs, dst)
		c.packets++
		if rec.Time.Before(c.first) {
			c.first = rec.Time
		}
		if rec.Time.After(c.last) {
			c.last = rec.Time
		}
	}
}

func (r *refIDS) tick(now time.Time) {
	if now.After(r.now) {
		r.now = now
	}
	r.sweep(false)
}

// sweep closes idle (or all) candidates level by level, most specific
// first; a closed candidate at or above MinDsts alerts unless alerts
// already emitted in this sweep for prefixes inside it cover
// CoverageShare of its estimate.
func (r *refIDS) sweep(all bool) {
	var emitted []Alert
	for i, agg := range r.cfg.Levels {
		var closed []netaddr6.U128
		for key, c := range r.levels[i] {
			if !all && r.now.Sub(c.last) <= r.cfg.Timeout {
				continue
			}
			if refEstimate(c.regs) >= uint64(r.cfg.MinDsts) {
				closed = append(closed, key)
			} else {
				delete(r.levels[i], key)
			}
		}
		sort.Slice(closed, func(a, b int) bool { return closed[a].Cmp(closed[b]) < 0 })
		for _, key := range closed {
			c := r.levels[i][key]
			delete(r.levels[i], key)
			prefix := netip.PrefixFrom(key.ToAddr(), int(agg))
			var covered uint64
			for _, a := range emitted {
				if prefix.Bits() <= a.Prefix.Bits() && prefix.Contains(a.Prefix.Addr()) {
					covered += a.EstimatedDsts
				}
			}
			est := refEstimate(c.regs)
			if float64(covered) >= r.cfg.CoverageShare*float64(est) {
				continue
			}
			emitted = append(emitted, Alert{
				Prefix: prefix, Level: agg, EstimatedDsts: est, Packets: c.packets,
				First: c.first, Last: c.last,
				Escalated: covered > 0 || agg != r.cfg.Levels[0],
			})
		}
	}
	r.alerts = append(r.alerts, emitted...)
}

func (r *refIDS) drain() []Alert {
	out := r.alerts
	r.alerts = nil
	// First activity, address, prefix length, then every other field.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case !a.First.Equal(b.First):
			return a.First.Before(b.First)
		case a.Prefix.Addr() != b.Prefix.Addr():
			return a.Prefix.Addr().Less(b.Prefix.Addr())
		case a.Prefix.Bits() != b.Prefix.Bits():
			return a.Prefix.Bits() < b.Prefix.Bits()
		case !a.Last.Equal(b.Last):
			return a.Last.Before(b.Last)
		case a.EstimatedDsts != b.EstimatedDsts:
			return a.EstimatedDsts < b.EstimatedDsts
		case a.Packets != b.Packets:
			return a.Packets < b.Packets
		}
		return !a.Escalated && b.Escalated
	})
	return out
}

// tapeSrc maps a byte onto a source: 2 /32s × 2 /48s × 2 /64s × 4
// interface IDs, so candidates collide at every coarser level and the
// suppression/escalation paths run. The two /32s (2001:db8::/32 and
// 2001:1db8::/32) partition to different shards of three.
func tapeSrc(b byte) netip.Addr {
	return netaddr6.U128{
		Hi: 0x20010db8_00000000 | uint64(b&1)<<44 | uint64(b>>1&1)<<16 | uint64(b>>2&1),
		Lo: uint64(b>>3&3) + 1,
	}.ToAddr()
}

// runIDSTape interprets tape against the reference, a one-shard
// engine and a three-shard one, and returns how many ops compared the
// three-shard engine with the one-shard one. The first two bytes pick
// MaxCandidates (1–8), MinDsts (1–4) and the sketch precision (4–6);
// the rest is a sequence of ops:
//
//	0–3 src, b: record from tapeSrc(src) to one of 32 destinations,
//	            stepping time by int8(b)>>3 seconds (late, equal or
//	            later), staged into the pending batch
//	4           process the pending batch
//	5 b         tick at the last record's time + Timeout (+1ns when b
//	            is odd), or b seconds past the clock when b ≥ 128
//	6           drain and compare alerts
//	7           snapshot and restore both engines mid-stream
//
// Any op but a record processes the pending batch first, then checks
// per-level candidate counts and the drop counter. The reference
// judges the one-shard engine on every tape. The three-shard engine
// applies MaxCandidates per shard, so it must match the one-shard
// engine — drains, candidate counts, snapshot bytes, the final Flush —
// only while that has dropped nothing.
func runIDSTape(t *testing.T, tape []byte) (sharded int) {
	if len(tape) < 2 {
		return 0
	}
	cfg := Config{
		Timeout:         time.Minute,
		MaxCandidates:   1 + int(tape[0]%8),
		MinDsts:         1 + int(tape[1]%4),
		SketchPrecision: 4 + tape[1]>>4%3,
	}
	e, e3, ref := New(cfg), NewSharded(cfg, 3), newRefIDS(cfg)
	// Flush stops the workers of whichever three-shard engine is live.
	defer func() { e3.Flush() }()
	clock := int64(1_622_505_600e9) // 2021-06-01T00:00:00Z
	var pending []firewall.Record
	process := func() {
		e.ProcessBatch(pending)
		e3.ProcessBatch(pending)
		for _, r := range pending {
			ref.process(r)
		}
		pending = pending[:0]
	}
	// exact reports whether the three-shard engine must match the
	// one-shard engine, counting the comparison.
	exact := func() bool {
		if e.DroppedCandidates() != 0 {
			return false
		}
		sharded++
		return true
	}
	check := func(at int) {
		t.Helper()
		for i, agg := range ref.cfg.Levels {
			if got, want := e.Candidates(agg), len(ref.levels[i]); got != want {
				t.Fatalf("op %d: Candidates(%v) = %d, reference %d", at, agg, got, want)
			}
		}
		if got, want := e.DroppedCandidates(), ref.dropped; got != want {
			t.Fatalf("op %d: DroppedCandidates = %d, reference %d", at, got, want)
		}
		if !exact() {
			return
		}
		for _, agg := range ref.cfg.Levels {
			if got, want := e3.Candidates(agg), e.Candidates(agg); got != want {
				t.Fatalf("op %d: 3 shards: Candidates(%v) = %d, one shard %d", at, agg, got, want)
			}
		}
		if got := e3.DroppedCandidates(); got != 0 {
			t.Fatalf("op %d: 3 shards: DroppedCandidates = %d, one shard 0", at, got)
		}
	}
	compare := func(at int, got, got3, want []Alert) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: alerts differ\nengine:    %v\nreference: %v", at, got, want)
		}
		if exact() && !reflect.DeepEqual(got3, got) {
			t.Fatalf("op %d: 3 shards: alerts differ\n3 shards:  %v\none shard: %v", at, got3, got)
		}
	}
	// roundtrip snapshots eng at mark, restores it across its shard
	// count and requires the restored engine to snapshot identically.
	roundtrip := func(at int, eng *Engine, mark time.Time) (*Engine, []byte) {
		t.Helper()
		var snap bytes.Buffer
		if err := eng.Snapshot(&snap, mark); err != nil {
			t.Fatal(err)
		}
		cr, err := checkpoint.NewReader(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreEngine(cr, eng.NumShards())
		if err != nil {
			t.Fatal(err)
		}
		eng.Flush()
		var again bytes.Buffer
		if err := restored.Snapshot(&again, mark); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Bytes(), again.Bytes()) {
			t.Fatalf("op %d: %d shards: snapshot of the restored engine differs", at, eng.NumShards())
		}
		return restored, snap.Bytes()
	}
	for i := 2; i < len(tape); i++ {
		op := tape[i] % 8
		if op < 4 {
			if i+2 >= len(tape) {
				break
			}
			src, b := tape[i+1], tape[i+2]
			i += 2
			clock += int64(int8(b)>>3) * int64(time.Second)
			dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(b&31))
			pending = append(pending, rec(time.Unix(0, clock).UTC(), tapeSrc(src), dst))
			continue
		}
		process()
		switch op {
		case 5:
			b := byte(0)
			if i+1 < len(tape) {
				i++
				b = tape[i]
			}
			now := time.Unix(0, clock).UTC().Add(cfg.Timeout + time.Duration(b&1))
			if b >= 128 {
				now = ref.now.Add(time.Duration(b-128) * time.Second)
			}
			e.Tick(now)
			e3.Tick(now)
			ref.tick(now)
		case 6:
			compare(i, e.Drain(), e3.Drain(), ref.drain())
		case 7:
			mark := ref.now.Add(time.Nanosecond)
			if ref.now.IsZero() {
				mark = time.Unix(0, clock).UTC()
			}
			var snap, snap3 []byte
			e, snap = roundtrip(i, e, mark)
			e3, snap3 = roundtrip(i, e3, mark)
			if exact() && !bytes.Equal(snap3, snap) {
				t.Fatalf("op %d: 3 shards: snapshot differs from the one-shard engine's", i)
			}
		}
		check(i)
	}
	process()
	compare(len(tape), e.Flush(), e3.Flush(), func() []Alert { ref.sweep(true); return ref.drain() }())
	check(len(tape))
	return sharded
}

// shardedSeed is a tape that never fills a candidate table: sources in
// both /32s, several /48s and /64s, drains after ticks that alert, and
// mid-stream snapshots — so every op compares the three-shard engine
// with the one-shard one.
var shardedSeed = []byte{7, 1,
	0, 0, 0x08, 0, 0, 0x09, 0, 0, 0x0a, 0, 1, 0x0b, 0, 1, 0x0c,
	0, 3, 0x0d, 0, 5, 0x0e, 0, 2, 0x0f, 0, 6, 0x0f, 4, 6, 7,
	0, 8, 0x10, 0, 8, 0x11, 0, 9, 0x11, 5, 0, 6,
	0, 1, 0x12, 0, 3, 0x13, 7, 5, 1, 6}

// cutoffSeed snapshots and restores candidates on both sides of the
// sketch's densify cutoff (precision 4: 16 registers, sparse up to 2
// nonzero): at the first snapshot 2001:db8::1 holds a two-destination
// sparse sketch and 2001:db8::2 a six-destination dense one (as does
// their /64 and every coarser level); the first then crosses the
// cutoff on the restored engine and both are snapshotted again before
// a tick alerts on them.
var cutoffSeed = []byte{7, 0,
	0, 0, 1, 0, 0, 2,
	0, 8, 3, 0, 8, 4, 0, 8, 5, 0, 8, 6, 0, 8, 7, 0, 8, 8,
	7,
	0, 0, 9, 0, 0, 10, 0, 0, 11, 0, 0, 12,
	7, 5, 1, 6}

// TestIDSTapeShardedSeed: shardedSeed reaches the three-shard
// comparison at every op — each op's check, each drain and snapshot,
// and the final Flush and check.
func TestIDSTapeShardedSeed(t *testing.T) {
	want := 2
	for i := 2; i < len(shardedSeed); i++ {
		switch shardedSeed[i] % 8 {
		case 0, 1, 2, 3:
			i += 2
			continue
		case 5:
			i++
		case 6, 7:
			want++
		}
		want++
	}
	if got := runIDSTape(t, shardedSeed); got != want {
		t.Fatalf("three-shard comparisons = %d, want %d", got, want)
	}
}

// FuzzIDSEngine is the differential check of the optimized engine
// (timing-wheel expiry, saturating cutoff, the threshold decided from
// the cached register count, run grouping, snapshot/restore) against
// the naive reference, at one shard and, while no candidate was
// dropped, at three.
func FuzzIDSEngine(f *testing.F) {
	// Late and equal timestamps, then ticks exactly at and 1ns past
	// last + Timeout, a snapshot, and a drain.
	f.Add([]byte{7, 0, 0, 1, 0x40, 0, 1, 0xc1, 0, 1, 0, 4, 5, 0, 6, 5, 1, 6, 7, 0, 9, 0x22, 5, 1, 6})
	rng := rand.New(rand.NewSource(20))
	for range 24 {
		tape := make([]byte, 64+rng.Intn(512))
		rng.Read(tape)
		f.Add(tape)
	}
	f.Add(shardedSeed)
	f.Add(cutoffSeed)
	f.Fuzz(func(t *testing.T, tape []byte) { runIDSTape(t, tape) })
}
