package core

// A deliberately naive detector, transcribed from the Config docs and
// the package comment: builtin maps keyed by the masked source prefix,
// exact destination, source, service and week sets, a full scan of
// every session on every Advance with the time.Time idle test
// now.Sub(last) > Timeout, and the packet-length entropy recomputed
// from a length histogram. FuzzDetector drives it, a Detector and
// ShardedDetectors at 1 and 3 shards with the same record/advance tape
// and requires identical scans, drop counts and open-session counts.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

type refSession struct {
	start, last time.Time
	packets     uint64
	dsts, srcs  map[netip.Addr]bool
	ports       map[firewall.Service]uint64
	weeks       map[int]uint64
	lens        map[uint64]uint64
}

type refDetector struct {
	cfg      Config // normalized by NewDetector
	sessions []map[netip.Prefix]*refSession
	scans    [][]Scan
	dropped  []uint64
	lastTime time.Time
}

func newRefDetector(cfg Config) *refDetector {
	r := &refDetector{cfg: NewDetector(cfg).Config()}
	for range r.cfg.Levels {
		r.sessions = append(r.sessions, map[netip.Prefix]*refSession{})
	}
	r.scans = make([][]Scan, len(r.cfg.Levels))
	r.dropped = make([]uint64, len(r.cfg.Levels))
	return r
}

// process ingests one record, rejecting it (unprocessed) when it is
// earlier than the previous one.
func (r *refDetector) process(rec firewall.Record) error {
	if rec.Time.Before(r.lastTime) {
		return fmt.Errorf("record at %v before %v", rec.Time, r.lastTime)
	}
	r.lastTime = rec.Time
	for i, l := range r.cfg.Levels {
		key := netip.PrefixFrom(rec.Src, int(l)).Masked()
		s := r.sessions[i][key]
		if s != nil && rec.Time.Sub(s.last) > r.cfg.Timeout {
			r.close(i, key)
			s = nil
		}
		if s == nil {
			s = &refSession{
				start: rec.Time,
				dsts:  map[netip.Addr]bool{}, srcs: map[netip.Addr]bool{},
				ports: map[firewall.Service]uint64{}, weeks: map[int]uint64{},
				lens: map[uint64]uint64{},
			}
			r.sessions[i][key] = s
		}
		s.last = rec.Time
		s.packets++
		s.dsts[rec.Dst] = true
		s.srcs[rec.Src] = true
		s.ports[rec.Service()]++
		if !r.cfg.WeekEpoch.IsZero() {
			s.weeks[int(rec.Time.Sub(r.cfg.WeekEpoch)/(7*24*time.Hour))]++
		}
		s.lens[uint64(rec.Length)]++
	}
	return nil
}

func (r *refDetector) advance(now time.Time) {
	for i := range r.cfg.Levels {
		for key, s := range r.sessions[i] {
			if now.Sub(s.last) > r.cfg.Timeout {
				r.close(i, key)
			}
		}
	}
}

func (r *refDetector) finish() {
	for i := range r.cfg.Levels {
		for key := range r.sessions[i] {
			r.close(i, key)
		}
	}
}

// close ends a session: a scan when it reached MinDsts destinations,
// a drop otherwise.
func (r *refDetector) close(i int, key netip.Prefix) {
	s := r.sessions[i][key]
	delete(r.sessions[i], key)
	if len(s.dsts) < r.cfg.MinDsts {
		r.dropped[i]++
		return
	}
	scan := Scan{
		Source: key, Level: r.cfg.Levels[i], Start: s.start, End: s.last,
		Packets: s.packets, Dsts: len(s.dsts), SrcAddrs: len(s.srcs),
		LenEntropy: refEntropy(s.lens, s.packets),
	}
	for svc, n := range s.ports {
		scan.Ports = append(scan.Ports, PortCount{svc, n})
	}
	sort.Slice(scan.Ports, func(a, b int) bool {
		x, y := scan.Ports[a].Service, scan.Ports[b].Service
		return x.Proto < y.Proto || x.Proto == y.Proto && x.Port < y.Port
	})
	if !r.cfg.WeekEpoch.IsZero() {
		for w, n := range s.weeks {
			scan.WeekPackets = append(scan.WeekPackets, WeekCount{w, n})
		}
		sort.Slice(scan.WeekPackets, func(a, b int) bool { return scan.WeekPackets[a].Week < scan.WeekPackets[b].Week })
	}
	if r.cfg.TrackDsts {
		for a := range s.dsts {
			scan.DstAddrs = append(scan.DstAddrs, a)
		}
		sort.Slice(scan.DstAddrs, func(a, b int) bool { return scan.DstAddrs[a].Less(scan.DstAddrs[b]) })
	}
	r.scans[i] = append(r.scans[i], scan)
}

// refEntropy is the Shannon entropy of the length histogram divided by
// log2 of the packet count (0 below two packets).
func refEntropy(lens map[uint64]uint64, total uint64) float64 {
	if total < 2 {
		return 0
	}
	var h float64
	for _, n := range lens {
		p := float64(n) / float64(total)
		h -= p * math.Log2(p)
	}
	return h / math.Log2(float64(total))
}

// sortedScans returns the level's scans by start, then source.
func (r *refDetector) sortedScans(i int) []Scan {
	out := append([]Scan(nil), r.scans[i]...)
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Start.Equal(out[b].Start) {
			return out[a].Start.Before(out[b].Start)
		}
		return out[a].Source.Addr().Less(out[b].Source.Addr())
	})
	return out
}

// scansDiffer checks that got is in Scans order (start, then source)
// and holds the same scans as want (see contentDiffer). Scans that tie
// on start and source — a session reopened at the instant an Advance
// ahead of the records closed it — may come in either order. It
// describes the first difference.
func scansDiffer(got, want []Scan) string {
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.Start.Before(a.Start) || b.Start.Equal(a.Start) && b.Source.Addr().Less(a.Source.Addr()) {
			return fmt.Sprintf("scan %d out of order:\n%s", i, renderLevel(got))
		}
	}
	return contentDiffer(got, want)
}

// contentDiffer checks that got and want hold the same scans in any
// order, compared field by field: canonical rendering, with the
// entropy compared to a float tolerance. It describes the first
// difference.
func contentDiffer(got, want []Scan) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d scans, reference %d\ngot:\n%swant:\n%s", len(got), len(want), renderLevel(got), renderLevel(want))
	}
	byContent := func(scans []Scan) []Scan {
		out := append([]Scan(nil), scans...)
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if !a.Start.Equal(b.Start) {
				return a.Start.Before(b.Start)
			}
			if a.Source.Addr() != b.Source.Addr() {
				return a.Source.Addr().Less(b.Source.Addr())
			}
			a.LenEntropy, b.LenEntropy = 0, 0
			return canonical(a) < canonical(b)
		})
		return out
	}
	got, want = byContent(got), byContent(want)
	for i := range got {
		g, w := got[i], want[i]
		if math.Abs(g.LenEntropy-w.LenEntropy) > 1e-9 {
			return fmt.Sprintf("scan %d: entropy %v, reference %v", i, g.LenEntropy, w.LenEntropy)
		}
		g.LenEntropy, w.LenEntropy = 0, 0
		if cg, cw := canonical(g), canonical(w); cg != cw {
			return fmt.Sprintf("scan %d:\ngot  %s\nwant %s", i, cg, cw)
		}
	}
	return ""
}

// shardedOpen sums a level's open sessions over the shards once every
// dispatched batch has been applied.
func shardedOpen(t *testing.T, sd *ShardedDetector, level netaddr6.AggLevel) int {
	t.Helper()
	if err := sd.g.Sync(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, det := range sd.g.Shards() {
		n += det.OpenSessions(level)
	}
	return n
}

// detTapeSrc maps the low five bits of a byte onto a source: 2 /32s ×
// 2 /48s × 2 /64s × 4 interface IDs, so sessions collide at every
// coarser level.
func detTapeSrc(b byte) netip.Addr {
	return netaddr6.U128{
		Hi: 0x20010db8_00000000 | uint64(b&1)<<32 | uint64(b>>1&1)<<16 | uint64(b>>2&1),
		Lo: uint64(b>>3&3) + 1,
	}.ToAddr()
}

// runDetectorTape interprets tape against the reference, a Detector
// and ShardedDetectors at 1 and 3 shards. Timeout is one minute. The
// first byte picks MinDsts (1–4), TrackDsts (bit 2) and WeekEpoch
// (bit 3, a week boundary 30 s into the tape); the rest is a sequence of
// ops:
//
//	0–3 src, b: a record from detTapeSrc(src) whose protocol and
//	            length come from src's top bits and whose port from
//	            src's top two bits plus four times the op byte's top
//	            five (up to 256 services per source, far past the
//	            counters' inline cutoff), to one of 32
//	            destinations (b's low five bits), stepping time by
//	            detTapeSteps[b>>5] — equal, forward, exactly Timeout,
//	            Timeout+1ns, three days (a new week), or 1ns back (an
//	            out-of-order record) — staged into the pending batch
//	4           process the pending batch
//	5 b         Advance at the last record's time + Timeout (+1ns
//	            when b is odd), or b−128 seconds past it when b ≥ 128
//	6           compare scans, drop and open-session counts
//	7           snapshot the sharded detectors one nanosecond past the
//	            last record and restore them
//
// Any op but a record processes the pending batch first. An
// out-of-order record must fail the Detector with the in-order prefix
// processed; the sharded detectors get that prefix and the tape ends.
func runDetectorTape(t *testing.T, tape []byte) {
	if len(tape) < 1 {
		return
	}
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	cfg := Config{
		MinDsts:   1 + int(tape[0]%4),
		Timeout:   time.Minute,
		Levels:    []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48, 32},
		TrackDsts: tape[0]&4 != 0,
	}
	if tape[0]&8 != 0 {
		// A week boundary 30 s into the tape, so sessions span weeks.
		cfg.WeekEpoch = start.Add(30*time.Second - 7*24*time.Hour)
	}
	steps := [8]time.Duration{0, time.Second, 10 * time.Second, 59 * time.Second,
		cfg.Timeout, cfg.Timeout + 1, 72 * time.Hour, -1}
	ref, det := newRefDetector(cfg), NewDetector(cfg)
	shardCounts := []int{1, 3}
	sharded := make([]*ShardedDetector, len(shardCounts))
	for i, n := range shardCounts {
		sharded[i] = NewShardedDetector(cfg, n)
	}
	defer func() {
		for _, sd := range sharded {
			sd.Finish()
		}
	}()
	clock := start
	var pending []firewall.Record
	// process applies the pending batch everywhere and reports whether
	// it held an out-of-order record.
	process := func(at int) bool {
		t.Helper()
		n := len(pending)
		for k, r := range pending {
			if ref.process(r) != nil {
				n = k
				break
			}
		}
		err := det.ProcessBatch(pending)
		if (err != nil) != (n < len(pending)) {
			t.Fatalf("op %d: Detector error %v, reference rejects record %d of %d", at, err, n, len(pending))
		}
		for _, sd := range sharded {
			if err := sd.ProcessBatch(pending[:n]); err != nil {
				t.Fatalf("op %d: %d shards: %v", at, sd.NumShards(), err)
			}
		}
		rejected := n < len(pending)
		pending = pending[:0]
		return rejected
	}
	// check compares the open-session and drop counts, and the scans
	// each side emitted since the previous check: the reference's and
	// the Detector's per-level scan slices only grow between checks
	// (nothing calls Scans, which sorts in place, until Finish), so the
	// per-op cost stays flat in the tape's length. Finish compares every
	// scan, in Scans order.
	refSeen, detSeen := make([]int, len(cfg.Levels)), make([]int, len(cfg.Levels))
	check := func(at int) {
		t.Helper()
		for i, l := range ref.cfg.Levels {
			want := len(ref.sessions[i])
			if got := det.OpenSessions(l); got != want {
				t.Fatalf("op %d: OpenSessions(%v) = %d, reference %d", at, l, got, want)
			}
			for _, sd := range sharded {
				if got := shardedOpen(t, sd, l); got != want {
					t.Fatalf("op %d: %d shards: OpenSessions(%v) = %d, reference %d", at, sd.NumShards(), l, got, want)
				}
			}
			if got, want := det.Dropped(l), ref.dropped[i]; got != want {
				t.Fatalf("op %d: Dropped(%v) = %d, reference %d", at, l, got, want)
			}
			if d := contentDiffer(det.levels[i].scans[detSeen[i]:], ref.scans[i][refSeen[i]:]); d != "" {
				t.Fatalf("op %d: %v: %s", at, l, d)
			}
			detSeen[i], refSeen[i] = len(det.levels[i].scans), len(ref.scans[i])
		}
	}
	ended := false
	for i := 1; i < len(tape) && !ended; i++ {
		op := tape[i] % 8
		if op < 4 {
			if i+2 >= len(tape) {
				break
			}
			port := 22 + 4*uint16(tape[i]>>3)
			src, b := tape[i+1], tape[i+2]
			i += 2
			clock = clock.Add(steps[b>>5])
			pending = append(pending, firewall.Record{
				Time:    clock,
				Src:     detTapeSrc(src),
				Dst:     netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(b&31)),
				Proto:   []layers.IPProtocol{layers.ProtoTCP, layers.ProtoUDP}[src>>5&1],
				DstPort: port + uint16(src>>6),
				Length:  60 + uint16(src>>7),
			})
			continue
		}
		if ended = process(i); ended {
			break
		}
		switch op {
		case 5:
			b := byte(0)
			if i+1 < len(tape) {
				i++
				b = tape[i]
			}
			now := clock.Add(cfg.Timeout + time.Duration(b&1))
			if b >= 128 {
				now = clock.Add(time.Duration(b-128) * time.Second)
			}
			ref.advance(now)
			det.Advance(now)
			for _, sd := range sharded {
				if err := sd.Advance(now); err != nil {
					t.Fatal(err)
				}
			}
		case 6:
			check(i)
		case 7:
			if ref.lastTime.IsZero() {
				break // nothing processed: no cut to take
			}
			// The restored horizon is the last record's time, which is
			// the time-order bound the reference keeps too.
			mark := ref.lastTime.Add(time.Nanosecond)
			for k, sd := range sharded {
				var snap bytes.Buffer
				if err := sd.Snapshot(&snap, mark); err != nil {
					t.Fatal(err)
				}
				if err := sd.Finish(); err != nil {
					t.Fatal(err)
				}
				cr, err := checkpoint.NewReader(bytes.NewReader(snap.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if sharded[k], err = RestoreShardedDetector(cr, sd.NumShards()); err != nil {
					t.Fatal(err)
				}
				var again bytes.Buffer
				if err := sharded[k].Snapshot(&again, mark); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap.Bytes(), again.Bytes()) {
					t.Fatalf("op %d: %d shards: snapshot of the restored detector differs", i, sd.NumShards())
				}
			}
		}
		if op != 6 {
			check(i)
		}
	}
	if !ended {
		process(len(tape))
	}
	ref.finish()
	det.Finish()
	for _, sd := range sharded {
		if err := sd.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range ref.cfg.Levels {
		want := ref.sortedScans(i)
		if d := scansDiffer(det.Scans(l), want); d != "" {
			t.Fatalf("Finish: %v: %s", l, d)
		}
		if got := det.OpenSessions(l); got != 0 {
			t.Fatalf("Finish: OpenSessions(%v) = %d", l, got)
		}
		for _, sd := range sharded {
			if d := scansDiffer(sd.Merged().Scans(l), want); d != "" {
				t.Fatalf("Finish: %d shards: %v: %s", sd.NumShards(), l, d)
			}
			if got := sd.Merged().Dropped(l); got != ref.dropped[i] {
				t.Fatalf("Finish: %d shards: Dropped(%v) = %d, reference %d", sd.NumShards(), l, got, ref.dropped[i])
			}
		}
		if got := det.Dropped(l); got != ref.dropped[i] {
			t.Fatalf("Finish: Dropped(%v) = %d, reference %d", l, got, ref.dropped[i])
		}
	}
}

// FuzzDetector is the differential check of the optimized detector
// (run grouping, handle arena, inline first values, sets and counters
// that spill, sharding, snapshot/restore) against the naive reference.
// The committed corpus adds testdata/fuzz/FuzzDetector: one source
// touching 44 services across a week boundary, snapshotted while its
// port counter is spilled.
func FuzzDetector(f *testing.F) {
	// Equal timestamps, a gap of exactly Timeout (one session) and
	// Timeout+1ns (a split), Advances exactly at and 1ns past
	// last + Timeout, a snapshot, a check, then an out-of-order record.
	f.Add([]byte{0x0d,
		0, 1, 0x21, 0, 1, 0x02, 0, 1, 0x83, 4, 0, 1, 0xa4, 6,
		5, 0, 6, 5, 1, 6, 0, 3, 0x45, 0, 3, 0xc6, 7, 6, 0, 2, 0xe7, 4})
	// The MinDsts edge: exactly MinDsts (4) destinations from one
	// source, then MinDsts−1 from another, under TrackDsts.
	f.Add([]byte{0x07,
		0, 9, 0x20, 0, 9, 0x21, 0, 9, 0x22, 0, 9, 0x23,
		0, 10, 0x20, 0, 10, 0x21, 0, 10, 0x22, 5, 1, 6})
	rng := rand.New(rand.NewSource(23))
	for range 24 {
		tape := make([]byte, 32+rng.Intn(480))
		rng.Read(tape)
		// Keep random tapes mostly in order so they run past the first
		// few records.
		for i := 1; i < len(tape); i++ {
			if tape[i]>>5 == 7 && rng.Intn(16) != 0 {
				tape[i] &^= 0x20
			}
		}
		f.Add(tape)
	}
	f.Fuzz(runDetectorTape)
}
