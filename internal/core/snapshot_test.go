package core

import (
	"bytes"
	"errors"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// TestSnapshotSpilledCounters pins Snapshot∘Restore∘Snapshot as byte
// identity for a live session whose counters have spilled: one source
// targets 40 services (past the inline cutoff and through table
// grows) over weeks -2 to 3 (past the cutoff too), next to a session
// that stays inline.
// The restored detector, at one and at three shards, must re-snapshot
// to the same bytes and finish with the scans of the uninterrupted run.
func TestSnapshotSpilledCounters(t *testing.T) {
	t0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	cfg := Config{
		MinDsts:   5,
		Timeout:   30 * 24 * time.Hour,
		Levels:    []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64},
		WeekEpoch: t0.Add(14*24*time.Hour + time.Hour), // t0 is in week -2
	}
	sweeper, single := netaddr6.MustAddr("2001:db8:a::1"), netaddr6.MustAddr("2001:db8:b::1")
	dsts := netaddr6.MustPrefix("2001:db8:f::/64")
	var recs []firewall.Record
	for i := range 40 {
		at := t0.Add(time.Duration(i) * 25 * time.Hour)
		proto := layers.ProtoTCP
		if i%3 == 0 {
			proto = layers.ProtoUDP
		}
		recs = append(recs,
			firewall.Record{Time: at, Src: sweeper, Dst: netaddr6.WithIID(dsts.Addr(), uint64(i)),
				Proto: proto, DstPort: uint16(1000 + 37*i), Length: 60},
			firewall.Record{Time: at, Src: single, Dst: netaddr6.WithIID(dsts.Addr(), uint64(i%7)),
				Proto: layers.ProtoTCP, DstPort: 22, Length: 60})
	}
	mark := recs[len(recs)-1].Time.Add(time.Nanosecond)

	live := NewShardedDetector(cfg, 1)
	if err := live.ProcessBatch(recs); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := live.Snapshot(&snap, mark); err != nil {
		t.Fatal(err)
	}
	if err := live.Finish(); err != nil {
		t.Fatal(err)
	}
	want := map[netaddr6.AggLevel]string{}
	for _, l := range cfg.Levels {
		want[l] = renderLevel(live.Merged().Scans(l))
	}
	s := live.Merged().Scans(netaddr6.Agg128)
	if len(s) != 2 || s[0].NumPorts() != 40 || len(s[0].WeekPackets) != 6 || s[0].WeekPackets[0].Week != -2 {
		t.Fatalf("workload does not reach the spill with negative weeks:\n%s", want[netaddr6.Agg128])
	}

	for _, n := range []int{1, 3} {
		cr, err := checkpoint.NewReader(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		sd, err := RestoreShardedDetector(cr, n)
		if err != nil {
			t.Fatal(err)
		}
		spilled := 0
		for _, det := range sd.g.Shards() {
			tab := &det.levels[0].tab
			tab.Range(func(_ netaddr6.U128, h uint32) bool {
				if s := tab.At(h); s.ports.used > 0 && s.weeks.used > 0 {
					spilled++
				}
				return true
			})
		}
		if spilled != 1 {
			t.Errorf("%d shards: %d restored /128 sessions hold spilled port and week counters, want 1", n, spilled)
		}
		var again bytes.Buffer
		if err := sd.Snapshot(&again, mark); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap.Bytes()) {
			t.Errorf("%d shards: snapshot of the restored detector differs (%d vs %d bytes)", n, again.Len(), snap.Len())
		}
		if err := sd.Finish(); err != nil {
			t.Fatal(err)
		}
		for _, l := range cfg.Levels {
			if got := renderLevel(sd.Merged().Scans(l)); got != want[l] {
				t.Errorf("%d shards, %v: restored scans\n%s\nwant\n%s", n, l, got, want[l])
			}
		}
	}
}

// craftedBody writes a detector snapshot whose one session (at level
// index 0) and one scan are given as raw encoders, so a test can put
// lists on the wire in an order the detector never writes.
type craftedBody struct {
	cfg     Config
	session func(e *checkpoint.Enc)
	scan    func(e *checkpoint.Enc)
}

func (b *craftedBody) Levels() []netaddr6.AggLevel { return b.cfg.Levels }

func (b *craftedBody) Config(e *checkpoint.Enc) {
	(&detectorBody{sd: &ShardedDetector{cfg: b.cfg}}).Config(e)
}

func (b *craftedBody) Gather(dst []checkpoint.Keyed[func(*checkpoint.Enc)], li int) []checkpoint.Keyed[func(*checkpoint.Enc)] {
	if li == 0 {
		dst = append(dst, checkpoint.Keyed[func(*checkpoint.Enc)]{Key: netaddr6.U128{Hi: 0x20010db8 << 32}, Val: b.session})
	}
	return dst
}

func (b *craftedBody) Entry(e *checkpoint.Enc, session func(*checkpoint.Enc)) { session(e) }

func (b *craftedBody) Results(e *checkpoint.Enc) {
	e.Varint(int64(b.cfg.Levels[0]))
	e.Uvarint(0) // dropped
	e.Uvarint(1)
	b.scan(e)
}

// TestRestoreRejectsUnorderedLists: a restore keeps a scan's lists in
// the order read, so every count list, a session's address sets and a
// scan's destinations must arrive strictly ascending, and every key
// must fit its field: a port and a packet length in 16 bits, a week in
// 32. Each case breaks one list of an otherwise valid snapshot and
// must fail with checkpoint.ErrFormat; the unbroken snapshot restores.
func TestRestoreRejectsUnorderedLists(t *testing.T) {
	// The scan runs at t0, the session at t1, so Scans orders them.
	t0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(time.Second)
	cfg := Config{MinDsts: 1, Timeout: time.Hour, Levels: []netaddr6.AggLevel{netaddr6.Agg128}, TrackDsts: true, WeekEpoch: t0}
	tcp := uint64(layers.ProtoTCP)
	dst := func(lo uint64) netip.Addr { return netaddr6.U128{Hi: 0x20010db8 << 32, Lo: lo}.ToAddr() }
	// A session's lists, raw: destination address low halves,
	// (proto, port, count), (week, count) and (length, count).
	type sessionLists struct {
		dsts  []uint64
		ports [][3]uint64
		weeks [][2]int64
		lens  [][2]uint64
	}
	goodSession := sessionLists{
		dsts:  []uint64{1},
		ports: [][3]uint64{{tcp, 22, 2}, {tcp, 80, 1}},
		weeks: [][2]int64{{-1, 1}, {0, 2}},
		lens:  [][2]uint64{{60, 2}, {72, 1}},
	}
	session := func(f func(*sessionLists)) func(*checkpoint.Enc) {
		l := goodSession
		f(&l)
		return func(e *checkpoint.Enc) {
			e.Time(t1)
			e.U64(uint64(checkpoint.EncodeTime(t1)))
			e.Uvarint(3)
			for _, set := range [][]uint64{l.dsts, {1}} { // destinations, then sources
				e.Uvarint(uint64(len(set)))
				for _, lo := range set {
					e.U64(0x20010db8 << 32)
					e.U64(lo)
				}
			}
			e.Uvarint(uint64(len(l.ports)))
			for _, p := range l.ports {
				e.U8(uint8(p[0]))
				e.Uvarint(p[1])
				e.Uvarint(p[2])
			}
			e.Uvarint(uint64(len(l.weeks)))
			for _, w := range l.weeks {
				e.Varint(w[0])
				e.Uvarint(uint64(w[1]))
			}
			e.Uvarint(uint64(len(l.lens)))
			for _, p := range l.lens {
				e.Uvarint(p[0])
				e.Uvarint(p[1])
			}
		}
	}
	svc := func(port uint16, n uint64) PortCount {
		return PortCount{firewall.Service{Proto: layers.ProtoTCP, Port: port}, n}
	}
	goodScan := Scan{
		Source: netip.PrefixFrom(dst(0), 128), Level: netaddr6.Agg128, Start: t0, End: t0,
		Packets: 3, Dsts: 2, SrcAddrs: 1, DstAddrs: []netip.Addr{dst(1), dst(2)},
		Ports: []PortCount{svc(22, 2), svc(80, 1)}, WeekPackets: []WeekCount{{-1, 1}, {0, 2}},
	}
	scan := func(f func(*Scan)) func(*checkpoint.Enc) {
		s := goodScan
		f(&s)
		return func(e *checkpoint.Enc) { encodeScan(e, &s) }
	}
	keep := func(*sessionLists) {}
	keepScan := func(*Scan) {}
	cases := []struct {
		name          string
		session, scan func(*checkpoint.Enc)
	}{
		{"valid", session(keep), scan(keepScan)},
		{"session destinations descending", session(func(l *sessionLists) { l.dsts = []uint64{2, 1} }), scan(keepScan)},
		{"session destinations duplicate", session(func(l *sessionLists) { l.dsts = []uint64{1, 1} }), scan(keepScan)},
		{"session ports descending", session(func(l *sessionLists) { l.ports = [][3]uint64{{tcp, 80, 1}, {tcp, 22, 2}} }), scan(keepScan)},
		{"session ports duplicate", session(func(l *sessionLists) { l.ports = [][3]uint64{{tcp, 22, 1}, {tcp, 22, 2}} }), scan(keepScan)},
		{"session port above 65535", session(func(l *sessionLists) { l.ports = [][3]uint64{{tcp, 1 << 16, 3}} }), scan(keepScan)},
		{"session weeks descending", session(func(l *sessionLists) { l.weeks = [][2]int64{{0, 2}, {-1, 1}} }), scan(keepScan)},
		{"session weeks duplicate", session(func(l *sessionLists) { l.weeks = [][2]int64{{3, 2}, {3, 1}} }), scan(keepScan)},
		{"session week beyond int32", session(func(l *sessionLists) { l.weeks = [][2]int64{{1 << 31, 3}} }), scan(keepScan)},
		{"session lengths descending", session(func(l *sessionLists) { l.lens = [][2]uint64{{72, 1}, {60, 2}} }), scan(keepScan)},
		{"session lengths duplicate", session(func(l *sessionLists) { l.lens = [][2]uint64{{60, 1}, {60, 2}} }), scan(keepScan)},
		{"session length above 65535", session(func(l *sessionLists) { l.lens = [][2]uint64{{60, 2}, {1 << 16, 1}} }), scan(keepScan)},
		{"scan ports descending", session(keep), scan(func(s *Scan) { s.Ports = []PortCount{svc(80, 1), svc(22, 2)} })},
		{"scan ports duplicate", session(keep), scan(func(s *Scan) { s.Ports = []PortCount{svc(22, 1), svc(22, 2)} })},
		{"scan weeks descending", session(keep), scan(func(s *Scan) { s.WeekPackets = []WeekCount{{0, 2}, {-1, 1}} })},
		{"scan weeks duplicate", session(keep), scan(func(s *Scan) { s.WeekPackets = []WeekCount{{-1, 2}, {-1, 1}} })},
		{"scan destinations descending", session(keep), scan(func(s *Scan) { s.DstAddrs = []netip.Addr{dst(2), dst(1)} })},
		{"scan destinations duplicate", session(keep), scan(func(s *Scan) { s.DstAddrs = []netip.Addr{dst(1), dst(1)} })},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := checkpoint.WriteBody(&buf, checkpoint.KindDetector, t0.Add(time.Minute),
			&craftedBody{cfg: cfg, session: tc.session, scan: tc.scan}, &checkpoint.Buffers[func(*checkpoint.Enc)]{}); err != nil {
			t.Fatal(err)
		}
		cr, err := checkpoint.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := RestoreShardedDetector(cr, 1)
		if tc.name != "valid" {
			if !errors.Is(err, checkpoint.ErrFormat) {
				t.Errorf("%s: restore error %v, want checkpoint.ErrFormat", tc.name, err)
			}
			if sd != nil {
				sd.Finish()
			}
			continue
		}
		if err != nil {
			t.Fatalf("valid: %v", err)
		}
		if err := sd.Finish(); err != nil {
			t.Fatal(err)
		}
		want := []string{canonical(goodScan), canonical(Scan{
			Source: netip.PrefixFrom(dst(0), 128), Level: netaddr6.Agg128, Start: t1, End: t1,
			Packets: 3, Dsts: 1, SrcAddrs: 1, DstAddrs: []netip.Addr{dst(1)},
			Ports:       []PortCount{svc(22, 2), svc(80, 1)},
			WeekPackets: []WeekCount{{-1, 1}, {0, 2}},
			LenEntropy:  (&keyCounts{keys: [4]uint32{60, 72}, counts: [4]uint32{2, 1}, n: 2}).normalizedEntropy(nil),
		})}
		var got []string
		for _, s := range sd.Merged().Scans(netaddr6.Agg128) {
			got = append(got, canonical(s))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("valid: scans after Finish\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
