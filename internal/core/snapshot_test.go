package core

import (
	"bytes"
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
	if len(s) != 2 || s[0].NumPorts() != 40 || len(s[0].WeekPackets) != 6 || s[0].WeekPackets[-2] == 0 {
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
