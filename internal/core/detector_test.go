package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

var base = time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)

// mkRec builds a TCP record with fixed length 60.
func mkRec(ts time.Time, src, dst string, port uint16) firewall.Record {
	return firewall.Record{
		Time: ts, Src: netaddr6.MustAddr(src), Dst: netaddr6.MustAddr(dst),
		Proto: layers.ProtoTCP, SrcPort: 40000, DstPort: port, Length: 60,
	}
}

// feedScan pushes n packets from src to n distinct destinations,
// one second apart, starting at ts.
func feedScan(t *testing.T, d *Detector, ts time.Time, src string, n int, port uint16) time.Time {
	return feedScanOff(t, d, ts, src, n, 0, port)
}

// feedScanOff is feedScan with a destination-IID offset so successive
// calls target disjoint destination sets.
func feedScanOff(t *testing.T, d *Detector, ts time.Time, src string, n, off int, port uint16) time.Time {
	t.Helper()
	for i := 0; i < n; i++ {
		dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:aaaa::"), uint64(off+i+1))
		if err := d.Process(mkRec(ts, src, dst.String(), port)); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(time.Second)
	}
	return ts
}

func TestDetectSimpleScan(t *testing.T) {
	d := NewDetector(DefaultConfig())
	feedScan(t, d, base, "2001:db8:1::1", 150, 22)
	d.Finish()
	for _, lvl := range netaddr6.Levels() {
		scans := d.Scans(lvl)
		if len(scans) != 1 {
			t.Fatalf("%v: %d scans, want 1", lvl, len(scans))
		}
		s := scans[0]
		if s.Packets != 150 || s.Dsts != 150 || s.SrcAddrs != 1 {
			t.Errorf("%v: %+v", lvl, s)
		}
		if s.Level != lvl {
			t.Errorf("level mismatch: %v", s.Level)
		}
		if s.LenEntropy != 0 {
			t.Errorf("constant lengths should give zero entropy, got %v", s.LenEntropy)
		}
	}
}

func TestBelowThresholdNotDetected(t *testing.T) {
	d := NewDetector(DefaultConfig())
	feedScan(t, d, base, "2001:db8:1::1", 99, 22)
	d.Finish()
	if len(d.Scans(netaddr6.Agg64)) != 0 {
		t.Error("99 destinations should not qualify")
	}
	if d.Dropped(netaddr6.Agg64) != 1 {
		t.Errorf("dropped = %d", d.Dropped(netaddr6.Agg64))
	}
}

func TestExactThresholdDetected(t *testing.T) {
	d := NewDetector(DefaultConfig())
	feedScan(t, d, base, "2001:db8:1::1", 100, 22)
	d.Finish()
	if len(d.Scans(netaddr6.Agg64)) != 1 {
		t.Error("exactly 100 destinations should qualify")
	}
}

func TestTimeoutSplitsSessions(t *testing.T) {
	d := NewDetector(DefaultConfig())
	ts := feedScan(t, d, base, "2001:db8:1::1", 120, 22)
	// Gap of 61 minutes: session closes, second session opens.
	ts = ts.Add(61 * time.Minute)
	feedScan(t, d, ts, "2001:db8:1::1", 130, 23)
	d.Finish()
	scans := d.Scans(netaddr6.Agg64)
	if len(scans) != 2 {
		t.Fatalf("%d scans, want 2", len(scans))
	}
	if scans[0].Dsts != 120 || scans[1].Dsts != 130 {
		t.Errorf("dsts: %d/%d", scans[0].Dsts, scans[1].Dsts)
	}
}

func TestGapJustUnderTimeoutMerges(t *testing.T) {
	d := NewDetector(DefaultConfig())
	ts := feedScan(t, d, base, "2001:db8:1::1", 60, 22)
	ts = ts.Add(59 * time.Minute)
	feedScanOff(t, d, ts, "2001:db8:1::1", 60, 1000, 22)
	d.Finish()
	scans := d.Scans(netaddr6.Agg64)
	if len(scans) != 1 {
		t.Fatalf("%d scans, want 1 (merged)", len(scans))
	}
	if scans[0].Dsts != 120 {
		t.Errorf("dsts = %d", scans[0].Dsts)
	}
}

func TestAggregationLevelsDiffer(t *testing.T) {
	// 4 /64s in the same /48, each probing 30 distinct dsts: none
	// qualifies at /64 or /128, but the /48 aggregate (120 dsts) does.
	d := NewDetector(DefaultConfig())
	ts := base
	for j := 0; j < 4; j++ {
		src := fmt.Sprintf("2001:db8:1:%d::1", j)
		for i := 0; i < 30; i++ {
			dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:aaaa::"), uint64(j*1000+i+1))
			if err := d.Process(mkRec(ts, src, dst.String(), 22)); err != nil {
				t.Fatal(err)
			}
			ts = ts.Add(time.Second)
		}
	}
	d.Finish()
	if n := len(d.Scans(netaddr6.Agg128)); n != 0 {
		t.Errorf("/128 scans = %d, want 0", n)
	}
	if n := len(d.Scans(netaddr6.Agg64)); n != 0 {
		t.Errorf("/64 scans = %d, want 0", n)
	}
	scans48 := d.Scans(netaddr6.Agg48)
	if len(scans48) != 1 {
		t.Fatalf("/48 scans = %d, want 1", len(scans48))
	}
	if scans48[0].Dsts != 120 || scans48[0].SrcAddrs != 4 {
		t.Errorf("/48 scan: %+v", scans48[0])
	}
}

func TestSourceSpreadOverSlash64(t *testing.T) {
	// 10 /128s in one /64, 15 dsts each: only /64 and /48 qualify.
	d := NewDetector(DefaultConfig())
	ts := base
	for j := 0; j < 10; j++ {
		src := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:1:1::"), uint64(j+1))
		for i := 0; i < 15; i++ {
			dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:aaaa::"), uint64(j*100+i+1))
			if err := d.Process(mkRec(ts, src.String(), dst.String(), 22)); err != nil {
				t.Fatal(err)
			}
			ts = ts.Add(time.Second)
		}
	}
	d.Finish()
	if n := len(d.Scans(netaddr6.Agg128)); n != 0 {
		t.Errorf("/128 = %d, want 0", n)
	}
	s64 := d.Scans(netaddr6.Agg64)
	if len(s64) != 1 || s64[0].SrcAddrs != 10 || s64[0].Dsts != 150 {
		t.Errorf("/64 scans: %+v", s64)
	}
}

func TestRepeatDstsCountOnce(t *testing.T) {
	d := NewDetector(DefaultConfig())
	ts := base
	// 300 packets to only 50 distinct destinations.
	for i := 0; i < 300; i++ {
		dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:aaaa::"), uint64(i%50+1))
		if err := d.Process(mkRec(ts, "2001:db8:1::1", dst.String(), 22)); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(time.Second)
	}
	d.Finish()
	if len(d.Scans(netaddr6.Agg64)) != 0 {
		t.Error("50 distinct dsts should not qualify")
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	d := NewDetector(DefaultConfig())
	if err := d.Process(mkRec(base, "2001:db8::1", "2001:db8:a::1", 22)); err != nil {
		t.Fatal(err)
	}
	if err := d.Process(mkRec(base.Add(-time.Second), "2001:db8::1", "2001:db8:a::2", 22)); err == nil {
		t.Error("out-of-order record accepted")
	}
}

func TestAdvanceClosesIdleSessions(t *testing.T) {
	d := NewDetector(DefaultConfig())
	feedScan(t, d, base, "2001:db8:1::1", 120, 22)
	if d.OpenSessions(netaddr6.Agg64) != 1 {
		t.Fatal("expected one open session")
	}
	d.Advance(base.Add(3 * time.Hour))
	if d.OpenSessions(netaddr6.Agg64) != 0 {
		t.Error("Advance did not close idle session")
	}
	if len(d.Scans(netaddr6.Agg64)) != 1 {
		t.Error("closed session not emitted as scan")
	}
}

func TestTrackDsts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackDsts = true
	d := NewDetector(cfg)
	feedScan(t, d, base, "2001:db8:1::1", 110, 22)
	d.Finish()
	s := d.Scans(netaddr6.Agg64)[0]
	if len(s.DstAddrs) != 110 {
		t.Fatalf("DstAddrs = %d", len(s.DstAddrs))
	}
	// Sorted.
	for i := 1; i < len(s.DstAddrs); i++ {
		if s.DstAddrs[i-1].Compare(s.DstAddrs[i]) >= 0 {
			t.Fatal("DstAddrs not sorted")
		}
	}
}

func TestWeeklyAttribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WeekEpoch = base
	d := NewDetector(cfg)
	// A scan straddling a week boundary: packets every 30 min for 8 days.
	ts := base.Add(6 * 24 * time.Hour)
	for i := 0; i < 120; i++ {
		dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:aaaa::"), uint64(i+1))
		if err := d.Process(mkRec(ts, "2001:db8:1::1", dst.String(), 22)); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(30 * time.Minute)
	}
	d.Finish()
	scans := d.Scans(netaddr6.Agg64)
	if len(scans) != 1 {
		t.Fatalf("scans = %d", len(scans))
	}
	wp := scans[0].WeekPackets
	if len(wp) != 2 {
		t.Fatalf("weeks = %v", wp)
	}
	if wp[0].Week != 0 || wp[1].Week != 1 {
		t.Errorf("weeks = %v, want weeks 0 and 1 in order", wp)
	}
	if wp[0].Packets+wp[1].Packets != scans[0].Packets {
		t.Error("weekly packets don't sum to total")
	}
}

func TestSensitivityTimeout(t *testing.T) {
	// With a 15-minute timeout a 20-minute gap splits; with 1 hour it
	// merges — the Section 2.2 sensitivity experiment in miniature.
	for _, tc := range []struct {
		timeout time.Duration
		want    int
	}{
		{900 * time.Second, 0},  // split into two 60-dst halves → no scans
		{3600 * time.Second, 1}, // merged 120 dsts → one scan
	} {
		cfg := DefaultConfig()
		cfg.Timeout = tc.timeout
		d := NewDetector(cfg)
		ts := feedScan(t, d, base, "2001:db8:1::1", 60, 22)
		ts = ts.Add(20 * time.Minute)
		feedScanOff(t, d, ts, "2001:db8:1::1", 60, 1000, 22)
		d.Finish()
		if got := len(d.Scans(netaddr6.Agg64)); got != tc.want {
			t.Errorf("timeout %v: %d scans, want %d", tc.timeout, got, tc.want)
		}
	}
}

func TestTotalsFor(t *testing.T) {
	d := NewDetector(DefaultConfig())
	ts := feedScan(t, d, base, "2001:db8:1::1", 120, 22)
	ts = ts.Add(2 * time.Hour)
	ts = feedScan(t, d, ts, "2001:db8:1::1", 120, 22)
	ts = ts.Add(2 * time.Hour)
	feedScan(t, d, ts, "2001:db8:2::1", 150, 23)
	d.Finish()
	tot := d.TotalsFor(netaddr6.Agg64)
	if tot.Scans != 3 || tot.Sources != 2 || tot.Packets != 390 {
		t.Errorf("totals: %+v", tot)
	}
}

func TestScanDurationAndPorts(t *testing.T) {
	d := NewDetector(DefaultConfig())
	ts := base
	for i := 0; i < 200; i++ {
		dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:aaaa::"), uint64(i+1))
		port := uint16(22 + i%4)
		if err := d.Process(mkRec(ts, "2001:db8:1::1", dst.String(), port)); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(time.Second)
	}
	d.Finish()
	s := d.Scans(netaddr6.Agg64)[0]
	if s.Duration() != 199*time.Second {
		t.Errorf("duration %v", s.Duration())
	}
	if s.NumPorts() != 4 {
		t.Errorf("ports %d", s.NumPorts())
	}
	var sum uint64
	for _, p := range s.Ports {
		sum += p.Packets
	}
	if sum != s.Packets {
		t.Error("port packets don't sum to total")
	}
}

func TestManySourcesStress(t *testing.T) {
	// 200 interleaved sources, each scanning 120 dsts.
	d := NewDetector(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	ts := base
	next := make([]int, 200)
	remaining := 200 * 120
	for remaining > 0 {
		i := rng.Intn(len(next))
		if next[i] >= 120 {
			continue
		}
		src := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:5::"), uint64(i+1))
		dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:aaaa::"), uint64(i*1000+next[i]))
		if err := d.Process(mkRec(ts, src.String(), dst.String(), 22)); err != nil {
			t.Fatal(err)
		}
		next[i]++
		remaining--
		ts = ts.Add(10 * time.Millisecond)
	}
	d.Finish()
	if n := len(d.Scans(netaddr6.Agg128)); n != 200 {
		t.Errorf("/128 scans = %d, want 200", n)
	}
	// All share one /64 → single merged source there.
	if n := d.TotalsFor(netaddr6.Agg64).Sources; n != 1 {
		t.Errorf("/64 sources = %d, want 1", n)
	}
}

// TestFinishClosesFinalInstant: a session last active at the final
// instant of the checkpoint time axis still closes, and qualifies, at
// Finish — the drain closes every live session whatever its last
// activity.
func TestFinishClosesFinalInstant(t *testing.T) {
	d := NewDetector(Config{MinDsts: 2, Levels: []netaddr6.AggLevel{netaddr6.Agg128}})
	end := time.Unix(0, math.MaxInt64).UTC()
	feedScan(t, d, end.Add(-time.Second), "2001:db8:1::1", 2, 22)
	d.Finish()
	scans := d.Scans(netaddr6.Agg128)
	if len(scans) != 1 || !scans[0].End.Equal(end) || scans[0].Packets != 2 {
		t.Fatalf("Finish = %v, want one scan ending at %v", scans, end)
	}
	if n := d.OpenSessions(netaddr6.Agg128); n != 0 {
		t.Fatalf("%d sessions left after Finish", n)
	}
}
