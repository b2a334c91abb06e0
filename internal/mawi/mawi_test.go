package mawi

import (
	"bytes"
	"testing"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/entropy"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pipeline"
)

func testConfig(start time.Time, days int) Config {
	cfg := DefaultConfig()
	cfg.Start = start
	cfg.End = start.Add(time.Duration(days) * 24 * time.Hour)
	cfg.HitlistSize = 1000
	return cfg
}

func detectDay(t *testing.T, s *Simulator, day time.Time, mc core.MAWIConfig) []core.MAWIScan {
	t.Helper()
	det := core.NewMAWIDetector(mc)
	for _, r := range s.EmitDay(day) {
		det.Process(r)
	}
	return det.Finish()
}

func TestOrdinaryDayDetection(t *testing.T) {
	day := time.Date(2021, 3, 10, 0, 0, 0, 0, time.UTC)
	s := New(testConfig(day.Add(-24*time.Hour), 3))
	scans := detectDay(t, s, day, core.DefaultMAWIConfig())
	if len(scans) < 2 {
		t.Fatalf("scans = %d, want several (AS1 + ICMPv6 routine)", len(scans))
	}
	// AS1 must be among the detected sources and the most active.
	if !scans[0].Source.Contains(s.AS1Source()) {
		t.Errorf("top scan source %v is not AS1", scans[0].Source)
	}
	// ICMPv6 sources must be the majority of scan sources on a routine
	// day (paper: on 236 of 342 ICMPv6 days).
	icmp, other := 0, 0
	for _, sc := range scans {
		if sc.Services[0].Proto == layers.ProtoICMPv6 {
			icmp++
		} else {
			other++
		}
	}
	if icmp == 0 {
		t.Error("no ICMPv6 scan sources on a routine day")
	}
}

func TestBackgroundTrafficRejected(t *testing.T) {
	day := time.Date(2021, 3, 10, 0, 0, 0, 0, time.UTC)
	s := New(testConfig(day, 2))
	scans := detectDay(t, s, day, core.DefaultMAWIConfig())
	for _, sc := range scans {
		for _, svc := range sc.Services {
			// Background flows are on 80/443 with high length entropy and
			// >10 packets per destination; none may qualify.
			if svc.Proto == layers.ProtoTCP && (svc.Port == 443) && sc.Dsts < 100 {
				t.Errorf("background flow detected: %+v", sc)
			}
		}
	}
}

func TestFiveVsHundredThreshold(t *testing.T) {
	// Figure 5: the ≥5 destination bar yields an order of magnitude
	// more sources than ≥100.
	day := time.Date(2021, 4, 2, 0, 0, 0, 0, time.UTC)
	s := New(testConfig(day.Add(-24*time.Hour), 3))
	strict := core.DefaultMAWIConfig()
	loose := core.DefaultMAWIConfig()
	loose.MinDsts = 5
	nStrict := len(detectDay(t, s, day, strict))
	nLoose := len(detectDay(t, s, day, loose))
	if nLoose < 5*nStrict {
		t.Errorf("sources at ≥5 = %d vs ≥100 = %d: want ≥5x", nLoose, nStrict)
	}
}

func TestJuly6Peak(t *testing.T) {
	s := New(testConfig(July6Peak.Add(-24*time.Hour), 3))
	scans := detectDay(t, s, July6Peak, core.DefaultMAWIConfig())
	top := scans[0]
	if top.Services[0].Proto != layers.ProtoICMPv6 {
		t.Fatalf("top scan on Jul 6 not ICMPv6: %+v", top.Services)
	}
	// The peak comes from 7 sources within one /124 → at /64
	// aggregation a single source; HW of targets is low.
	hw := entropy.SummarizeHamming(entropy.HammingHistogram64(top.DstIIDs))
	if hw.Mean > 10 {
		t.Errorf("Jul 6 target HW mean %.1f, want low", hw.Mean)
	}
	if entropy.LooksGaussian(entropy.HammingHistogram64(top.DstIIDs)) {
		t.Error("Jul 6 targets misclassified as random")
	}
}

func TestDec24PeakGaussian(t *testing.T) {
	s := New(testConfig(Dec24Peak.Add(-24*time.Hour), 3))
	mc := core.DefaultMAWIConfig()
	mc.TrackDsts = true
	scans := detectDay(t, s, Dec24Peak, mc)
	top := scans[0]
	if !top.Source.Contains(s.Dec24Source()) {
		t.Fatalf("top scan on Dec 24 from %v", top.Source)
	}
	if top.Packets < 10000 {
		t.Errorf("Dec 24 peak packets = %d, want massive", top.Packets)
	}
	hist := entropy.HammingHistogram64(top.DstIIDs)
	if !entropy.LooksGaussian(hist) {
		st := entropy.SummarizeHamming(hist)
		t.Errorf("Dec 24 HW not Gaussian: mean %.1f σ %.1f", st.Mean, st.StdDev)
	}
	// Every packet targets a distinct /64.
	seen := map[string]bool{}
	dup := 0
	for _, a := range top.DstAddrs {
		k := netaddr6.Aggregate(a, netaddr6.Agg64).String()
		if seen[k] {
			dup++
		}
		seen[k] = true
	}
	if dup > len(top.DstAddrs)/100 {
		t.Errorf("Dec 24 scan repeats destination /64s: %d dups of %d", dup, len(top.DstAddrs))
	}
}

func TestHitlistOverlapMay27(t *testing.T) {
	cfg := testConfig(HitlistDay.Add(-24*time.Hour), 3)
	s := New(cfg)
	mc := core.DefaultMAWIConfig()
	mc.TrackDsts = true

	// May 26: essentially no hitlist overlap.
	before := detectDay(t, s, HitlistDay.Add(-24*time.Hour), mc)
	var as1Before *core.MAWIScan
	for i := range before {
		if before[i].Source.Contains(s.AS1Source()) {
			as1Before = &before[i]
		}
	}
	if as1Before == nil {
		t.Fatal("AS1 not detected on May 26")
	}
	if ov := hitlistOverlap(s, as1Before); ov > 0.05 {
		t.Errorf("May 26 hitlist overlap %.2f, want ≈0", ov)
	}

	// May 27: almost complete overlap, far fewer uniques.
	on := detectDay(t, s, HitlistDay, mc)
	var as1On *core.MAWIScan
	for i := range on {
		if on[i].Source.Contains(s.AS1Source()) {
			as1On = &on[i]
		}
	}
	if as1On == nil {
		t.Fatal("AS1 not detected on May 27")
	}
	if ov := hitlistOverlap(s, as1On); ov < 0.95 {
		t.Errorf("May 27 hitlist overlap %.2f, want ≈0.99", ov)
	}
	if as1On.Dsts >= as1Before.Dsts {
		t.Errorf("May 27 uniques (%d) should drop versus May 26 (%d)", as1On.Dsts, as1Before.Dsts)
	}
}

func hitlistOverlap(s *Simulator, sc *core.MAWIScan) float64 {
	if len(sc.DstAddrs) == 0 {
		return 0
	}
	n := 0
	for _, a := range sc.DstAddrs {
		if s.InHitlist(a) {
			n++
		}
	}
	return float64(n) / float64(len(sc.DstAddrs))
}

func TestAS1PortSetAtMAWI(t *testing.T) {
	// Unlike the CDN (which cannot see TCP/80+443), MAWI observes the
	// full six-port set after the switch.
	day := time.Date(2021, 8, 10, 0, 0, 0, 0, time.UTC)
	s := New(testConfig(day, 2))
	ports := map[uint16]bool{}
	for _, r := range s.EmitDay(day) {
		if r.Src == s.AS1Source() {
			ports[r.DstPort] = true
		}
	}
	if len(ports) != 6 || !ports[80] || !ports[443] {
		t.Errorf("AS1 MAWI ports = %v, want the six-port set", ports)
	}
}

func TestPcapRoundTrip(t *testing.T) {
	day := time.Date(2021, 3, 10, 0, 0, 0, 0, time.UTC)
	s := New(testConfig(day, 2))
	recs := s.EmitDay(day)
	var buf bytes.Buffer
	if err := WritePcapDay(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var got []firewall.Record
	src := pipeline.NewPcapSource(&buf)
	if err := src.EmitBatch(0, func(recs []firewall.Record) error {
		got = append(got, recs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if src.Skipped() != 0 {
		t.Fatalf("round trip skipped %d packets", src.Skipped())
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip: %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Src != recs[i].Src || got[i].Dst != recs[i].Dst ||
			got[i].Proto != recs[i].Proto || got[i].DstPort != recs[i].DstPort {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		if !got[i].Time.Equal(recs[i].Time) {
			t.Fatalf("record %d timestamp mismatch", i)
		}
	}
	// Detection over the round-tripped records must agree.
	d1 := core.NewMAWIDetector(core.DefaultMAWIConfig())
	d2 := core.NewMAWIDetector(core.DefaultMAWIConfig())
	for _, r := range recs {
		d1.Process(r)
	}
	for _, r := range got {
		d2.Process(r)
	}
	s1, s2 := d1.Finish(), d2.Finish()
	if len(s1) != len(s2) {
		t.Fatalf("detection differs after round trip: %d vs %d", len(s1), len(s2))
	}
}

func TestEmitDayDeterministic(t *testing.T) {
	day := time.Date(2021, 6, 6, 0, 0, 0, 0, time.UTC)
	a := New(testConfig(day, 2)).EmitDay(day)
	b := New(testConfig(day, 2)).EmitDay(day)
	if len(a) != len(b) {
		t.Fatalf("lens differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestICMPv6DayShare(t *testing.T) {
	start := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	s := New(testConfig(start, 18))
	icmpDays := 0
	total := 0
	s.Days(func(day time.Time) {
		total++
		for _, sc := range detectDay(t, s, day, core.DefaultMAWIConfig()) {
			if sc.Services[0].Proto == layers.ProtoICMPv6 {
				icmpDays++
				break
			}
		}
	})
	share := float64(icmpDays) / float64(total)
	if share < 0.6 || share > 0.95 {
		t.Errorf("ICMPv6 days share = %.2f, want ≈0.78", share)
	}
}

func TestHitlistProperties(t *testing.T) {
	s := New(testConfig(time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC), 2))
	if len(s.Hitlist()) < 900 {
		t.Fatalf("hitlist size %d", len(s.Hitlist()))
	}
	for _, a := range s.Hitlist()[:100] {
		if !s.InHitlist(a) {
			t.Fatal("hitlist membership broken")
		}
		if netaddr6.HammingWeightIID(a) > 3 {
			t.Fatalf("hitlist address %s not structured", a)
		}
	}
}
