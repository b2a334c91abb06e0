package sim

import (
	"testing"
	"time"

	"v6scan/internal/artifacts"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/scanner"
)

// runSixWeeks executes a six-week slice of the experiment once and
// shares the result across integration tests.
var sixWeeks *Result

func sixWeeksResult(t *testing.T) *Result {
	t.Helper()
	if sixWeeks != nil {
		return sixWeeks
	}
	cfg := QuickConfig(1200, 15, time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC), 42)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sixWeeks = res
	return res
}

func TestRunProducesScansAtAllLevels(t *testing.T) {
	res := sixWeeksResult(t)
	for _, lvl := range netaddr6.Levels() {
		if len(res.Scans(lvl)) == 0 {
			t.Errorf("no scans at %v", lvl)
		}
	}
	if res.RecordsGenerated == 0 || res.RecordsLogged == 0 || res.RecordsDetected == 0 {
		t.Errorf("counters: %+v", res)
	}
	// The collection policy and artifact filter must both bite.
	if res.RecordsLogged >= res.RecordsGenerated {
		t.Error("collection policy dropped nothing (TCP/80+443 exist in census)")
	}
	if res.RecordsDetected >= res.RecordsLogged {
		t.Error("artifact filter dropped nothing")
	}
}

func TestAggregationShapesTable1(t *testing.T) {
	res := sixWeeksResult(t)
	t128 := res.Detector.TotalsFor(netaddr6.Agg128)
	t64 := res.Detector.TotalsFor(netaddr6.Agg64)
	t48 := res.Detector.TotalsFor(netaddr6.Agg48)

	// Table 1 shape: scans at /128 far exceed scans at /64; packets
	// attributed grow (slightly) with coarser aggregation; /64 source
	// count is far below /128.
	if t128.Scans < 2*t64.Scans {
		t.Errorf("scans /128=%d /64=%d: expected ≥2x", t128.Scans, t64.Scans)
	}
	if t128.Sources <= t64.Sources {
		t.Errorf("sources /128=%d /64=%d", t128.Sources, t64.Sources)
	}
	if t48.Packets < t64.Packets || t64.Packets < t128.Packets {
		t.Errorf("packets not monotone: %d %d %d", t128.Packets, t64.Packets, t48.Packets)
	}
}

func TestTopTwoConcentration(t *testing.T) {
	res := sixWeeksResult(t)
	scans := res.Scans(netaddr6.Agg64)
	perSrc := map[string]uint64{}
	var total uint64
	for _, s := range scans {
		perSrc[s.Source.String()] += s.Packets
		total += s.Packets
	}
	var top1, top2 uint64
	for _, p := range perSrc {
		if p > top1 {
			top1, top2 = p, top1
		} else if p > top2 {
			top2 = p
		}
	}
	share := float64(top1+top2) / float64(total)
	if share < 0.55 {
		t.Errorf("top-2 source share = %.2f, want ≥0.55 (paper ≈0.70)", share)
	}
}

func TestArtifactsFiltered(t *testing.T) {
	res := sixWeeksResult(t)
	// No artifact client (eyeball space) may surface as a scan source.
	for _, s := range res.Scans(netaddr6.Agg64) {
		if artifacts.EyeballSpace.Contains(s.Source.Addr()) {
			t.Errorf("artifact source %v detected as scan", s.Source)
		}
	}
	// The filter's top services are the artifact ports.
	top := res.Filter.TopFilteredServices(2)
	if len(top) < 2 {
		t.Fatalf("filtered services: %+v", top)
	}
	names := map[string]bool{top[0].Service.String(): true, top[1].Service.String(): true}
	if !names["TCP/25"] && !names["UDP/500"] {
		t.Errorf("top filtered services %v, want TCP/25 and UDP/500", names)
	}
}

func TestNoExcludedPortsReachDetector(t *testing.T) {
	res := sixWeeksResult(t)
	for _, s := range res.Scans(netaddr6.Agg64) {
		for _, p := range s.Ports {
			svc := p.Service
			if svc.Proto == layers.ProtoTCP && (svc.Port == 80 || svc.Port == 443) {
				t.Fatalf("excluded port TCP/%d in scan from %v", svc.Port, s.Source)
			}
			if svc.Proto == layers.ProtoICMPv6 {
				t.Fatalf("ICMPv6 logged by CDN policy")
			}
		}
	}
}

func TestScanSourcesAttributable(t *testing.T) {
	res := sixWeeksResult(t)
	for _, s := range res.Scans(netaddr6.Agg64) {
		if _, _, ok := res.DB.Attribute(s.Source.Addr()); !ok {
			t.Errorf("scan source %v not attributable to an AS", s.Source)
		}
	}
}

func TestMultiPortDominatesPackets(t *testing.T) {
	// Figure 4 shape: most scan packets belong to scans targeting >100
	// ports (AS #1 pre-switch, AS #2, AS #3).
	res := sixWeeksResult(t)
	var total, over100 uint64
	for _, s := range res.Scans(netaddr6.Agg64) {
		total += s.Packets
		if s.Class() == 3 { // PortsOver100
			over100 += s.Packets
		}
	}
	if total == 0 {
		t.Fatal("no scan packets")
	}
	if share := float64(over100) / float64(total); share < 0.5 {
		t.Errorf(">100-port packet share = %.2f, want ≥0.5 (paper ≈0.8)", share)
	}
}

func TestAS18IsLargestSourcePopulation(t *testing.T) {
	// Paper: AS #18 contains ~80% of all /64 scan sources over the full
	// 15-month window. On a six-week slice we assert the weaker,
	// window-proportional property: AS #18 holds more distinct /64 scan
	// sources than any other AS.
	res := sixWeeksResult(t)
	perAS := map[int]map[string]bool{}
	for _, s := range res.Scans(netaddr6.Agg64) {
		as, _, ok := res.DB.Attribute(s.Source.Addr())
		if !ok {
			continue
		}
		if perAS[as.Number] == nil {
			perAS[as.Number] = map[string]bool{}
		}
		perAS[as.Number][s.Source.String()] = true
	}
	as18 := len(perAS[scanner.ASNOfRank(18)])
	for asn, srcs := range perAS {
		if asn != scanner.ASNOfRank(18) && len(srcs) > as18 {
			t.Errorf("AS%d has %d /64 sources > AS18's %d", asn, len(srcs), as18)
		}
	}
	if as18 == 0 {
		t.Fatal("AS18 produced no /64 scan sources")
	}
}

func TestThreshold50ExplodesSources(t *testing.T) {
	// Section 2.2 sensitivity: dropping the destination threshold from
	// 100 to 50 multiplies /64 sources, dominated by AS #18.
	start := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	strict := QuickConfig(1200, 15, start, 21)
	relaxed := QuickConfig(1200, 15, start, 21)
	relaxed.Detector.MinDsts = 50

	rs, err := Run(strict)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	nStrict := rs.Detector.TotalsFor(netaddr6.Agg64).Sources
	nRelaxed := rr.Detector.TotalsFor(netaddr6.Agg64).Sources
	if float64(nRelaxed) < 1.4*float64(nStrict) {
		t.Errorf("sources at 50 = %d vs at 100 = %d: expected ≥1.4x", nRelaxed, nStrict)
	}
	// The new sources must be dominated by AS #18 (paper: 92%).
	as18 := scanner.Alloc(scanner.ASNOfRank(18))
	n18 := 0
	seen := map[string]bool{}
	for _, s := range rr.Scans(netaddr6.Agg64) {
		if seen[s.Source.String()] {
			continue
		}
		seen[s.Source.String()] = true
		if as18.Contains(s.Source.Addr()) {
			n18++
		}
	}
	if n18*2 < nRelaxed-nStrict {
		t.Errorf("AS18 sources at threshold 50 = %d of %d new", n18, nRelaxed-nStrict)
	}
}

func TestTimeoutInsensitivity(t *testing.T) {
	// Section 2.2: shortening the timeout from 3600s to 900s loses only
	// a few percent of scans.
	start := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	long := QuickConfig(1200, 15, start, 21)
	short := QuickConfig(1200, 15, start, 21)
	short.Detector.Timeout = 900 * time.Second

	rl, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	rsh, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	nLong := rl.Detector.TotalsFor(netaddr6.Agg64).Scans
	nShort := rsh.Detector.TotalsFor(netaddr6.Agg64).Scans
	lo, hi := int(float64(nLong)*0.85), int(float64(nLong)*1.2)
	if nShort < lo || nShort > hi {
		t.Errorf("scans at 900s = %d vs 3600s = %d: expected within ≈15%%", nShort, nLong)
	}
}

func TestShardedRunMatchesSerial(t *testing.T) {
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	serial, err := Run(QuickConfig(600, 8, start, 7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig(600, 8, start, 7)
	cfg.Shards = 4
	sharded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.RecordsGenerated != sharded.RecordsGenerated ||
		serial.RecordsLogged != sharded.RecordsLogged ||
		serial.RecordsDetected != sharded.RecordsDetected {
		t.Errorf("counters differ: %d/%d/%d vs %d/%d/%d",
			serial.RecordsGenerated, serial.RecordsLogged, serial.RecordsDetected,
			sharded.RecordsGenerated, sharded.RecordsLogged, sharded.RecordsDetected)
	}
	for _, lvl := range netaddr6.Levels() {
		ss, sh := serial.Scans(lvl), sharded.Scans(lvl)
		if len(ss) != len(sh) {
			t.Fatalf("%v scan counts differ: %d vs %d", lvl, len(ss), len(sh))
		}
		for i := range ss {
			if ss[i].Source != sh[i].Source || ss[i].Packets != sh[i].Packets ||
				ss[i].Dsts != sh[i].Dsts || !ss[i].Start.Equal(sh[i].Start) {
				t.Fatalf("%v scan %d differs: %+v vs %+v", lvl, i, ss[i], sh[i])
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	a, err := Run(QuickConfig(600, 8, start, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(QuickConfig(600, 8, start, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.RecordsGenerated != b.RecordsGenerated || a.RecordsDetected != b.RecordsDetected {
		t.Errorf("counters differ: %d/%d vs %d/%d",
			a.RecordsGenerated, a.RecordsDetected, b.RecordsGenerated, b.RecordsDetected)
	}
	sa, sb := a.Scans(netaddr6.Agg64), b.Scans(netaddr6.Agg64)
	if len(sa) != len(sb) {
		t.Fatalf("scan counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Source != sb[i].Source || sa[i].Packets != sb[i].Packets {
			t.Fatalf("scan %d differs", i)
		}
	}
}
