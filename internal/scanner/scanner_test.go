package scanner

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"v6scan/internal/asdb"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
	"v6scan/internal/telescope"
)

func testTelescope(t *testing.T) (*telescope.Telescope, *asdb.DB) {
	t.Helper()
	cfg := telescope.DefaultConfig()
	cfg.Machines = 800
	cfg.ASes = 10
	db := asdb.New()
	tele, err := telescope.New(cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	return tele, db
}

func TestSingleSource(t *testing.T) {
	a := netaddr6.MustAddr("2001:db8::1")
	s := SingleSource{Addr: a}
	rng := rand.New(rand.NewSource(1))
	if s.BurstSource(3, 7, rng) != a || s.PacketSource(a, rng) != a {
		t.Error("SingleSource not constant")
	}
}

func TestRotatingSources(t *testing.T) {
	addrs := []netip.Addr{
		netaddr6.MustAddr("2001:db8::1"),
		netaddr6.MustAddr("2001:db8::2"),
		netaddr6.MustAddr("2001:db8::3"),
	}
	s := RotatingSources{Addrs: addrs, SlotsPerDay: 2}
	rng := rand.New(rand.NewSource(1))
	// Day 0 slots 0,1 → addrs[0],addrs[1]; day 1 slot 0 → addrs[2].
	if s.BurstSource(0, 0, rng) != addrs[0] || s.BurstSource(0, 1, rng) != addrs[1] || s.BurstSource(1, 0, rng) != addrs[2] {
		t.Error("rotation order wrong")
	}
}

func TestVaryLowBits(t *testing.T) {
	base1 := netaddr6.MustAddr("2001:db8:1::100")
	base2 := netaddr6.MustAddr("2001:db8:2::100")
	s := VaryLowBits{Bases: []netip.Addr{base1, base2}, Variants: 16}
	rng := rand.New(rand.NewSource(2))
	seen := map[netip.Addr]bool{}
	for i := 0; i < 2000; i++ {
		a := s.PacketSource(base1, rng)
		in1 := netaddr6.SameSlash(a, base1, 64)
		in2 := netaddr6.SameSlash(a, base2, 64)
		if !in1 && !in2 {
			t.Fatalf("source %s escaped both bases", a)
		}
		seen[a] = true
	}
	if len(seen) != 32 {
		t.Errorf("distinct /128s = %d, want 32", len(seen))
	}
}

func TestPairSweepAlternates(t *testing.T) {
	pairs := [][2]netip.Addr{
		{netaddr6.MustAddr("2001:db8::a"), netaddr6.MustAddr("2001:db8::b")},
		{netaddr6.MustAddr("2001:db8::c"), netaddr6.MustAddr("2001:db8::d")},
	}
	sw := &PairSweep{Pairs: pairs}
	rng := rand.New(rand.NewSource(1))
	want := []string{"2001:db8::a", "2001:db8::b", "2001:db8::c", "2001:db8::d", "2001:db8::a"}
	for i, w := range want {
		if got := sw.Target(rng); got != netaddr6.MustAddr(w) {
			t.Errorf("target %d = %s, want %s", i, got, w)
		}
	}
}

func TestMixPoolsShares(t *testing.T) {
	exp := []netip.Addr{netaddr6.MustAddr("2001:db8:e::1")}
	hid := []netip.Addr{netaddr6.MustAddr("2001:db8:f::1")}
	m := MixPools{Exposed: exp, Hidden: hid, HiddenShare: 0.5}
	rng := rand.New(rand.NewSource(3))
	nHid := 0
	for i := 0; i < 10000; i++ {
		if m.Target(rng) == hid[0] {
			nHid++
		}
	}
	if nHid < 4700 || nHid > 5300 {
		t.Errorf("hidden share = %d/10000, want ≈5000", nHid)
	}
}

func TestProgressivePorts(t *testing.T) {
	p := &ProgressivePorts{Ports: []uint16{10, 20, 30}, SlotsPerDay: 1}
	rng := rand.New(rand.NewSource(1))
	if got := p.BurstPorts(0, 0, rng); len(got) != 1 || got[0] != 10 {
		t.Errorf("day0: %v", got)
	}
	if got := p.BurstPorts(1, 0, rng); got[0] != 20 {
		t.Errorf("day1: %v", got)
	}
	if got := p.BurstPorts(3, 0, rng); got[0] != 10 {
		t.Errorf("wrap: %v", got)
	}
}

func TestWidePortRange(t *testing.T) {
	p := &WidePortRange{Lo: 100, Hi: 200, PerBurst: 50}
	rng := rand.New(rand.NewSource(1))
	ports := p.BurstPorts(0, 0, rng)
	if len(ports) != 50 {
		t.Fatalf("len = %d", len(ports))
	}
	for _, x := range ports {
		if x < 100 || x > 200 {
			t.Fatalf("port %d out of range", x)
		}
	}
}

func TestSwitchPorts(t *testing.T) {
	p := SwitchPorts{
		Before:    PortList{Ports: []uint16{1}},
		After:     PortList{Ports: []uint16{2}},
		SwitchDay: 10,
	}
	rng := rand.New(rand.NewSource(1))
	if p.BurstPorts(9, 0, rng)[0] != 1 || p.BurstPorts(10, 0, rng)[0] != 2 {
		t.Error("switch day wrong")
	}
}

func TestPortListN(t *testing.T) {
	l := portListN(444)
	if len(l) != 444 {
		t.Fatalf("len = %d", len(l))
	}
	seen := map[uint16]bool{}
	for _, p := range l {
		if seen[p] {
			t.Fatalf("duplicate port %d", p)
		}
		seen[p] = true
	}
	if !seen[22] || !seen[1433] {
		t.Error("common ports missing")
	}
}

func TestActorEmitDayDeterministic(t *testing.T) {
	tele, db := testTelescope(t)
	cfg := DefaultCensusConfig()
	c1, err := BuildCensus(cfg, tele, db)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := BuildCensus(cfg, tele, asdb.New())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	var r1, r2 []firewall.Record
	c1.EmitDay(day, func(r firewall.Record) { r1 = append(r1, r) })
	c2.EmitDay(day, func(r firewall.Record) { r2 = append(r2, r) })
	if len(r1) == 0 || len(r1) != len(r2) {
		t.Fatalf("lens: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestCensusBuilds(t *testing.T) {
	tele, db := testTelescope(t)
	c, err := BuildCensus(DefaultCensusConfig(), tele, db)
	if err != nil {
		t.Fatal(err)
	}
	// 20 major ranks (some as multiple sub-actors) + 40 minors.
	if len(c.Actors) < 60 {
		t.Errorf("actors = %d", len(c.Actors))
	}
	// Every major AS registered with its Table-2 type.
	as1, ok := db.AS(ASNOfRank(1))
	if !ok || as1.Type != asdb.TypeDatacenter || as1.Country != "CN" {
		t.Errorf("AS1 metadata: %+v", as1)
	}
	as18, _ := db.AS(ASNOfRank(18))
	if as18.Type != asdb.TypeCloudTransit {
		t.Errorf("AS18 type: %v", as18.Type)
	}
	// Every actor source address attributes back to its own AS.
	day := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	checked := 0
	c.EmitDay(day, func(r firewall.Record) {
		if checked >= 2000 {
			return
		}
		checked++
		as, _, ok := db.Attribute(r.Src)
		if !ok {
			t.Fatalf("source %s not attributable", r.Src)
		}
		if as.Number < MajorASNBase {
			t.Fatalf("source %s attributed to %d", r.Src, as.Number)
		}
	})
	if checked == 0 {
		t.Fatal("no records emitted")
	}
}

func TestCensusTargetsAreTelescopeAddrs(t *testing.T) {
	tele, db := testTelescope(t)
	c, err := BuildCensus(DefaultCensusConfig(), tele, db)
	if err != nil {
		t.Fatal(err)
	}
	inTele := map[netip.Addr]bool{}
	for _, addrs := range [][]netip.Addr{tele.ExposedAddrs(), tele.HiddenAddrs()} {
		for _, a := range addrs {
			inTele[a] = true
		}
	}
	day := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	n, miss := 0, 0
	c.EmitDay(day, func(r firewall.Record) {
		n++
		if !inTele[r.Dst] {
			miss++
		}
	})
	if n == 0 {
		t.Fatal("no records")
	}
	// Twin pools may include sampled duplicates but all must be
	// telescope addresses.
	if miss != 0 {
		t.Errorf("%d/%d targets outside telescope", miss, n)
	}
}

func TestAS9OnlyAfterNovember(t *testing.T) {
	tele, db := testTelescope(t)
	c, err := BuildCensus(DefaultCensusConfig(), tele, db)
	if err != nil {
		t.Fatal(err)
	}
	as9 := Alloc(ASNOfRank(9))
	count := func(day time.Time) int {
		n := 0
		c.EmitDay(day, func(r firewall.Record) {
			if as9.Contains(r.Src) {
				n++
			}
		})
		return n
	}
	if n := count(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)); n != 0 {
		t.Errorf("AS9 active in June: %d records", n)
	}
	if n := count(time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)); n == 0 {
		t.Error("AS9 inactive in December")
	}
}

func TestAS1PortSwitch(t *testing.T) {
	tele, db := testTelescope(t)
	c, err := BuildCensus(DefaultCensusConfig(), tele, db)
	if err != nil {
		t.Fatal(err)
	}
	as1 := Alloc(ASNOfRank(1))
	portsOn := func(day time.Time) map[uint16]bool {
		ports := map[uint16]bool{}
		c.EmitDay(day, func(r firewall.Record) {
			if as1.Contains(r.Src) {
				ports[r.DstPort] = true
			}
		})
		return ports
	}
	before := portsOn(time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC))
	after := portsOn(time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC))
	if len(before) < 300 {
		t.Errorf("pre-switch ports = %d, want ≈444", len(before))
	}
	if len(after) != 6 {
		t.Errorf("post-switch ports = %d, want 6", len(after))
	}
	for _, p := range []uint16{22, 80, 443, 3389, 8080, 8443} {
		if !after[p] {
			t.Errorf("post-switch missing port %d", p)
		}
	}
}

func TestAS18SingleService(t *testing.T) {
	tele, db := testTelescope(t)
	c, err := BuildCensus(DefaultCensusConfig(), tele, db)
	if err != nil {
		t.Fatal(err)
	}
	as18 := Alloc(ASNOfRank(18))
	day := time.Date(2021, 6, 2, 0, 0, 0, 0, time.UTC)
	srcs48 := map[netip.Prefix]bool{}
	c.EmitDay(day, func(r firewall.Record) {
		if !as18.Contains(r.Src) {
			return
		}
		if r.DstPort != 22 {
			t.Fatalf("AS18 targeted port %d", r.DstPort)
		}
		srcs48[netaddr6.Aggregate(r.Src, netaddr6.Agg48)] = true
	})
	if len(srcs48) < 2 {
		t.Errorf("AS18 /48 sources on one day = %d", len(srcs48))
	}
}

func TestTwinPoolsJaccard(t *testing.T) {
	tele, _ := testTelescope(t)
	rng := rand.New(rand.NewSource(5))
	a, b := twinPools(tele.ExposedAddrs(), tele.HiddenAddrs(), rng)
	setA := map[netip.Addr]bool{}
	for _, x := range a {
		setA[x] = true
	}
	inter, union := 0, len(setA)
	seenB := map[netip.Addr]bool{}
	for _, x := range b {
		if seenB[x] {
			continue
		}
		seenB[x] = true
		if setA[x] {
			inter++
		} else {
			union++
		}
	}
	j := float64(inter) / float64(union)
	if j < 0.70 || j > 0.86 {
		t.Errorf("twin Jaccard = %.2f, want ≈0.78", j)
	}
}

func TestDayIndex(t *testing.T) {
	if dayIndex(DefaultStart, AS1SwitchDate) != 146 {
		t.Errorf("May 27 index = %d", dayIndex(DefaultStart, AS1SwitchDate))
	}
	if dayIndex(DefaultStart, DefaultEnd) != 439 {
		t.Errorf("window days = %d", dayIndex(DefaultStart, DefaultEnd))
	}
}

func TestEmptyWindowRejected(t *testing.T) {
	tele, db := testTelescope(t)
	cfg := DefaultCensusConfig()
	cfg.End = cfg.Start
	if _, err := BuildCensus(cfg, tele, db); err == nil {
		t.Error("empty window accepted")
	}
}
