package scanner

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"v6scan/internal/asdb"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/telescope"
)

// CensusConfig configures the synthetic scan-actor population.
type CensusConfig struct {
	// Start and End bound the simulation window; the paper's window is
	// DefaultStart/DefaultEnd. Actors with absolute-dated behaviour
	// (AS #1's May 2021 port switch, AS #9 appearing in November 2021)
	// key off real dates, so shorter windows naturally include or
	// exclude them.
	Start, End time.Time
	// Seed drives all actor randomness.
	Seed int64
	// Minors enables the ~40 low-volume scan ASes beyond the Table-2
	// top 20.
	Minors bool
}

// Paper measurement window (Section 2.1).
var (
	DefaultStart = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	DefaultEnd   = time.Date(2022, 3, 16, 0, 0, 0, 0, time.UTC)
	// AS1SwitchDate is when the most active scanner switched from ≈444
	// ports to a handful (Section 3.3, May 2021; the MAWI cross-check
	// pins it to May 27).
	AS1SwitchDate = time.Date(2021, 5, 27, 0, 0, 0, 0, time.UTC)
	// AS9StartDate is when the AS #9 entity appears, causing the /128
	// source uptick of Figure 2.
	AS9StartDate = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
)

// DefaultCensusConfig returns the full-window configuration.
func DefaultCensusConfig() CensusConfig {
	return CensusConfig{Start: DefaultStart, End: DefaultEnd, Seed: 7, Minors: true}
}

// ScanSpace is the address space scan-actor allocations are carved
// from; each actor AS receives a /32 (the typical RIR allocation size
// the paper highlights).
var ScanSpace = netaddr6.MustPrefix("2c00::/12")

// MajorASNBase numbers the Table-2 actors: rank r lives in ASN
// MajorASNBase+r.
const MajorASNBase = 65000

// MinorASNBase numbers the low-volume actors.
const MinorASNBase = 65100

// Census is the built actor population.
type Census struct {
	Actors []*Actor
	Start  time.Time
	End    time.Time
}

// ASNOfRank returns the AS number assigned to Table-2 rank r (1-based).
func ASNOfRank(r int) int { return MajorASNBase + r }

// Alloc returns the /32 allocated to the given actor ASN.
func Alloc(asn int) netip.Prefix {
	return netaddr6.NthSubprefix(ScanSpace, 32, uint64(asn-MajorASNBase))
}

// rankMeta describes the Table-2 AS labels.
var rankMeta = []struct {
	typ     asdb.Type
	country string
}{
	{asdb.TypeDatacenter, "CN"},    // #1
	{asdb.TypeDatacenter, "CN"},    // #2
	{asdb.TypeCybersecurity, "US"}, // #3
	{asdb.TypeCloud, "US"},         // #4
	{asdb.TypeCloud, "DE"},         // #5
	{asdb.TypeCloud, "US"},         // #6
	{asdb.TypeCloud, "US"},         // #7
	{asdb.TypeCloud, "CN"},         // #8
	{asdb.TypeTransit, "ZZ"},       // #9 (global)
	{asdb.TypeCloud, "CN"},         // #10
	{asdb.TypeCloud, "US"},         // #11
	{asdb.TypeDatacenter, "CN"},    // #12
	{asdb.TypeISP, "VN"},           // #13
	{asdb.TypeDatacenter, "CN"},    // #14
	{asdb.TypeResearch, "DE"},      // #15
	{asdb.TypeISP, "RU"},           // #16
	{asdb.TypeUniversity, "DE"},    // #17
	{asdb.TypeCloudTransit, "DE"},  // #18
	{asdb.TypeISP, "RU"},           // #19
	{asdb.TypeUniversity, "DE"},    // #20
}

// BuildCensus constructs the actor population against a telescope,
// registering every scan AS and allocation in db.
func BuildCensus(cfg CensusConfig, tele *telescope.Telescope, db *asdb.DB) (*Census, error) {
	if !cfg.End.After(cfg.Start) {
		return nil, fmt.Errorf("scanner: empty census window %v..%v", cfg.Start, cfg.End)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Census{Start: cfg.Start, End: cfg.End}

	// Register the Table-2 ASes.
	for r := 1; r <= 20; r++ {
		m := rankMeta[r-1]
		asn := ASNOfRank(r)
		db.AddAS(asdb.AS{Number: asn, Name: fmt.Sprintf("scan-as-%d", r), Type: m.typ, Country: m.country})
		if err := db.Allocate(Alloc(asn), asn, asdb.KindRIRAllocation); err != nil {
			return nil, err
		}
	}

	exposed := tele.ExposedAddrs()
	hidden := tele.HiddenAddrs()
	if len(exposed) == 0 {
		return nil, fmt.Errorf("scanner: telescope has no addresses")
	}
	switchIdx := dayIndex(cfg.Start, AS1SwitchDate)

	// --- Rank 1: single /128, 39% of packets, port-set switch in May,
	// one months-long continuous scan session.
	as1src := hostInAlloc(ASNOfRank(1), 0, 0, 1)
	c.add(&Actor{
		Name: "as1-datacenter-cn", ASN: ASNOfRank(1), Proto: layers.ProtoTCP, PktLen: 60,
		Sources: SingleSource{Addr: as1src},
		Targets: MixPools{Exposed: exposed, Hidden: sample(hidden, len(hidden)/5, rng), HiddenShare: 0.15},
		Ports:   SwitchPorts{Before: PortList{Ports: portList444()}, After: PortList{Ports: []uint16{22, 80, 443, 3389, 8080, 8443}}, SwitchDay: switchIdx},
		Phases: []Phase{
			{From: DefaultStart, To: AS1SwitchDate, Continuous: true, SlotsPerDay: 1, PacketsPerBurst: 2940},
			{From: AS1SwitchDate, To: DefaultEnd, SlotsPerDay: 2, PacketsPerBurst: 600,
				WindowStart: 2 * time.Hour, SlotSpacing: 8 * time.Hour, BurstLen: 45 * time.Minute},
		},
		Seed: cfg.Seed ^ 0x101,
	})

	// --- Rank 2: five /128s in one /64 rotating 15-minute slots over a
	// 3-hour daily window: short /128 sessions, one continuous /64
	// session per day. 635-port list.
	as2srcs := hostsInSame64(ASNOfRank(2), 5)
	c.add(&Actor{
		Name: "as2-datacenter-cn", ASN: ASNOfRank(2), Proto: layers.ProtoTCP, PktLen: 60,
		Sources: RotatingSources{Addrs: as2srcs, SlotsPerDay: 12},
		Targets: MixPools{Exposed: exposed, Hidden: sample(hidden, len(hidden)/10, rng), HiddenShare: 0.05},
		Ports:   PortList{Ports: portList635()},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 12, PacketsPerBurst: 133,
			WindowStart: 6 * time.Hour, SlotSpacing: 15 * time.Minute, BurstLen: 2 * time.Minute}},
		Seed: cfg.Seed ^ 0x102,
	})

	// --- Rank 3: US cybersecurity, 12 /128s in one /64, nearly the
	// whole TCP port space.
	as3srcs := hostsInSame64(ASNOfRank(3), 12)
	c.add(&Actor{
		Name: "as3-cybersec-us", ASN: ASNOfRank(3), Proto: layers.ProtoTCP, PktLen: 64,
		Sources: RotatingSources{Addrs: as3srcs, SlotsPerDay: 5},
		Targets: MixPools{Exposed: exposed, Hidden: sample(hidden, len(hidden)/6, rng), HiddenShare: 0.15},
		Ports:   &WidePortRange{Lo: 1, Hi: 45000, PerBurst: 100},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 5, PacketsPerBurst: 114,
			WindowStart: 11 * time.Hour, SlotSpacing: 10 * time.Minute, BurstLen: 3 * time.Minute}},
		Seed: cfg.Seed ^ 0x103,
	})

	// --- Rank 4: cloud, many per-VM /128s over two /64s in two /48s;
	// progressive single-port episodes (the Appendix A.3 entity that
	// inflates single-port /128 scan counts).
	as4srcs := vmAddrs(ASNOfRank(4), 2, 64)
	c.add(&Actor{
		Name: "as4-cloud-us", ASN: ASNOfRank(4), Proto: layers.ProtoTCP, PktLen: 60,
		Sources: RotatingSources{Addrs: as4srcs, SlotsPerDay: 1},
		Targets: PoolTargets{Pool: exposed},
		Ports:   &ProgressivePorts{Ports: portListN(200), SlotsPerDay: 1},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 1, PacketsPerBurst: 110,
			WindowStart: 4 * time.Hour, BurstLen: 10 * time.Minute}},
		Seed: cfg.Seed ^ 0x104,
	})

	// --- Rank 5: cloud DE, 59 /64s (one address each) across 3 /48s.
	as5srcs := spread64s(ASNOfRank(5), 3, 59)
	c.add(&Actor{
		Name: "as5-cloud-de", ASN: ASNOfRank(5), Proto: layers.ProtoTCP, PktLen: 60,
		Sources: RotatingSources{Addrs: as5srcs, SlotsPerDay: 1},
		Targets: PoolTargets{Pool: exposed},
		Ports:   PortList{Ports: commonPorts()[:12]},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 1, PacketsPerBurst: 110,
			WindowStart: 9 * time.Hour, BurstLen: 20 * time.Minute}},
		Seed: cfg.Seed ^ 0x105,
	})

	// --- Rank 6: cloud with >/96 customer allocations. Two "twin"
	// /64s share a target pool (Appendix A.4: common-actor evidence,
	// Jaccard ≈ 78%, one twin 3× the other's volume), plus a rest
	// population.
	poolA, poolB := twinPools(exposed, hidden, rng)
	twinA, twinB := hostInAlloc(ASNOfRank(6), 0, 0, 1), hostInAlloc(ASNOfRank(6), 1, 0, 1)
	c.add(&Actor{
		Name: "as6-twin-a", ASN: ASNOfRank(6), Proto: layers.ProtoTCP, PktLen: 60,
		Sources: SingleSource{Addr: twinA},
		Targets: PoolTargets{Pool: poolA},
		Ports:   &WidePortRange{Lo: 1, Hi: 65535, PerBurst: 110},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 1, PacketsPerBurst: 165,
			WindowStart: 13 * time.Hour, BurstLen: 30 * time.Minute}},
		Seed: cfg.Seed ^ 0x106,
	})
	c.add(&Actor{
		Name: "as6-twin-b", ASN: ASNOfRank(6), Proto: layers.ProtoTCP, PktLen: 60,
		Sources: SingleSource{Addr: twinB},
		Targets: PoolTargets{Pool: poolB},
		Ports:   &WidePortRange{Lo: 1, Hi: 65535, PerBurst: 110},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 1, PacketsPerBurst: 110,
			WindowStart: 15 * time.Hour, BurstLen: 30 * time.Minute, EveryNthDay: 2, DayOffset: 1}},
		Seed: cfg.Seed ^ 0x107,
	})
	as6rest := vmAddrs(ASNOfRank(6), 13, 3) // 13 /64s × 3 VMs
	c.add(&Actor{
		Name: "as6-rest", ASN: ASNOfRank(6), Proto: layers.ProtoTCP, PktLen: 60,
		Sources: RotatingSources{Addrs: as6rest, SlotsPerDay: 1},
		Targets: MixPools{Exposed: exposed, Hidden: sample(hidden, len(hidden)/8, rng), HiddenShare: 0.35},
		Ports:   PortList{Ports: commonPorts()},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 1, PacketsPerBurst: 110,
			WindowStart: 17 * time.Hour, BurstLen: 15 * time.Minute, EveryNthDay: 3, DayOffset: 2}},
		Seed: cfg.Seed ^ 0x108,
	})

	// --- Ranks 7, 8: mid-size clouds.
	c.add(&Actor{
		Name: "as7-cloud-us", ASN: ASNOfRank(7), Proto: layers.ProtoTCP, PktLen: 60,
		Sources: RotatingSources{Addrs: spreadVMs(ASNOfRank(7), 9, 4), SlotsPerDay: 1},
		Targets: PoolTargets{Pool: exposed},
		Ports:   PortList{Ports: commonPorts()[:16]},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 1, PacketsPerBurst: 150,
			WindowStart: 3 * time.Hour, BurstLen: 20 * time.Minute, EveryNthDay: 2, DayOffset: 1}},
		Seed: cfg.Seed ^ 0x109,
	})
	c.add(&Actor{
		Name: "as8-cloud-cn", ASN: ASNOfRank(8), Proto: layers.ProtoTCP, PktLen: 60,
		Sources: RotatingSources{Addrs: spreadVMs(ASNOfRank(8), 5, 4), SlotsPerDay: 2},
		Targets: PoolTargets{Pool: exposed},
		Ports:   PortList{Ports: commonPorts()[:10]},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 2, PacketsPerBurst: 110,
			WindowStart: 7 * time.Hour, SlotSpacing: 3 * time.Hour, BurstLen: 15 * time.Minute, EveryNthDay: 4}},
		Seed: cfg.Seed ^ 0x10a,
	})

	// --- Rank 9: the November 2021 entity: continuous stream, source
	// low bits varied per packet across two /64s of one /48 — the sole
	// cause of the /128-source uptick in Figure 2.
	as9a := hostInAlloc(ASNOfRank(9), 0, 0, 0x100)
	as9b := hostInAlloc(ASNOfRank(9), 0, 1, 0x100)
	c.add(&Actor{
		Name: "as9-security-backbone", ASN: ASNOfRank(9), Proto: layers.ProtoTCP, PktLen: 60,
		Sources: VaryLowBits{Bases: []netip.Addr{as9a, as9b}, Variants: 16},
		Targets: MixPools{Exposed: exposed, Hidden: hidden, HiddenShare: 0.5},
		Ports:   PortList{Ports: []uint16{22, 80, 443, 8443}},
		Phases:  []Phase{{From: AS9StartDate, To: DefaultEnd, Continuous: true, SlotsPerDay: 1, PacketsPerBurst: 1000}},
		Seed:    cfg.Seed ^ 0x10b,
	})

	// --- Ranks 10–17, 19, 20: small single-prefix scanners.
	smalls := []struct {
		rank, n128 int
		everyNth   int
		ports      []uint16
	}{
		{10, 7, 5, commonPorts()[:8]},
		{11, 40, 11, commonPorts()[:6]},
		{12, 19, 15, commonPorts()[:10]},
		{13, 1, 20, []uint16{23}},
		{14, 2, 30, []uint16{22, 23}},
		{15, 1, 45, commonPorts()[:20]},
		{16, 2, 55, []uint16{22}},
		{17, 2, 60, commonPorts()[:30]},
		{19, 1, 70, []uint16{1433}},
		{20, 1, 80, commonPorts()[:25]},
	}
	for i, s := range smalls {
		var srcs []netip.Addr
		if s.rank == 12 {
			srcs = spreadVMs(ASNOfRank(s.rank), 12, 2)[:19] // 19 /128s over 12 /64s, 9 /48s
		} else {
			srcs = hostsInSame64(ASNOfRank(s.rank), s.n128)
		}
		c.add(&Actor{
			Name: fmt.Sprintf("as%d-small", s.rank), ASN: ASNOfRank(s.rank), Proto: layers.ProtoTCP, PktLen: 60,
			Sources: RotatingSources{Addrs: srcs, SlotsPerDay: 1},
			Targets: PoolTargets{Pool: exposed},
			Ports:   PortList{Ports: s.ports},
			Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 1, PacketsPerBurst: 110,
				WindowStart: time.Duration(5+i) * time.Hour, BurstLen: 12 * time.Minute,
				EveryNthDay: s.everyNth, DayOffset: 3 * i}},
			Seed: cfg.Seed ^ int64(0x200+i),
		})
	}

	// --- Rank 18: the /32 case study. A German security company
	// sources scans from across its entire /32: hundreds of /64s (one
	// address each), probing only TCP/22, sweeping machine pairs
	// exposed-then-hidden.
	c.addAS18(cfg, tele, rng)

	// --- Minor ASes beyond the top 20.
	if cfg.Minors {
		c.addMinors(cfg, db, exposed, rng)
	}
	return c, nil
}

// addAS18 builds the four sub-populations of the AS #18 entity:
// "strong" /64s that meet the 100-destination bar individually,
// mid-tier /64s (50–99 destinations) that explode the source count
// when the threshold is relaxed to 50, /48-clustered /64s whose
// combined traffic qualifies only at /48 aggregation, and weak /64s
// only visible at /32 aggregation.
func (c *Census) addAS18(cfg CensusConfig, tele *telescope.Telescope, rng *rand.Rand) {
	asn := ASNOfRank(18)
	pairs := machinePairs(tele, rng)

	strong := make([]netip.Addr, 200)
	for i := range strong {
		strong[i] = hostInAlloc(asn, i, 0, 1) // own /48 each
	}
	c.add(&Actor{
		Name: "as18-strong", ASN: asn, Proto: layers.ProtoTCP, PktLen: 60,
		Sources: RotatingSources{Addrs: strong, SlotsPerDay: 1},
		Targets: &PairSweep{Pairs: pairs},
		Ports:   SinglePort{Port: 22},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 2, PacketsPerBurst: 115,
			WindowStart: 1 * time.Hour, SlotSpacing: 3 * time.Hour, BurstLen: 25 * time.Minute}},
		Seed: cfg.Seed ^ 0x300,
	})

	mid := make([]netip.Addr, 1000)
	for i := range mid {
		mid[i] = hostInAlloc(asn, 200+i, 0, 1) // own /48 each
	}
	c.add(&Actor{
		Name: "as18-mid", ASN: asn, Proto: layers.ProtoTCP, PktLen: 60,
		Sources: RotatingSources{Addrs: mid, SlotsPerDay: 4},
		Targets: &PairSweep{Pairs: pairs},
		Ports:   SinglePort{Port: 22},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 4, PacketsPerBurst: 52,
			WindowStart: 5 * time.Hour, SlotSpacing: 40 * time.Minute, BurstLen: 20 * time.Minute}},
		Seed: cfg.Seed ^ 0x301,
	})

	// 48 /64s packed four per /48; the four fire in consecutive
	// 20-minute slots so the covering /48 session accrues ≥100
	// destinations while each /64 stays below the bar.
	shared := make([]netip.Addr, 48)
	for i := range shared {
		shared[i] = hostInAlloc(asn, 700+i/4, i%4, 1)
	}
	c.add(&Actor{
		Name: "as18-shared48", ASN: asn, Proto: layers.ProtoTCP, PktLen: 60,
		Sources: RotatingSources{Addrs: shared, SlotsPerDay: 4},
		Targets: &PairSweep{Pairs: pairs},
		Ports:   SinglePort{Port: 22},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 4, PacketsPerBurst: 60,
			WindowStart: 9 * time.Hour, SlotSpacing: 20 * time.Minute, BurstLen: 15 * time.Minute, EveryNthDay: 12}},
		Seed: cfg.Seed ^ 0x302,
	})

	weak := make([]netip.Addr, 250)
	for i := range weak {
		weak[i] = hostInAlloc(asn, 1000+i, 0, 1)
	}
	c.add(&Actor{
		Name: "as18-weak", ASN: asn, Proto: layers.ProtoTCP, PktLen: 60,
		Sources: RotatingSources{Addrs: weak, SlotsPerDay: 2},
		Targets: &PairSweep{Pairs: pairs},
		Ports:   SinglePort{Port: 22},
		Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 2, PacketsPerBurst: 15,
			WindowStart: 8 * time.Hour, SlotSpacing: time.Hour, BurstLen: 10 * time.Minute}},
		Seed: cfg.Seed ^ 0x303,
	})
}

// addMinors registers ~40 low-volume scan ASes in three styles whose
// detectability differs by aggregation level, producing the increasing
// AS counts of Table 1 (/128 < /64 < /48).
func (c *Census) addMinors(cfg CensusConfig, db *asdb.DB, exposed []netip.Addr, rng *rand.Rand) {
	singlePorts := []uint16{1433, 22, 23, 21, 8080, 3389, 8000, 3128, 110, 8443, 5900, 993, 995, 8888, 8081}
	for i := 0; i < 40; i++ {
		asn := MinorASNBase + i
		db.AddAS(asdb.AS{Number: asn, Name: fmt.Sprintf("minor-scan-as-%d", i), Type: minorType(i), Country: minorCountry(i)})
		alloc := netaddr6.NthSubprefix(ScanSpace, 32, uint64(asn-MajorASNBase))
		if err := db.Allocate(alloc, asn, asdb.KindRIRAllocation); err != nil {
			panic("scanner: minor allocation: " + err.Error())
		}
		style := i % 8 // 0–2: single /128; 3–5: spread over /64; 6–7: spread over /48
		var a *Actor
		switch {
		case style < 3:
			// Detected at every aggregation level.
			a = &Actor{
				Name: fmt.Sprintf("minor%d-single128", i), ASN: asn, Proto: layers.ProtoTCP, PktLen: 60,
				Sources: SingleSource{Addr: hostInAllocASN(alloc, 0, 0, 1)},
				Targets: PoolTargets{Pool: exposed},
				Ports:   PortList{Ports: []uint16{singlePorts[i%len(singlePorts)]}},
				Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 1, PacketsPerBurst: 110 + 5*(i%10),
					WindowStart: time.Duration(i%20) * time.Hour, BurstLen: 10 * time.Minute, EveryNthDay: 40 + i, DayOffset: 7 * i}},
			}
		case style < 6:
			// Six /128s in one /64, interleaved 10-minute slots: the /64
			// qualifies, no individual /128 does.
			srcs := make([]netip.Addr, 6)
			for j := range srcs {
				srcs[j] = hostInAllocASN(alloc, 0, 0, uint64(j+1))
			}
			a = &Actor{
				Name: fmt.Sprintf("minor%d-spread64", i), ASN: asn, Proto: layers.ProtoTCP, PktLen: 60,
				Sources: RotatingSources{Addrs: srcs, SlotsPerDay: 6},
				Targets: PoolTargets{Pool: exposed},
				Ports:   PortList{Ports: commonPorts()[:4+(i%6)]},
				Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 6, PacketsPerBurst: 25,
					WindowStart: time.Duration(i%20) * time.Hour, SlotSpacing: 10 * time.Minute, BurstLen: 8 * time.Minute, EveryNthDay: 30 + i, DayOffset: 5 * i}},
			}
		default:
			// Four /64s in one /48, interleaved: only the /48 qualifies.
			srcs := make([]netip.Addr, 4)
			for j := range srcs {
				srcs[j] = hostInAllocASN(alloc, 0, j, 1)
			}
			a = &Actor{
				Name: fmt.Sprintf("minor%d-spread48", i), ASN: asn, Proto: layers.ProtoTCP, PktLen: 60,
				Sources: RotatingSources{Addrs: srcs, SlotsPerDay: 4},
				Targets: PoolTargets{Pool: exposed},
				Ports:   PortList{Ports: commonPorts()[:3+(i%5)]},
				Phases: []Phase{{From: DefaultStart, To: DefaultEnd, SlotsPerDay: 4, PacketsPerBurst: 30,
					WindowStart: time.Duration(i%20) * time.Hour, SlotSpacing: 15 * time.Minute, BurstLen: 10 * time.Minute, EveryNthDay: 40 + i, DayOffset: 11 * i}},
			}
		}
		a.Seed = cfg.Seed ^ int64(0x400+i)
		c.add(a)
	}
	_ = rng
}

func minorType(i int) asdb.Type {
	types := []asdb.Type{asdb.TypeCloud, asdb.TypeDatacenter, asdb.TypeResearch, asdb.TypeCybersecurity, asdb.TypeUniversity}
	return types[i%len(types)]
}

func minorCountry(i int) string {
	countries := []string{"US", "DE", "CN", "NL", "FR", "GB", "JP", "RU"}
	return countries[i%len(countries)]
}

func (c *Census) add(a *Actor) { c.Actors = append(c.Actors, a) }

// EmitDay generates every actor's probes for one UTC day. Output order
// is per-actor chronological but not globally sorted; callers sort the
// day's records before feeding detectors.
func (c *Census) EmitDay(day time.Time, emit func(r firewall.Record)) {
	idx := dayIndex(c.Start, day)
	for _, a := range c.Actors {
		a.EmitDay(day, idx, emit)
	}
}

// dayIndex returns the whole days between start and t (may be
// negative).
func dayIndex(start, t time.Time) int {
	return int(t.Sub(start) / (24 * time.Hour))
}

// --- address construction helpers ---

// hostInAlloc returns address ::hostIID in the sub64-th /64 of the
// sub48-th /48 of the actor's /32.
func hostInAlloc(asn, sub48, sub64 int, hostIID uint64) netip.Addr {
	return hostInAllocASN(Alloc(asn), sub48, sub64, hostIID)
}

func hostInAllocASN(alloc netip.Prefix, sub48, sub64 int, hostIID uint64) netip.Addr {
	p48 := netaddr6.NthSubprefix(alloc, 48, uint64(sub48))
	p64 := netaddr6.NthSubprefix(p48, 64, uint64(sub64))
	return netaddr6.WithIID(p64.Addr(), hostIID)
}

// hostsInSame64 returns n host addresses ::1..::n in the actor's first
// /64.
func hostsInSame64(asn, n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = hostInAlloc(asn, 0, 0, uint64(i+1))
	}
	return out
}

// vmAddrs returns per64 addresses in each of n64 /64s, the /64s split
// across two /48s — cloud tenants with very specific allocations.
func vmAddrs(asn, n64, per64 int) []netip.Addr {
	out := make([]netip.Addr, 0, n64*per64)
	for i := 0; i < n64; i++ {
		for j := 0; j < per64; j++ {
			out = append(out, hostInAlloc(asn, i%2, i/2, uint64(j+1)))
		}
	}
	return out
}

// spread64s returns one address in each of n64 /64s spread over n48
// /48s.
func spread64s(asn, n48, n64 int) []netip.Addr {
	out := make([]netip.Addr, n64)
	for i := range out {
		out[i] = hostInAlloc(asn, i%n48, i/n48, 1)
	}
	return out
}

// spreadVMs returns per64 addresses in each of n64 /64s, each /64 in
// its own /48.
func spreadVMs(asn, n64, per64 int) []netip.Addr {
	out := make([]netip.Addr, 0, n64*per64)
	for i := 0; i < n64; i++ {
		for j := 0; j < per64; j++ {
			out = append(out, hostInAlloc(asn, i, 0, uint64(j+1)))
		}
	}
	return out
}

// twinPools builds the two AS #6 twin target pools with Jaccard
// similarity ≈ 0.78 and roughly half non-DNS addresses.
func twinPools(exposed, hidden []netip.Addr, rng *rand.Rand) (a, b []netip.Addr) {
	ne, nh := min(500, len(exposed)), min(440, len(hidden))
	e := sample(exposed, ne, rng)
	h := sample(hidden, nh, rng)
	base := append(append([]netip.Addr{}, e...), h...)
	// Shared core ≈ 824/940 of the base; each twin adds its own tail.
	shared := int(float64(len(base)) * 0.877)
	if shared > len(base) {
		shared = len(base)
	}
	uniq := len(base) - shared
	a = append(append([]netip.Addr{}, base[:shared]...), base[shared:]...)
	extra := sample(exposed, uniq, rng)
	b = append(append([]netip.Addr{}, base[:shared]...), extra...)
	return a, b
}

// machinePairs returns telescope pairs [exposed, hidden] in shuffled
// order.
func machinePairs(tele *telescope.Telescope, rng *rand.Rand) [][2]netip.Addr {
	ms := tele.Machines()
	pairs := make([][2]netip.Addr, len(ms))
	for i, m := range ms {
		pairs[i] = [2]netip.Addr{m.Exposed, m.Hidden}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

func sample(pool []netip.Addr, n int, rng *rand.Rand) []netip.Addr {
	if n >= len(pool) {
		out := make([]netip.Addr, len(pool))
		copy(out, pool)
		return out
	}
	idx := rng.Perm(len(pool))[:n]
	out := make([]netip.Addr, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// --- port lists ---

// commonPorts are the services that recur across the paper's Table 3.
func commonPorts() []uint16 {
	return []uint16{22, 23, 8080, 25, 8443, 3389, 21, 5900, 993, 8081,
		110, 995, 8888, 3128, 8000, 1433, 3306, 6379, 445, 139,
		53, 111, 143, 465, 587, 990, 1080, 2000, 2222, 5060}
}

// portList444 is the ≈444-port set AS #1 scanned before May 2021.
func portList444() []uint16 { return portListN(444) }

// portList635 is the ≈635-port set of AS #2.
func portList635() []uint16 { return portListN(635) }

// portListN returns the common ports followed by deterministic filler
// up to n ports.
func portListN(n int) []uint16 {
	out := append([]uint16{}, commonPorts()...)
	next := uint16(1)
	seen := make(map[uint16]bool, n)
	for _, p := range out {
		seen[p] = true
	}
	for len(out) < n {
		if !seen[next] {
			out = append(out, next)
			seen[next] = true
		}
		next++
	}
	return out[:n]
}
