// Package mawi simulates the paper's second vantage point: the MAWI
// archive's daily 15-minute packet captures on a Japanese transit link
// (Section 4 and Appendix A.2). Unlike the CDN telescope, the transit
// link observes probes to arbitrary destinations — including ICMPv6,
// which the CDN does not log — so the MAWI view contains:
//
//   - the AS #1 entity (the same most active scanner seen at the CDN),
//     including its May 27, 2021 hitlist day and port-set switch;
//   - routine ICMPv6 scanning on most days (342 of 439 in the paper);
//   - the July 6, 2021 ICMPv6 peak from 7 source addresses in one /124
//     of the AS #3 cybersecurity company;
//   - the December 24, 2021 peak: a single /128 from a US cloud
//     provider probing one fully random IID in a distinct /64 per
//     packet (Gaussian Hamming-weight signature);
//   - sub-threshold scanners visible at the Fukuda–Heidemann ≥5
//     destination bar but not at ≥100;
//   - regular bidirectional traffic (talkative, variable length) that
//     the detector must reject.
//
// Days are emitted as record slices. WritePcapDay writes a day as a
// LINKTYPE_RAW capture of real probe frames (TCP SYN, UDP, ICMPv6
// echo, built by the layers package), which pipeline.PcapSource reads
// back through the same decode path a real MAWI capture takes.
package mawi

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pcap"
	"v6scan/internal/scanner"
)

// Notable dates of Section 4.
var (
	HitlistDay = time.Date(2021, 5, 27, 0, 0, 0, 0, time.UTC)
	July6Peak  = time.Date(2021, 7, 6, 0, 0, 0, 0, time.UTC)
	Dec24Peak  = time.Date(2021, 12, 24, 0, 0, 0, 0, time.UTC)
)

// Config sizes the MAWI simulation.
type Config struct {
	Start, End time.Time
	// WindowStart is the daily capture offset (MAWI captures 15
	// minutes per day).
	WindowStart time.Duration
	// WindowLen is the capture duration.
	WindowLen time.Duration
	// HitlistSize is the synthetic IPv6-hitlist size.
	HitlistSize int
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig covers the paper window.
func DefaultConfig() Config {
	return Config{
		Start:       scanner.DefaultStart,
		End:         scanner.DefaultEnd,
		WindowStart: 5 * time.Hour,
		WindowLen:   15 * time.Minute,
		HitlistSize: 4000,
		Seed:        23,
	}
}

// Simulator produces daily capture windows.
type Simulator struct {
	cfg     Config
	hitlist []netip.Addr
	hitSet  map[netip.Addr]struct{}
	rng     *rand.Rand

	as1Src  netip.Addr
	as3Srcs []netip.Addr // 7 sources in one /124
	decSrc  netip.Addr
}

// New builds a simulator. The synthetic hitlist plays the role of the
// public IPv6 hitlist: structured, low-Hamming-weight responsive
// addresses.
func New(cfg Config) *Simulator {
	if cfg.WindowLen == 0 {
		cfg.WindowLen = 15 * time.Minute
	}
	if cfg.HitlistSize == 0 {
		cfg.HitlistSize = 4000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Simulator{cfg: cfg, rng: rng, hitSet: make(map[netip.Addr]struct{})}
	space := netaddr6.MustPrefix("2400::/12") // "responsive Internet" space
	for i := 0; i < cfg.HitlistSize; i++ {
		p64 := netaddr6.RandomSubprefix(space, 64, rng)
		a := netaddr6.LowHammingAddrIn(p64, 3, rng)
		if _, dup := s.hitSet[a]; dup {
			continue
		}
		s.hitlist = append(s.hitlist, a)
		s.hitSet[a] = struct{}{}
	}
	// AS #1: the same single source address the CDN census uses.
	s.as1Src = netaddr6.WithIID(netaddr6.NthSubprefix(scanner.Alloc(scanner.ASNOfRank(1)), 64, 0).Addr(), 1)
	// AS #3 ICMPv6 peak: 7 addresses within one /124.
	base := netaddr6.WithIID(netaddr6.NthSubprefix(scanner.Alloc(scanner.ASNOfRank(3)), 64, 1).Addr(), 0x50)
	for i := 0; i < 7; i++ {
		s.as3Srcs = append(s.as3Srcs, netaddr6.WithIID(base, netaddr6.IID(base)|uint64(i+1)))
	}
	// December 24 peak source: a cloud AS outside the top 20.
	s.decSrc = netaddr6.WithIID(netaddr6.MustPrefix("2d00:100::/32").Addr(), 0xbeef)
	return s
}

// Hitlist returns the synthetic IPv6 hitlist.
func (s *Simulator) Hitlist() []netip.Addr { return s.hitlist }

// InHitlist reports membership.
func (s *Simulator) InHitlist(a netip.Addr) bool {
	_, ok := s.hitSet[a]
	return ok
}

// AS1Source returns the AS #1 scanner's address.
func (s *Simulator) AS1Source() netip.Addr { return s.as1Src }

// Dec24Source returns the December-24 peak source.
func (s *Simulator) Dec24Source() netip.Addr { return s.decSrc }

// EmitDay produces the day's 15-minute capture window, time-ordered.
func (s *Simulator) EmitDay(day time.Time) []firewall.Record {
	// Per-day deterministic randomness: replaying any single day gives
	// identical output regardless of which days were emitted before.
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ day.Unix()))
	start := day.Add(s.cfg.WindowStart)
	var out []firewall.Record

	s.emitAS1(day, start, rng, &out)
	s.emitICMPv6Routine(day, start, rng, &out)
	s.emitSubThreshold(start, rng, &out)
	s.emitBackground(start, rng, &out)

	if day.Equal(July6Peak) {
		s.emitJuly6(start, rng, &out)
	}
	if day.Equal(Dec24Peak) {
		s.emitDec24(start, rng, &out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// emitAS1 models the most active scanner: visible every day, constant
// packet size, hundreds of ports before May 27 then exactly six TCP
// ports, structured low-HW targets. On May 27 it probes only hitlist
// addresses (99.2% overlap, far fewer uniques).
func (s *Simulator) emitAS1(day, start time.Time, rng *rand.Rand, out *[]firewall.Record) {
	const pkts = 3000
	step := s.cfg.WindowLen / pkts
	hitlistDay := day.Equal(HitlistDay)
	var ports []uint16
	if day.Before(HitlistDay) {
		// Pre-switch the entity covers ≈444 ports over time; within a
		// single 15-minute window it works a rotating subset, keeping
		// each per-port flow above the 100-destination bar (the paper's
		// MAWI detector qualifies flows per port).
		all := portSample(444, rng)
		dayIdx := int(day.Sub(s.cfg.Start) / (24 * time.Hour))
		for k := 0; k < 10; k++ {
			ports = append(ports, all[(dayIdx*10+k)%len(all)])
		}
	} else {
		ports = []uint16{22, 80, 443, 3389, 8080, 8443}
	}
	var pool []netip.Addr
	if hitlistDay {
		// ≈300 hitlist targets probed repeatedly (the paper sees uniques
		// drop from 50k+ to 2.3k with 99.2% hitlist overlap).
		pool = s.sampleHitlist(300, rng)
	}
	for i := 0; i < pkts; i++ {
		var dst netip.Addr
		if hitlistDay {
			dst = pool[rng.Intn(len(pool))]
		} else {
			// Structured low-HW target in a fresh /64: not hitlist
			// members, median ≈2 addresses per destination /64.
			p64 := netaddr6.RandomSubprefix(netaddr6.MustPrefix("2400::/12"), 64, rng)
			dst = netaddr6.LowHammingAddrIn(p64, 4, rng)
		}
		*out = append(*out, firewall.Record{
			Time: start.Add(time.Duration(i) * step), Src: s.as1Src, Dst: dst,
			Proto: layers.ProtoTCP, SrcPort: 43000, DstPort: ports[i%len(ports)], Length: 60,
		})
	}
}

// emitICMPv6Routine: most days carry at least one large ICMPv6 scan
// (342 of 439 days in the paper). Day hashing keeps ≈78% of days
// active.
func (s *Simulator) emitICMPv6Routine(day, start time.Time, rng *rand.Rand, out *[]firewall.Record) {
	dayIdx := int(day.Sub(s.cfg.Start) / (24 * time.Hour))
	if dayIdx%9 == 0 || dayIdx%9 == 4 { // ≈22% of days silent
		return
	}
	nScanners := 2 + rng.Intn(3)
	for k := 0; k < nScanners; k++ {
		src := netaddr6.WithIID(netaddr6.NthSubprefix(netaddr6.MustPrefix("2c40::/12"), 64, uint64(100+k)).Addr(), uint64(k+1))
		pkts := 150 + rng.Intn(300)
		step := s.cfg.WindowLen / time.Duration(pkts)
		for i := 0; i < pkts; i++ {
			p64 := netaddr6.RandomSubprefix(netaddr6.MustPrefix("2400::/12"), 64, rng)
			dst := netaddr6.LowHammingAddrIn(p64, 5, rng)
			*out = append(*out, firewall.Record{
				Time: start.Add(time.Duration(i) * step), Src: src, Dst: dst,
				Proto: layers.ProtoICMPv6, Length: 48,
			})
		}
	}
}

// emitSubThreshold adds scanners visible at the ≥5 destination bar but
// not ≥100 — the order-of-magnitude gap of Figure 5.
func (s *Simulator) emitSubThreshold(start time.Time, rng *rand.Rand, out *[]firewall.Record) {
	n := 40 + rng.Intn(30)
	for k := 0; k < n; k++ {
		src := netaddr6.RandomAddrIn(netaddr6.MustPrefix("2c80::/12"), rng)
		dsts := 5 + rng.Intn(60)
		port := uint16(1 + rng.Intn(10000))
		step := s.cfg.WindowLen / time.Duration(dsts+1)
		for i := 0; i < dsts; i++ {
			p64 := netaddr6.RandomSubprefix(netaddr6.MustPrefix("2400::/12"), 64, rng)
			dst := netaddr6.LowHammingAddrIn(p64, 6, rng)
			*out = append(*out, firewall.Record{
				Time: start.Add(time.Duration(i) * step), Src: src, Dst: dst,
				Proto: layers.ProtoTCP, SrcPort: 50000, DstPort: port, Length: 60,
			})
		}
	}
}

// emitBackground adds regular traffic the detector must reject:
// bidirectional-looking flows with variable lengths and many packets
// per destination.
func (s *Simulator) emitBackground(start time.Time, rng *rand.Rand, out *[]firewall.Record) {
	flows := 150
	for k := 0; k < flows; k++ {
		src := netaddr6.RandomAddrIn(netaddr6.MustPrefix("2400::/12"), rng)
		dst := netaddr6.RandomAddrIn(netaddr6.MustPrefix("2400::/12"), rng)
		port := uint16(443)
		if rng.Intn(3) == 0 {
			port = 80
		}
		pkts := 20 + rng.Intn(60)
		step := s.cfg.WindowLen / time.Duration(pkts+1)
		for i := 0; i < pkts; i++ {
			*out = append(*out, firewall.Record{
				Time: start.Add(time.Duration(i) * step), Src: src, Dst: dst,
				Proto: layers.ProtoTCP, SrcPort: uint16(32768 + k), DstPort: port,
				Length: uint16(52 + rng.Intn(1400)),
			})
		}
	}
}

// emitJuly6 models the first ICMPv6 peak: echo requests from 7 source
// addresses within one /124 of the AS #3 cybersecurity company,
// low-Hamming-weight targets.
func (s *Simulator) emitJuly6(start time.Time, rng *rand.Rand, out *[]firewall.Record) {
	const pkts = 20000
	step := s.cfg.WindowLen / pkts
	for i := 0; i < pkts; i++ {
		p64 := netaddr6.RandomSubprefix(netaddr6.MustPrefix("2400::/12"), 64, rng)
		dst := netaddr6.LowHammingAddrIn(p64, 4, rng)
		*out = append(*out, firewall.Record{
			Time: start.Add(time.Duration(i) * step), Src: s.as3Srcs[i%len(s.as3Srcs)], Dst: dst,
			Proto: layers.ProtoICMPv6, Length: 48,
		})
	}
}

// emitDec24 models the largest peak: a single /128 probing one fully
// random IID in a distinct /64 per packet — the Gaussian
// Hamming-weight signature of Figure 7.
func (s *Simulator) emitDec24(start time.Time, rng *rand.Rand, out *[]firewall.Record) {
	const pkts = 50000
	step := s.cfg.WindowLen / pkts
	for i := 0; i < pkts; i++ {
		p64 := netaddr6.NthSubprefix(netaddr6.MustPrefix("2400::/12"), 64, uint64(i)*2654435761)
		dst := netaddr6.GaussianIIDAddr(p64.Addr(), rng)
		*out = append(*out, firewall.Record{
			Time: start.Add(time.Duration(i) * step), Src: s.decSrc, Dst: dst,
			Proto: layers.ProtoICMPv6, Length: 48,
		})
	}
}

func (s *Simulator) sampleHitlist(n int, rng *rand.Rand) []netip.Addr {
	if n > len(s.hitlist) {
		n = len(s.hitlist)
	}
	idx := rng.Perm(len(s.hitlist))[:n]
	out := make([]netip.Addr, n)
	for i, j := range idx {
		out[i] = s.hitlist[j]
	}
	return out
}

// portSample returns n deterministic ports (for the AS #1 pre-switch
// wide set as seen at MAWI).
func portSample(n int, _ *rand.Rand) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(i + 1)
	}
	return out
}

// WritePcapDay serializes a day's records as a LINKTYPE_RAW pcap
// stream, building real IPv6 wire frames.
func WritePcapDay(w io.Writer, recs []firewall.Record) error {
	pw := pcap.NewWriter(w, pcap.WriterOptions{LinkType: layers.LinkTypeRaw, Nanosecond: true})
	for _, r := range recs {
		frame, err := buildFrame(r)
		if err != nil {
			return fmt.Errorf("mawi: building frame: %w", err)
		}
		if err := pw.WritePacket(r.Time, frame); err != nil {
			return err
		}
	}
	return pw.Flush()
}

func buildFrame(r firewall.Record) ([]byte, error) {
	payload := 0
	switch r.Proto {
	case layers.ProtoTCP:
		if int(r.Length) > 60 {
			payload = int(r.Length) - 60
		}
		return layers.BuildTCPSYN(r.Src, r.Dst, r.SrcPort, r.DstPort, layers.BuildOptions{PayloadLen: payload})
	case layers.ProtoUDP:
		if int(r.Length) > 48 {
			payload = int(r.Length) - 48
		}
		return layers.BuildUDPProbe(r.Src, r.Dst, r.SrcPort, r.DstPort, layers.BuildOptions{PayloadLen: payload})
	case layers.ProtoICMPv6:
		return layers.BuildICMPv6Echo(r.Src, r.Dst, 7, uint16(r.Time.UnixNano()), layers.BuildOptions{})
	default:
		return nil, fmt.Errorf("mawi: unsupported protocol %v", r.Proto)
	}
}

// Days iterates the configured window.
func (s *Simulator) Days(fn func(day time.Time)) {
	for d := s.cfg.Start; d.Before(s.cfg.End); d = d.Add(24 * time.Hour) {
		fn(d)
	}
}
