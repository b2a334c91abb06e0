package core

import (
	"net/netip"
	"sort"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

// MAWIConfig parameterizes the Section-4 detector used on the public
// MAWI traces: an extended version of Fukuda & Heidemann's definition.
// A per-(source, service) flow qualifies as a scan when it
//
//	(i)   targets at least MinDsts destination IPs,
//	(ii)  has all packets on the same destination port (grouping is
//	      per service, so this holds by construction),
//	(iii) sends fewer than MaxPktsPerDst packets to any single
//	      destination on that port, and
//	(iv)  has normalized packet-length entropy below MaxLenEntropy.
//
// Qualified flows from the same source are then merged into one scan
// spanning multiple services.
type MAWIConfig struct {
	MinDsts       int               // paper: 100 (Fukuda–Heidemann used 5)
	MaxPktsPerDst int               // paper: 10
	MaxLenEntropy float64           // paper: 0.1
	Level         netaddr6.AggLevel // source aggregation (paper presents /64)
	// TrackDsts retains each scan's destination addresses for
	// hitlist-overlap and targeting analyses (Appendix A.2).
	TrackDsts bool
}

// DefaultMAWIConfig returns the paper's parameters at /64 aggregation.
func DefaultMAWIConfig() MAWIConfig {
	return MAWIConfig{MinDsts: 100, MaxPktsPerDst: 10, MaxLenEntropy: 0.1, Level: netaddr6.Agg64}
}

// MAWIScan is one detected scan in a MAWI capture window: all
// qualified per-port flows of one source merged together.
type MAWIScan struct {
	Source   netip.Prefix
	Services []firewall.Service // qualified services, sorted
	Packets  uint64             // packets across qualified services
	Dsts     int                // distinct destinations across qualified services
	Start    time.Time
	End      time.Time
	// DstIIDs holds the interface identifiers of targeted addresses
	// for Hamming-weight analysis (Figure 7).
	DstIIDs []uint64
	// DstAddrs holds the targeted addresses when MAWIConfig.TrackDsts
	// is set.
	DstAddrs []netip.Addr
}

type mawiFlow struct {
	start, last time.Time
	packets     uint64
	perDst      map[netip.Addr]uint32
	lens        keyCounts // by uint32(Record.Length)
}

// MAWIDetector detects scans in one capture window (MAWI publishes 15
// minutes per day; a detector instance is used per window).
type MAWIDetector struct {
	cfg   MAWIConfig
	flows map[mawiKey]*mawiFlow
	// counts is the sort buffer for the entropy of spilled length
	// counters.
	counts []countSlot
}

type mawiKey struct {
	src netip.Prefix
	svc firewall.Service
}

// NewMAWIDetector returns a detector for one capture window.
func NewMAWIDetector(cfg MAWIConfig) *MAWIDetector {
	if cfg.MinDsts <= 0 {
		cfg.MinDsts = 100
	}
	if cfg.MaxPktsPerDst <= 0 {
		cfg.MaxPktsPerDst = 10
	}
	if cfg.MaxLenEntropy <= 0 {
		cfg.MaxLenEntropy = 0.1
	}
	if !cfg.Level.Valid() {
		cfg.Level = netaddr6.Agg64
	}
	return &MAWIDetector{cfg: cfg, flows: make(map[mawiKey]*mawiFlow)}
}

// Process ingests one record. Unlike the CDN detector there is no
// timeout: a MAWI window is only 15 minutes.
func (d *MAWIDetector) Process(r firewall.Record) {
	key := mawiKey{src: netaddr6.Aggregate(r.Src, d.cfg.Level), svc: r.Service()}
	f := d.flows[key]
	if f == nil {
		f = &mawiFlow{start: r.Time, perDst: make(map[netip.Addr]uint32)}
		d.flows[key] = f
	}
	f.last = r.Time
	f.packets++
	f.perDst[r.Dst]++
	f.lens.add(uint32(r.Length), 1)
}

// Finish applies the qualification rules and merges per-port flows by
// source, returning scans sorted by packet count (descending).
func (d *MAWIDetector) Finish() []MAWIScan {
	bySrc := make(map[netip.Prefix]*MAWIScan)
	for key, f := range d.flows {
		if !d.qualifies(f) {
			continue
		}
		s := bySrc[key.src]
		if s == nil {
			s = &MAWIScan{Source: key.src, Start: f.start, End: f.last}
			bySrc[key.src] = s
		}
		s.Services = append(s.Services, key.svc)
		s.Packets += f.packets
		s.Dsts += len(f.perDst) // approximate union; ports rarely share dsts in scans
		if f.start.Before(s.Start) {
			s.Start = f.start
		}
		if f.last.After(s.End) {
			s.End = f.last
		}
		for dst := range f.perDst {
			s.DstIIDs = append(s.DstIIDs, netaddr6.IID(dst))
			if d.cfg.TrackDsts {
				s.DstAddrs = append(s.DstAddrs, dst)
			}
		}
	}
	out := make([]MAWIScan, 0, len(bySrc))
	for _, s := range bySrc {
		sort.Slice(s.Services, func(i, j int) bool {
			if s.Services[i].Proto != s.Services[j].Proto {
				return s.Services[i].Proto < s.Services[j].Proto
			}
			return s.Services[i].Port < s.Services[j].Port
		})
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].Source.Addr().Compare(out[j].Source.Addr()) < 0
	})
	return out
}

func (d *MAWIDetector) qualifies(f *mawiFlow) bool {
	if len(f.perDst) < d.cfg.MinDsts {
		return false
	}
	for _, n := range f.perDst {
		if int(n) >= d.cfg.MaxPktsPerDst {
			return false
		}
	}
	return f.lens.normalizedEntropy(&d.counts) < d.cfg.MaxLenEntropy
}
