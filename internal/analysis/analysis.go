// Package analysis turns detector output into the paper's tables and
// figures. Each builder returns a structured result with a Render
// method producing an aligned text rendition; cmd/report prints them
// and EXPERIMENTS.md records paper-vs-measured comparisons.
package analysis

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"strings"

	"v6scan/internal/asdb"
	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

// Table1 reproduces Table 1: detected scans, packets, sources and ASes
// per aggregation level.
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one aggregation level's totals.
type Table1Row struct {
	Level   netaddr6.AggLevel
	Scans   int
	Packets uint64
	Sources int
	ASes    int
}

// BuildTable1 computes Table 1 from a finished detector, attributing
// sources to ASes via db.
func BuildTable1(det *core.Detector, db *asdb.DB) Table1 {
	var t Table1
	for _, lvl := range det.Config().Levels {
		row := Table1Row{Level: lvl}
		srcs := make(map[netip.Prefix]struct{})
		ases := make(map[int]struct{})
		for _, s := range det.Scans(lvl) {
			row.Scans++
			row.Packets += s.Packets
			if _, seen := srcs[s.Source]; !seen {
				srcs[s.Source] = struct{}{}
				if as, _, ok := db.Attribute(s.Source.Addr()); ok {
					ases[as.Number] = struct{}{}
				}
			}
		}
		row.Sources = len(srcs)
		row.ASes = len(ases)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Render formats the table.
func (t Table1) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %14s %9s %6s\n", "agg", "scans", "packets", "sources", "ASes")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-6s %10d %14d %9d %6d\n", r.Level, r.Scans, r.Packets, r.Sources, r.ASes)
	}
	return b.String()
}

// Table2 reproduces Table 2: top source ASes by scan packets with
// their source counts at each aggregation level.
type Table2 struct {
	Rows         []Table2Row
	TotalPackets uint64
}

// Table2Row is one AS.
type Table2Row struct {
	Rank    int
	ASN     int
	Label   string // e.g. "Datacenter (CN)"
	Packets uint64 // at /64 aggregation
	Share   float64
	Srcs48  int
	Srcs64  int
	Srcs128 int
}

// BuildTable2 computes the top-n AS table. Packets are attributed at
// /64 aggregation as in the paper; source counts come from each
// level's scans.
func BuildTable2(det *core.Detector, db *asdb.DB, n int) Table2 {
	type agg struct {
		packets uint64
		srcs    [3]map[netip.Prefix]struct{} // /128, /64, /48
	}
	byAS := make(map[int]*agg)
	get := func(asn int) *agg {
		a := byAS[asn]
		if a == nil {
			a = &agg{}
			for i := range a.srcs {
				a.srcs[i] = make(map[netip.Prefix]struct{})
			}
			byAS[asn] = a
		}
		return a
	}
	levelIdx := map[netaddr6.AggLevel]int{netaddr6.Agg128: 0, netaddr6.Agg64: 1, netaddr6.Agg48: 2}
	var total uint64
	for lvl, idx := range levelIdx {
		for _, s := range det.Scans(lvl) {
			as, _, ok := db.Attribute(s.Source.Addr())
			if !ok {
				continue
			}
			a := get(as.Number)
			a.srcs[idx][s.Source] = struct{}{}
			if lvl == netaddr6.Agg64 {
				a.packets += s.Packets
				total += s.Packets
			}
		}
	}
	t := Table2{TotalPackets: total}
	for asn, a := range byAS {
		label := fmt.Sprintf("AS%d", asn)
		if as, ok := db.AS(asn); ok {
			label = as.Label()
		}
		t.Rows = append(t.Rows, Table2Row{
			ASN: asn, Label: label, Packets: a.packets,
			Share:  safeShare(a.packets, total),
			Srcs48: len(a.srcs[2]), Srcs64: len(a.srcs[1]), Srcs128: len(a.srcs[0]),
		})
	}
	sort.Slice(t.Rows, func(i, j int) bool {
		if t.Rows[i].Packets != t.Rows[j].Packets {
			return t.Rows[i].Packets > t.Rows[j].Packets
		}
		return t.Rows[i].ASN < t.Rows[j].ASN
	})
	if n > 0 && len(t.Rows) > n {
		t.Rows = t.Rows[:n]
	}
	for i := range t.Rows {
		t.Rows[i].Rank = i + 1
	}
	return t
}

// Render formats the table.
func (t Table2) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-22s %12s %7s %7s %7s %7s\n", "rank", "AS", "packets", "share", "/48s", "/64s", "/128s")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "#%-3d %-22s %12d %6.1f%% %7d %7d %7d\n",
			r.Rank, r.Label, r.Packets, 100*r.Share, r.Srcs48, r.Srcs64, r.Srcs128)
	}
	return b.String()
}

// TopShare returns the combined packet share of the top-k rows.
func (t Table2) TopShare(k int) float64 {
	var sum uint64
	for i := 0; i < k && i < len(t.Rows); i++ {
		sum += t.Rows[i].Packets
	}
	return safeShare(sum, t.TotalPackets)
}

// Table3 reproduces Table 3: top services by packet share, scan share,
// and /64-source share.
type Table3 struct {
	ByPackets []ServiceShare
	ByScans   []ServiceShare
	BySources []ServiceShare
}

// ServiceShare is one service's share under one ranking.
type ServiceShare struct {
	Service firewall.Service
	Share   float64
}

// BuildTable3 computes the top-n service rankings over /64 scans,
// excluding the given ASN (the paper excludes AS #18, which holds 80%
// of /64 sources and probes a single port). Pass excludeASN 0 to keep
// everything.
func BuildTable3(det *core.Detector, db *asdb.DB, excludeASN, n int) Table3 {
	pktBy := make(map[firewall.Service]uint64)
	scanBy := make(map[firewall.Service]int)
	srcBy := make(map[firewall.Service]map[netip.Prefix]struct{})
	var totalPkts uint64
	totalScans := 0
	allSrcs := make(map[netip.Prefix]struct{})
	for _, s := range det.Scans(netaddr6.Agg64) {
		if excludeASN != 0 {
			if as, _, ok := db.Attribute(s.Source.Addr()); ok && as.Number == excludeASN {
				continue
			}
		}
		totalScans++
		allSrcs[s.Source] = struct{}{}
		for _, p := range s.Ports {
			pktBy[p.Service] += p.Packets
			totalPkts += p.Packets
			scanBy[p.Service]++
			set := srcBy[p.Service]
			if set == nil {
				set = make(map[netip.Prefix]struct{})
				srcBy[p.Service] = set
			}
			set[s.Source] = struct{}{}
		}
	}
	top := func(m map[firewall.Service]float64) []ServiceShare {
		out := make([]ServiceShare, 0, len(m))
		for svc, sh := range m {
			out = append(out, ServiceShare{Service: svc, Share: sh})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Share != out[j].Share {
				return out[i].Share > out[j].Share
			}
			return out[i].Service.String() < out[j].Service.String()
		})
		if len(out) > n {
			out = out[:n]
		}
		return out
	}
	pk := make(map[firewall.Service]float64, len(pktBy))
	for svc, c := range pktBy {
		pk[svc] = safeShare(c, totalPkts)
	}
	sc := make(map[firewall.Service]float64, len(scanBy))
	for svc, c := range scanBy {
		sc[svc] = safeShareInt(c, totalScans)
	}
	sr := make(map[firewall.Service]float64, len(srcBy))
	for svc, set := range srcBy {
		sr[svc] = safeShareInt(len(set), len(allSrcs))
	}
	return Table3{ByPackets: top(pk), ByScans: top(sc), BySources: top(sr)}
}

// Render formats the three rankings side by side.
func (t Table3) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-16s %-16s %-16s\n", "rank", "by packets", "by scans", "by /64 sources")
	n := len(t.ByPackets)
	if len(t.ByScans) > n {
		n = len(t.ByScans)
	}
	if len(t.BySources) > n {
		n = len(t.BySources)
	}
	cell := func(ss []ServiceShare, i int) string {
		if i >= len(ss) {
			return ""
		}
		return fmt.Sprintf("%s %.1f%%", ss[i].Service, 100*ss[i].Share)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "#%-3d %-16s %-16s %-16s\n", i+1, cell(t.ByPackets, i), cell(t.ByScans, i), cell(t.BySources, i))
	}
	return b.String()
}

func safeShare(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

func safeShareInt(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// logBucket returns the base-10 logarithmic bucket of v (0 → 0).
func logBucket(v uint64) int {
	if v == 0 {
		return 0
	}
	return int(math.Floor(math.Log10(float64(v))))
}
