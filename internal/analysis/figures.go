package analysis

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"v6scan/internal/asdb"
	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

// Heatmap reproduces Figure 1: for every source /64 in the raw
// (pre-filter) firewall logs, the number of destination addresses
// targeted versus packets logged, as a 2-D histogram over base-10
// logarithmic buckets.
type Heatmap struct {
	// Cells[dstBucket][pktBucket] counts source /64s.
	Cells map[[2]int]int
	// Sources is the number of distinct source /64s.
	Sources int
}

// HeatmapCollector accumulates Figure-1 statistics from a raw record
// stream (wire it to sim.Config.RawSink).
type HeatmapCollector struct {
	perSrc map[netip.Prefix]*srcStat
}

type srcStat struct {
	dsts    map[netip.Addr]struct{}
	packets uint64
}

// NewHeatmapCollector returns an empty collector.
func NewHeatmapCollector() *HeatmapCollector {
	return &HeatmapCollector{perSrc: make(map[netip.Prefix]*srcStat)}
}

// Add ingests one raw record.
func (h *HeatmapCollector) Add(r firewall.Record) {
	key := netaddr6.Aggregate(r.Src, netaddr6.Agg64)
	s := h.perSrc[key]
	if s == nil {
		s = &srcStat{dsts: make(map[netip.Addr]struct{})}
		h.perSrc[key] = s
	}
	s.packets++
	s.dsts[r.Dst] = struct{}{}
}

// Build produces the histogram.
func (h *HeatmapCollector) Build() Heatmap {
	hm := Heatmap{Cells: make(map[[2]int]int), Sources: len(h.perSrc)}
	for _, s := range h.perSrc {
		key := [2]int{logBucket(uint64(len(s.dsts))), logBucket(s.packets)}
		hm.Cells[key]++
	}
	return hm
}

// NearOriginShare returns the fraction of source /64s in the lowest
// destination bucket (<10 destinations) — the "majority of source /64s
// cluster close to the origin" observation.
func (hm Heatmap) NearOriginShare() float64 {
	n := 0
	for k, c := range hm.Cells {
		if k[0] == 0 {
			n += c
		}
	}
	return safeShareInt(n, hm.Sources)
}

// HighDstSources returns how many source /64s targeted at least 10^b
// destinations.
func (hm Heatmap) HighDstSources(b int) int {
	n := 0
	for k, c := range hm.Cells {
		if k[0] >= b {
			n += c
		}
	}
	return n
}

// Render draws the histogram as a text grid (destination buckets as
// columns, packet buckets as rows).
func (hm Heatmap) Render() string {
	maxD, maxP := 0, 0
	for k := range hm.Cells {
		if k[0] > maxD {
			maxD = k[0]
		}
		if k[1] > maxP {
			maxP = k[1]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "source /64s by destinations (cols, 10^x) and packets (rows, 10^y)\n")
	fmt.Fprintf(&b, "%8s", "pkts\\dst")
	for d := 0; d <= maxD; d++ {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("10^%d", d))
	}
	b.WriteByte('\n')
	for p := maxP; p >= 0; p-- {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("10^%d", p))
		for d := 0; d <= maxD; d++ {
			fmt.Fprintf(&b, " %8d", hm.Cells[[2]int{d, p}])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WeeklySources reproduces Figure 2: distinct active scan sources per
// week at each aggregation level.
type WeeklySources struct {
	Epoch time.Time
	// Weeks[level][weekIdx] = distinct sources active that week.
	Weeks map[netaddr6.AggLevel]map[int]int
	// MaxWeek is the highest observed week index.
	MaxWeek int
}

// BuildWeeklySources computes Figure 2 from per-scan weekly packet
// attribution (requires the detector to have been run with WeekEpoch).
func BuildWeeklySources(det *core.Detector) WeeklySources {
	w := WeeklySources{Epoch: det.Config().WeekEpoch, Weeks: make(map[netaddr6.AggLevel]map[int]int)}
	for _, lvl := range det.Config().Levels {
		active := make(map[int]map[netip.Prefix]struct{})
		for _, s := range det.Scans(lvl) {
			for _, wk := range s.WeekPackets {
				set := active[wk.Week]
				if set == nil {
					set = make(map[netip.Prefix]struct{})
					active[wk.Week] = set
				}
				set[s.Source] = struct{}{}
			}
		}
		counts := make(map[int]int, len(active))
		for wk, set := range active {
			counts[wk] = len(set)
			if wk > w.MaxWeek {
				w.MaxWeek = wk
			}
		}
		w.Weeks[lvl] = counts
	}
	return w
}

// Render prints one row per week.
func (w WeeklySources) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "week", "/128", "/64", "/48")
	for wk := 0; wk <= w.MaxWeek; wk++ {
		ts := w.Epoch.Add(time.Duration(wk) * 7 * 24 * time.Hour)
		fmt.Fprintf(&b, "%-12s %8d %8d %8d\n", ts.Format("2006-01-02"),
			w.Weeks[netaddr6.Agg128][wk], w.Weeks[netaddr6.Agg64][wk], w.Weeks[netaddr6.Agg48][wk])
	}
	return b.String()
}

// Concentration reproduces Figure 3: weekly scan packets split into
// the most active source, the second most active, and everyone else
// (/64 aggregation).
type Concentration struct {
	Epoch time.Time
	Weeks []ConcentrationWeek
	// OverallTop2Share is the share of the two most active sources
	// measured across the entire window (paper: ≈70%).
	OverallTop2Share float64
}

// ConcentrationWeek is one week's packet split.
type ConcentrationWeek struct {
	Week               int
	Top1, Top2, Others uint64
}

// Top2Share returns the week's top-2 packet share.
func (c ConcentrationWeek) Top2Share() float64 {
	return safeShare(c.Top1+c.Top2, c.Top1+c.Top2+c.Others)
}

// BuildConcentration computes Figure 3 at the given level.
func BuildConcentration(det *core.Detector, level netaddr6.AggLevel) Concentration {
	weekly := make(map[int]map[netip.Prefix]uint64)
	totalBySrc := make(map[netip.Prefix]uint64)
	for _, s := range det.Scans(level) {
		for _, wk := range s.WeekPackets {
			m := weekly[wk.Week]
			if m == nil {
				m = make(map[netip.Prefix]uint64)
				weekly[wk.Week] = m
			}
			m[s.Source] += wk.Packets
		}
		totalBySrc[s.Source] += s.Packets
	}
	out := Concentration{Epoch: det.Config().WeekEpoch}
	weeks := make([]int, 0, len(weekly))
	for wk := range weekly {
		weeks = append(weeks, wk)
	}
	sort.Ints(weeks)
	for _, wk := range weeks {
		var top1, top2, sum uint64
		for _, p := range weekly[wk] {
			sum += p
			if p > top1 {
				top1, top2 = p, top1
			} else if p > top2 {
				top2 = p
			}
		}
		out.Weeks = append(out.Weeks, ConcentrationWeek{Week: wk, Top1: top1, Top2: top2, Others: sum - top1 - top2})
	}
	var t1, t2, total uint64
	for _, p := range totalBySrc {
		total += p
		if p > t1 {
			t1, t2 = p, t1
		} else if p > t2 {
			t2 = p
		}
	}
	out.OverallTop2Share = safeShare(t1+t2, total)
	return out
}

// Render prints one row per week.
func (c Concentration) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %7s\n", "week", "top1", "top2", "others", "top2%")
	for _, w := range c.Weeks {
		ts := c.Epoch.Add(time.Duration(w.Week) * 7 * 24 * time.Hour)
		fmt.Fprintf(&b, "%-12s %12d %12d %12d %6.1f%%\n",
			ts.Format("2006-01-02"), w.Top1, w.Top2, w.Others, 100*w.Top2Share())
	}
	fmt.Fprintf(&b, "overall top-2 share: %.1f%%\n", 100*c.OverallTop2Share)
	return b.String()
}

// PortBreakdown reproduces Figures 4 and 8: the fraction of scans,
// scan sources, and scan packets per port class at one aggregation
// level.
type PortBreakdown struct {
	Level   netaddr6.AggLevel
	Scans   [4]float64
	Sources [4]float64
	Packets [4]float64
}

// BuildPortBreakdown computes the breakdown, optionally excluding one
// AS (the paper excludes AS #18 at /64).
func BuildPortBreakdown(det *core.Detector, db *asdb.DB, level netaddr6.AggLevel, excludeASN int) PortBreakdown {
	var (
		scanN   [4]int
		pktN    [4]uint64
		srcSet  [4]map[netip.Prefix]struct{}
		totalS  int
		totalP  uint64
		allSrcs = make(map[netip.Prefix]struct{})
	)
	// A source targeting different class counts per scan is attributed
	// to the class of its most multi-port scan, following the figure's
	// source bars.
	srcClass := make(map[netip.Prefix]core.PortClass)
	for i := range srcSet {
		srcSet[i] = make(map[netip.Prefix]struct{})
	}
	for _, s := range det.Scans(level) {
		if excludeASN != 0 {
			if as, _, ok := db.Attribute(s.Source.Addr()); ok && as.Number == excludeASN {
				continue
			}
		}
		cls := s.Class()
		scanN[cls]++
		totalS++
		pktN[cls] += s.Packets
		totalP += s.Packets
		allSrcs[s.Source] = struct{}{}
		if prev, ok := srcClass[s.Source]; !ok || cls > prev {
			srcClass[s.Source] = cls
		}
	}
	for src, cls := range srcClass {
		srcSet[cls][src] = struct{}{}
	}
	out := PortBreakdown{Level: level}
	for i := 0; i < 4; i++ {
		out.Scans[i] = safeShareInt(scanN[i], totalS)
		out.Packets[i] = safeShare(pktN[i], totalP)
		out.Sources[i] = safeShareInt(len(srcSet[i]), len(allSrcs))
	}
	return out
}

// Render prints the three bars per class.
func (p PortBreakdown) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ports per scan at %s\n", p.Level)
	fmt.Fprintf(&b, "%-14s %8s %9s %9s\n", "class", "scans", "sources", "packets")
	for i, c := range core.PortClasses() {
		fmt.Fprintf(&b, "%-14s %7.1f%% %8.1f%% %8.1f%%\n", c, 100*p.Scans[i], 100*p.Sources[i], 100*p.Packets[i])
	}
	return b.String()
}
