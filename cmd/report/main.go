// report regenerates every table and figure of the paper from the
// simulated vantage points. Each experiment is addressable by the IDs
// listed in DESIGN.md (§4); with no -experiment flag all of them run.
//
//	report                 # everything, default window
//	report -experiment tab2
//	report -full           # the complete 15-month paper window (slow)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"
	"time"

	"v6scan"
	"v6scan/internal/entropy"
	"v6scan/internal/layers"
	"v6scan/internal/mawi"
	"v6scan/internal/scanner"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (fig1,tab1,sens,fig2,fig3,tab2,fig4,tab3,dns,fig5,fig6,fig7,fig8,a1,a4,icmp,ids); empty = all")
		full       = flag.Bool("full", false, "use the complete Jan 2021–Mar 2022 window (slow)")
		machines   = flag.Int("machines", 2500, "telescope machines")
		shards     = flag.Int("shards", runtime.NumCPU(), "detector worker shards (1 = serial)")
	)
	flag.Parse()

	start := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	weeks := 12
	if *full {
		start = scanner.DefaultStart
		weeks = 63
	}
	r := newRunner(start, weeks, *machines, *full)
	r.shards = *shards
	// The ids experiment replays the filtered stream after the CDN run;
	// only retain it when that experiment will actually execute.
	r.keepFiltered = *experiment == "" || *experiment == "ids"

	cdnExperiments := map[string]func(){
		"fig1": r.fig1, "tab1": r.tab1, "sens": r.sens, "fig2": r.fig2,
		"fig3": r.fig3, "tab2": r.tab2, "fig4": r.fig4, "tab3": r.tab3,
		"dns": r.dns, "fig8": r.fig8, "a1": r.a1, "a4": r.a4,
		"case32": r.case32, "ids": r.ids,
	}
	mawiExperiments := map[string]func(){
		"fig5": r.fig5, "fig6": r.fig6, "fig7": r.fig7, "icmp": r.icmp,
	}
	order := []string{"fig1", "tab1", "sens", "fig2", "fig3", "tab2", "fig4", "tab3", "dns", "fig8", "a1", "a4", "case32", "ids", "fig5", "fig6", "fig7", "icmp"}

	if *experiment != "" {
		if fn, ok := cdnExperiments[*experiment]; ok {
			fn()
			return
		}
		if fn, ok := mawiExperiments[*experiment]; ok {
			fn()
			return
		}
		log.Fatalf("unknown experiment %q (known: %s)", *experiment, strings.Join(order, ","))
	}
	for _, id := range order {
		if fn, ok := cdnExperiments[id]; ok {
			fn()
		} else {
			mawiExperiments[id]()
		}
	}
}

// runner caches the expensive CDN run across experiments.
type runner struct {
	start    time.Time
	weeks    int
	machines int
	full     bool
	shards   int

	res          *v6scan.ExperimentResult
	heat         *v6scan.HeatmapCollector
	dnsC         *v6scan.DNSCollector
	keepFiltered bool
	filtered     []v6scan.Record
}

func newRunner(start time.Time, weeks, machines int, full bool) *runner {
	return &runner{start: start, weeks: weeks, machines: machines, full: full}
}

func (r *runner) cdn() *v6scan.ExperimentResult {
	if r.res != nil {
		return r.res
	}
	cfg := r.baseConfig()
	cfg.Detector.TrackDsts = true
	// The figure collectors join the experiment pipeline as sinks: the
	// heatmap on the raw (pre-policy) tap, the provenance collector on
	// the filtered tap (buffered — it needs the telescope, which only
	// exists once Run returns).
	r.heat = v6scan.NewHeatmapCollector()
	cfg.RawSink = v6scan.CollectorSink(r.heat.Add)
	var filtered []v6scan.Record
	cfg.FilteredSink = v6scan.CollectorSink(func(rec v6scan.Record) { filtered = append(filtered, rec) })
	t0 := time.Now()
	res, err := v6scan.RunCDNExperiment(cfg)
	if err != nil {
		log.Fatal(err)
	}
	r.dnsC = v6scan.NewDNSCollector(res.Telescope, 0)
	if err := v6scan.From(v6scan.NewSliceSource(filtered)).
		RunInto(context.Background(), v6scan.CollectorSink(r.dnsC.Add)); err != nil {
		log.Fatal(err)
	}
	if r.keepFiltered {
		r.filtered = filtered
	}
	fmt.Printf("[cdn run: %d machines, %d weeks, %d shards, %d records detected, %v]\n\n",
		res.Telescope.NumMachines(), r.weeks, r.shards, res.RecordsDetected, time.Since(t0).Round(time.Millisecond))
	r.res = res
	return res
}

func (r *runner) baseConfig() v6scan.ExperimentConfig {
	cfg := v6scan.DefaultExperimentConfig()
	cfg.Telescope.Machines = r.machines
	cfg.Telescope.ASes = 30
	cfg.Census.Start = r.start
	cfg.Census.End = r.start.Add(time.Duration(r.weeks) * 7 * 24 * time.Hour)
	cfg.Detector.WeekEpoch = r.start
	cfg.Shards = r.shards
	return cfg
}

func header(id, title string) {
	fmt.Printf("──── %s: %s ────\n", id, title)
}

func (r *runner) fig1() {
	res := r.cdn()
	_ = res
	header("fig1", "heatmap of source /64s (dsts × packets)")
	hm := r.heat.Build()
	fmt.Print(hm.Render())
	fmt.Printf("near-origin share: %.1f%%; sources with ≥100 dsts: %d of %d\n\n",
		100*hm.NearOriginShare(), hm.HighDstSources(2), hm.Sources)
}

func (r *runner) tab1() {
	res := r.cdn()
	header("tab1", "detected scans per aggregation (Table 1)")
	fmt.Println(v6scan.BuildTable1(res.Detector, res.DB).Render())
}

func (r *runner) sens() {
	header("sens", "parameter sensitivity (Section 2.2)")
	base := r.cdn().Detector.TotalsFor(v6scan.Agg64)
	fmt.Printf("baseline (100 dsts, 3600s): %d scans, %d sources\n", base.Scans, base.Sources)
	for _, tc := range []struct {
		name    string
		minDsts int
		timeout time.Duration
	}{
		{"timeout 1800s", 100, 1800 * time.Second},
		{"timeout 900s", 100, 900 * time.Second},
		{"threshold 50 dsts", 50, time.Hour},
	} {
		cfg := r.baseConfig()
		cfg.Detector.MinDsts = tc.minDsts
		cfg.Detector.Timeout = tc.timeout
		res, err := v6scan.RunCDNExperiment(cfg)
		if err != nil {
			log.Fatal(err)
		}
		tot := res.Detector.TotalsFor(v6scan.Agg64)
		fmt.Printf("%-20s %d scans (%+.1f%%), %d sources (%+.1f%%)\n",
			tc.name, tot.Scans, pct(tot.Scans, base.Scans), tot.Sources, pct(tot.Sources, base.Sources))
	}
	fmt.Println()
}

func pct(v, base int) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(v) - float64(base)) / float64(base)
}

func (r *runner) fig2() {
	res := r.cdn()
	header("fig2", "weekly scan sources per aggregation (Figure 2)")
	fmt.Println(v6scan.BuildWeeklySources(res.Detector).Render())
}

func (r *runner) fig3() {
	res := r.cdn()
	header("fig3", "weekly scan-packet concentration (Figure 3)")
	fmt.Println(v6scan.BuildConcentration(res.Detector, v6scan.Agg64).Render())
}

func (r *runner) tab2() {
	res := r.cdn()
	header("tab2", "top-20 source ASes (Table 2)")
	t2 := v6scan.BuildTable2(res.Detector, res.DB, 20)
	fmt.Print(t2.Render())
	fmt.Printf("top-5 share %.1f%%, top-10 share %.1f%%\n\n", 100*t2.TopShare(5), 100*t2.TopShare(10))
}

func (r *runner) fig4() {
	res := r.cdn()
	header("fig4", "ports per scan at /64, AS18 excluded (Figure 4)")
	fmt.Println(v6scan.BuildPortBreakdown(res.Detector, res.DB, v6scan.Agg64, scanner.ASNOfRank(18)).Render())
}

func (r *runner) fig8() {
	res := r.cdn()
	header("fig8", "ports per scan at /128 and /48 (Figure 8)")
	fmt.Println(v6scan.BuildPortBreakdown(res.Detector, res.DB, v6scan.Agg128, 0).Render())
	fmt.Println(v6scan.BuildPortBreakdown(res.Detector, res.DB, v6scan.Agg48, 0).Render())
}

func (r *runner) tab3() {
	res := r.cdn()
	header("tab3", "top targeted services, AS18 excluded (Table 3)")
	fmt.Println(v6scan.BuildTable3(res.Detector, res.DB, scanner.ASNOfRank(18), 10).Render())
}

func (r *runner) dns() {
	res := r.cdn()
	header("dns", "target provenance: in-DNS vs not-in-DNS (Section 3.3)")
	fmt.Println(r.dnsC.Build(res.Detector, nil, scanner.Alloc(scanner.ASNOfRank(18))).Render())
	d128 := v6scan.BuildDurationStats(res.Detector, v6scan.Agg128)
	d64 := v6scan.BuildDurationStats(res.Detector, v6scan.Agg64)
	d48 := v6scan.BuildDurationStats(res.Detector, v6scan.Agg48)
	fmt.Print("scan durations: ", d128.Render(), "                ", d64.Render(), "                ", d48.Render())
	fmt.Println()
}

func (r *runner) a1() {
	res := r.cdn()
	header("a1", "artifact filtering (Appendix A.1)")
	st := res.Filter
	fmt.Printf("in %d packets; dropped %d packets from %d source-days\n",
		st.PacketsIn, st.PacketsDropped, st.SourcesDropped)
	for _, svc := range st.TopFilteredServices(6) {
		fmt.Printf("  %-10s %10d packets %6d sources\n", svc.Service, svc.Packets, svc.Sources)
	}
	fmt.Println()
}

func (r *runner) a4() {
	res := r.cdn()
	header("a4", "cloud provider #6 twin analysis (Appendix A.4)")
	rep, ok := v6scan.BuildTwinReport(res.Detector, scanner.Alloc(scanner.ASNOfRank(6)), res.Telescope)
	if !ok {
		fmt.Println("twins not detected in this window")
		return
	}
	fmt.Println(rep.Render())
}

func (r *runner) case32() {
	header("case32", "AS #18 /32 aggregation case study (Section 3.2)")
	cfg := r.baseConfig()
	cfg.Detector.Levels = []v6scan.AggLevel{v6scan.Agg64, v6scan.Agg48, v6scan.Agg32}
	res, err := v6scan.RunCDNExperiment(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v6scan.BuildCaseStudy32(res.Detector, scanner.Alloc(scanner.ASNOfRank(18))).Render())
}

func (r *runner) ids() {
	r.cdn() // populates the filtered record stream
	header("ids", "inline dynamic-aggregation IDS (Discussion)")
	cfg := v6scan.DefaultIDSConfig()
	t0 := time.Now()
	sink := v6scan.NewIDSSink(v6scan.NewShardedIDS(cfg, r.shards))
	if err := v6scan.From(v6scan.NewSliceSource(r.filtered)).
		RunInto(context.Background(), sink); err != nil {
		log.Fatal(err)
	}
	alerts := sink.Result()
	processed := len(r.filtered)
	r.filtered = nil // only this experiment reads the stream; release it
	escalated := 0
	byLevel := map[v6scan.AggLevel]int{}
	for _, a := range alerts {
		byLevel[a.Level]++
		if a.Escalated {
			escalated++
		}
	}
	fmt.Printf("%d records through %d shards in %v: %d blocklist recommendations (%d escalated)\n",
		processed, r.shards, time.Since(t0).Round(time.Millisecond), len(alerts), escalated)
	for _, lvl := range cfg.Levels {
		if byLevel[lvl] > 0 {
			fmt.Printf("  %-5v %d alerts\n", lvl, byLevel[lvl])
		}
	}
	show := min(5, len(alerts))
	for _, a := range alerts[:show] {
		fmt.Printf("  %s\n", a)
	}
	fmt.Println()
}

// --- MAWI experiments ---

func (r *runner) mawiSim(days int, start time.Time) *v6scan.MAWISimulator {
	cfg := v6scan.DefaultMAWISimConfig()
	cfg.Start = start
	cfg.End = start.Add(time.Duration(days) * 24 * time.Hour)
	return v6scan.NewMAWISimulator(cfg)
}

func (r *runner) fig5() {
	header("fig5", "MAWI daily scan sources by aggregation and threshold (Figure 5)")
	days := 14
	start := time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC)
	if r.full {
		days, start = 439, scanner.DefaultStart
	}
	sim := r.mawiSim(days, start)
	fmt.Printf("%-12s %7s %7s %7s %7s %7s %7s\n", "day", "128/5", "64/5", "48/5", "128/100", "64/100", "48/100")
	sim.Days(func(day time.Time) {
		var counts []int
		for _, min := range []int{5, 100} {
			for _, lvl := range []v6scan.AggLevel{v6scan.Agg128, v6scan.Agg64, v6scan.Agg48} {
				mc := v6scan.DefaultMAWIConfig()
				mc.MinDsts = min
				mc.Level = lvl
				det := v6scan.NewMAWIDetector(mc)
				for _, rec := range sim.EmitDay(day) {
					det.Process(rec)
				}
				counts = append(counts, len(det.Finish()))
			}
		}
		fmt.Printf("%-12s %7d %7d %7d %7d %7d %7d\n", day.Format("2006-01-02"),
			counts[0], counts[1], counts[2], counts[3], counts[4], counts[5])
	})
	fmt.Println()
}

func (r *runner) fig6() {
	header("fig6", "MAWI top-source packet shares (Figure 6)")
	days := 14
	start := time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC)
	if r.full {
		days, start = 439, scanner.DefaultStart
	}
	sim := r.mawiSim(days, start)
	fmt.Printf("%-12s %9s %7s %7s %7s\n", "day", "packets", "top1%", "top2%", "top3%")
	sim.Days(func(day time.Time) {
		det := v6scan.NewMAWIDetector(v6scan.DefaultMAWIConfig())
		for _, rec := range sim.EmitDay(day) {
			det.Process(rec)
		}
		scans := det.Finish()
		var pkts uint64
		var tops [3]uint64
		for i, s := range scans {
			pkts += s.Packets
			if i < 3 {
				tops[i] = s.Packets
			}
		}
		sh := func(k int) float64 {
			var sum uint64
			for i := 0; i <= k && i < 3; i++ {
				sum += tops[i]
			}
			if pkts == 0 {
				return 0
			}
			return 100 * float64(sum) / float64(pkts)
		}
		fmt.Printf("%-12s %9d %6.1f%% %6.1f%% %6.1f%%\n", day.Format("2006-01-02"), pkts, sh(0), sh(1), sh(2))
	})
	fmt.Println()
}

func (r *runner) fig7() {
	header("fig7", "MAWI Hamming-weight distributions (Figure 7)")
	cases := []struct {
		label string
		day   time.Time
	}{
		{"AS1 May 27 (hitlist)", mawi.HitlistDay},
		{"AS1 May 28", mawi.HitlistDay.Add(24 * time.Hour)},
		{"AS3 Jul 6 peak", mawi.July6Peak},
		{"Dec 24 peak", mawi.Dec24Peak},
	}
	for _, c := range cases {
		sim := r.mawiSim(3, c.day.Add(-24*time.Hour))
		det := v6scan.NewMAWIDetector(v6scan.DefaultMAWIConfig())
		for _, rec := range sim.EmitDay(c.day) {
			det.Process(rec)
		}
		scans := det.Finish()
		if len(scans) == 0 {
			fmt.Printf("%-22s no scans\n", c.label)
			continue
		}
		top := pickScan(scans, c.label, sim)
		hist := entropy.HammingHistogram64(top.DstIIDs)
		st := entropy.SummarizeHamming(hist)
		fmt.Printf("%-22s n=%6d mean=%5.1f σ=%4.1f median=%2d gaussian=%v\n",
			c.label, st.N, st.Mean, st.StdDev, st.Median, entropy.LooksGaussian(hist))
		fmt.Println(sparkline(hist))
	}
	fmt.Println()
}

// pickScan selects the AS1 scan for AS1-labelled cases, else the top
// scan of the day.
func pickScan(scans []v6scan.MAWIScan, label string, sim *v6scan.MAWISimulator) v6scan.MAWIScan {
	if strings.HasPrefix(label, "AS1") {
		for _, s := range scans {
			if s.Source.Contains(sim.AS1Source()) {
				return s
			}
		}
	}
	return scans[0]
}

// sparkline renders a 65-bucket histogram compactly.
func sparkline(h [65]uint64) string {
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var max uint64
	for _, c := range h {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("  HW 0→64 ")
	for _, c := range h {
		idx := int(c * uint64(len(glyphs)-1) / max)
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

func (r *runner) icmp() {
	header("icmp", "MAWI ICMPv6 scan prevalence (Section 4)")
	days := 27
	start := time.Date(2021, 6, 20, 0, 0, 0, 0, time.UTC)
	if r.full {
		days, start = 439, scanner.DefaultStart
	}
	sim := r.mawiSim(days, start)
	icmpDays, majorityDays, total := 0, 0, 0
	sim.Days(func(day time.Time) {
		total++
		det := v6scan.NewMAWIDetector(v6scan.DefaultMAWIConfig())
		for _, rec := range sim.EmitDay(day) {
			det.Process(rec)
		}
		scans := det.Finish()
		icmp := 0
		for _, s := range scans {
			if len(s.Services) > 0 && s.Services[0].Proto == layers.ProtoICMPv6 {
				icmp++
			}
		}
		if icmp > 0 {
			icmpDays++
		}
		if icmp*2 > len(scans) {
			majorityDays++
		}
	})
	fmt.Printf("ICMPv6 scans on %d of %d days (paper: 342/439); majority of sources on %d days (paper: 236)\n\n",
		icmpDays, total, majorityDays)
}
