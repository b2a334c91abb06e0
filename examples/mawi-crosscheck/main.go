// mawi-crosscheck reproduces the Section-4 public-data cross-check:
// it simulates MAWI-style daily 15-minute capture windows (writing one
// day through the pcap round trip to prove format fidelity), runs the
// extended Fukuda–Heidemann detector, and reports scan sources per
// day, top-source packet shares, ICMPv6 prevalence, and the
// Hamming-weight signatures of the two 2021 peak events.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"v6scan"
	"v6scan/internal/entropy"
	"v6scan/internal/layers"
	"v6scan/internal/mawi"
)

func main() {
	var (
		days  = flag.Int("days", 21, "days to simulate")
		start = flag.String("start", "2021-12-15", "window start (YYYY-MM-DD); default spans the Dec 24 peak")
	)
	flag.Parse()

	from, err := time.Parse("2006-01-02", *start)
	if err != nil {
		log.Fatalf("bad -start: %v", err)
	}
	cfg := v6scan.DefaultMAWISimConfig()
	cfg.Start = from
	cfg.End = from.Add(time.Duration(*days) * 24 * time.Hour)
	sim := v6scan.NewMAWISimulator(cfg)

	mc := v6scan.DefaultMAWIConfig()
	mc.TrackDsts = true

	fmt.Printf("%-12s %8s %8s %9s %7s %7s\n", "day", "sources", "icmpv6", "packets", "top1%", "top3%")
	icmpDays, total := 0, 0
	sim.Days(func(day time.Time) {
		total++
		recs := sim.EmitDay(day)

		// Each day is one capture window: a record source terminated
		// in a MAWI detector, which returns the window's scans once
		// the run has fed it every record. The first day is
		// round-tripped through pcap and decoded back by the pcap
		// source, to exercise the full decode path.
		var src v6scan.RecordSource = v6scan.NewSliceSource(recs)
		if total == 1 {
			var buf bytes.Buffer
			if err := mawi.WritePcapDay(&buf, recs); err != nil {
				log.Fatal(err)
			}
			src = v6scan.NewPcapSource(&buf)
		}
		var decoded *v6scan.PipelineCounter
		det := v6scan.NewMAWIDetector(mc)
		if err := v6scan.From(src).Counter(&decoded).
			RunInto(context.Background(), v6scan.CollectorSink(det.Process)); err != nil {
			log.Fatal(err)
		}
		scans := det.Finish()
		if total == 1 {
			fmt.Printf("pcap round trip: %d records in, %d out\n\n", len(recs), decoded.Count())
		}
		var pkts, top1, top3 uint64
		icmp := 0
		for i, s := range scans {
			pkts += s.Packets
			if i == 0 {
				top1 = s.Packets
			}
			if i < 3 {
				top3 += s.Packets
			}
			if len(s.Services) > 0 && s.Services[0].Proto == layers.ProtoICMPv6 {
				icmp++
			}
		}
		if icmp > 0 {
			icmpDays++
		}
		share := func(x uint64) float64 {
			if pkts == 0 {
				return 0
			}
			return 100 * float64(x) / float64(pkts)
		}
		fmt.Printf("%-12s %8d %8d %9d %6.1f%% %6.1f%%\n",
			day.Format("2006-01-02"), len(scans), icmp, pkts, share(top1), share(top3))

		// Hamming-weight signature of the day's top scan (Figure 7).
		if len(scans) > 0 && (day.Equal(mawi.Dec24Peak) || day.Equal(mawi.July6Peak)) {
			hist := entropy.HammingHistogram64(scans[0].DstIIDs)
			st := entropy.SummarizeHamming(hist)
			fmt.Printf("  peak scan HW: mean=%.1f σ=%.1f gaussian=%v (random-IID signature)\n",
				st.Mean, st.StdDev, entropy.LooksGaussian(hist))
		}
	})
	fmt.Printf("\nICMPv6 scan days: %d of %d (paper: 342 of 439)\n", icmpDays, total)
}
