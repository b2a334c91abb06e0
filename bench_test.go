// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact; see DESIGN.md §4 for the experiment index)
// plus ablations of the design choices DESIGN.md §5 calls out.
//
// The per-artifact benchmarks measure the cost of the full pipeline
// slice that produces the artifact at test scale: they are regression
// guards on pipeline throughput, not attempts to time the paper's
// original 2-billion-packet corpus.
package v6scan

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"testing"
	"time"

	"v6scan/internal/artifacts"
	"v6scan/internal/core"
	"v6scan/internal/dispatch"
	"v6scan/internal/entropy"
	"v6scan/internal/layers"
	"v6scan/internal/mawi"
	"v6scan/internal/netaddr6"
	"v6scan/internal/scanner"
	"v6scan/internal/sim"
)

// benchStart is a window that exercises both AS1 phases.
var benchStart = time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC)

func benchConfig(days int) sim.Config {
	cfg := sim.QuickConfig(800, 10, benchStart, days)
	return cfg
}

// sharedBenchRun caches one CDN run for the analysis benchmarks.
var sharedBenchRun *sim.Result

func benchRun(b *testing.B) *sim.Result {
	b.Helper()
	if sharedBenchRun == nil {
		cfg := benchConfig(14)
		cfg.Detector.TrackDsts = true
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sharedBenchRun = res
	}
	return sharedBenchRun
}

// --- per-table / per-figure benchmarks ---

func BenchmarkFig1Heatmap(b *testing.B) {
	res := benchRun(b)
	// Rebuild the heatmap from scan records each iteration.
	recs := make([]Record, 0, 1<<16)
	res.Census.EmitDay(benchStart, func(r Record) { recs = append(recs, r) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hc := NewHeatmapCollector()
		for _, r := range recs {
			hc.Add(r)
		}
		hm := hc.Build()
		if hm.Sources == 0 {
			b.Fatal("empty heatmap")
		}
	}
}

func BenchmarkTable1Totals(b *testing.B) {
	res := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := BuildTable1(res.Detector, res.DB)
		if len(t1.Rows) != 3 {
			b.Fatal("bad table 1")
		}
	}
}

func BenchmarkParamSensitivity(b *testing.B) {
	// One full detection pass at a relaxed threshold per iteration —
	// the unit of work of the Section 2.2 sweep.
	res := benchRun(b)
	var recs []Record
	res.Census.EmitDay(benchStart.Add(24*time.Hour), func(r Record) { recs = append(recs, r) })
	// EmitDay is per-actor chronological, not globally ordered.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultDetectorConfig()
		cfg.MinDsts = 50
		det := NewDetector(cfg)
		for _, r := range recs {
			if err := det.Process(r); err != nil {
				b.Fatal(err)
			}
		}
		det.Finish()
	}
}

func BenchmarkFig2WeeklySources(b *testing.B) {
	res := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := BuildWeeklySources(res.Detector)
		if len(w.Weeks) == 0 {
			b.Fatal("no weeks")
		}
	}
}

func BenchmarkFig3Concentration(b *testing.B) {
	res := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := BuildConcentration(res.Detector, Agg64)
		if c.OverallTop2Share == 0 {
			b.Fatal("no concentration")
		}
	}
}

func BenchmarkTable2TopASes(b *testing.B) {
	res := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 := BuildTable2(res.Detector, res.DB, 20)
		if len(t2.Rows) == 0 {
			b.Fatal("empty table 2")
		}
	}
}

func BenchmarkFig4PortsPerScan(b *testing.B) {
	res := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb := BuildPortBreakdown(res.Detector, res.DB, Agg64, scanner.ASNOfRank(18))
		if pb.Level != Agg64 {
			b.Fatal("bad breakdown")
		}
	}
}

func BenchmarkFig8PortsAggregations(b *testing.B) {
	res := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildPortBreakdown(res.Detector, res.DB, Agg128, 0)
		BuildPortBreakdown(res.Detector, res.DB, Agg48, 0)
	}
}

func BenchmarkTable3TopPorts(b *testing.B) {
	res := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t3 := BuildTable3(res.Detector, res.DB, scanner.ASNOfRank(18), 10)
		if len(t3.ByPackets) == 0 {
			b.Fatal("empty table 3")
		}
	}
}

func BenchmarkDNSTargeting(b *testing.B) {
	res := benchRun(b)
	var recs []Record
	res.Census.EmitDay(benchStart, func(r Record) { recs = append(recs, r) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc := NewDNSCollector(res.Telescope, 0)
		for _, r := range recs {
			dc.Add(r)
		}
		rep := dc.Build(res.Detector, nil)
		_ = rep.AllInDNSShare
	}
}

func BenchmarkFig5MAWISources(b *testing.B) {
	s := mawiBenchSim(time.Date(2021, 5, 24, 0, 0, 0, 0, time.UTC))
	day := time.Date(2021, 5, 25, 0, 0, 0, 0, time.UTC)
	recs := s.EmitDay(day)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lvl := range []AggLevel{Agg128, Agg64, Agg48} {
			mc := DefaultMAWIConfig()
			mc.Level = lvl
			det := NewMAWIDetector(mc)
			for _, r := range recs {
				det.Process(r)
			}
			if det.Finish() == nil {
				b.Fatal("no scans")
			}
		}
	}
	b.ReportMetric(float64(len(recs)*3), "records/op")
}

func BenchmarkFig6MAWIShare(b *testing.B) {
	s := mawiBenchSim(time.Date(2021, 5, 24, 0, 0, 0, 0, time.UTC))
	recs := s.EmitDay(time.Date(2021, 5, 25, 0, 0, 0, 0, time.UTC))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := NewMAWIDetector(DefaultMAWIConfig())
		for _, r := range recs {
			det.Process(r)
		}
		scans := det.Finish()
		var total uint64
		for _, sc := range scans {
			total += sc.Packets
		}
		if total == 0 {
			b.Fatal("no packets")
		}
	}
}

func BenchmarkFig7HammingWeight(b *testing.B) {
	s := mawiBenchSim(mawi.Dec24Peak.Add(-24 * time.Hour))
	det := NewMAWIDetector(DefaultMAWIConfig())
	for _, r := range s.EmitDay(mawi.Dec24Peak) {
		det.Process(r)
	}
	scans := det.Finish()
	if len(scans) == 0 {
		b.Fatal("no scans")
	}
	iids := scans[0].DstIIDs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist := entropy.HammingHistogram64(iids)
		if !entropy.LooksGaussian(hist) {
			b.Fatal("Dec 24 not Gaussian")
		}
	}
}

func BenchmarkICMPv6Scans(b *testing.B) {
	s := mawiBenchSim(time.Date(2021, 6, 20, 0, 0, 0, 0, time.UTC))
	day := time.Date(2021, 6, 21, 0, 0, 0, 0, time.UTC)
	recs := s.EmitDay(day)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := NewMAWIDetector(DefaultMAWIConfig())
		icmp := 0
		for _, r := range recs {
			if r.Proto == layers.ProtoICMPv6 {
				icmp++
			}
			det.Process(r)
		}
		det.Finish()
		if icmp == 0 {
			b.Fatal("no ICMPv6 traffic")
		}
	}
}

func BenchmarkArtifactFilter(b *testing.B) {
	res := benchRun(b)
	gen := artifacts.New(artifacts.DefaultConfig(), res.Telescope, nil)
	var recs []Record
	gen.EmitDay(benchStart, func(r Record) { recs = append(recs, r) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewArtifactFilter()
		for _, r := range recs {
			f.Push(r)
		}
		out := f.Close()
		if len(out) >= len(recs) {
			b.Fatal("filter dropped nothing")
		}
	}
	b.ReportMetric(float64(len(recs)), "records/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/record")
}

func BenchmarkA4CloudCaseStudy(b *testing.B) {
	res := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := BuildTwinReport(res.Detector, scanner.Alloc(scanner.ASNOfRank(6)), res.Telescope); !ok {
			b.Fatal("twins missing")
		}
	}
}

func mawiBenchSim(start time.Time) *MAWISimulator {
	cfg := DefaultMAWISimConfig()
	cfg.Start = start
	cfg.End = start.Add(3 * 24 * time.Hour)
	cfg.HitlistSize = 1000
	return NewMAWISimulator(cfg)
}

// --- ablation benchmarks (DESIGN.md §5) ---

// benchRecords synthesizes a deterministic detector workload:
// interleaved scanners and background sources, spread over many /48s
// the way the paper's spread-source actors are (which also gives the
// sharded detector a realistic partition key population).
func benchRecords(n int) []Record {
	rng := rand.New(rand.NewSource(99))
	recs := make([]Record, 0, n)
	ts := benchStart
	scanBase := netaddr6.MustPrefix("2001:db8::/36")
	dstBase := netaddr6.MustPrefix("2001:db8:f000::/44")
	for i := 0; i < n; i++ {
		src := netaddr6.RandomSubprefix(scanBase, 64, rng).Addr()
		recs = append(recs, Record{
			Time: ts, Src: netaddr6.WithIID(src, uint64(i%64)),
			Dst:   netaddr6.RandomAddrIn(dstBase, rng),
			Proto: layers.ProtoTCP, DstPort: uint16(1 + i%1024), Length: 60,
		})
		ts = ts.Add(10 * time.Millisecond)
	}
	return recs
}

// BenchmarkDetectorStreaming measures the single-pass streaming
// detector with periodic timeout eviction (bounded memory, the IDS
// deployment mode).
func BenchmarkDetectorStreaming(b *testing.B) {
	recs := benchRecords(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := NewDetector(DefaultDetectorConfig())
		for j, r := range recs {
			if err := det.Process(r); err != nil {
				b.Fatal(err)
			}
			if j%10_000 == 0 {
				det.Advance(r.Time)
			}
		}
		det.Finish()
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}

// BenchmarkDetectorBatch measures the same workload without periodic
// eviction (all sessions held until the end — the batch-analysis mode).
func BenchmarkDetectorBatch(b *testing.B) {
	recs := benchRecords(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := NewDetector(DefaultDetectorConfig())
		for _, r := range recs {
			if err := det.Process(r); err != nil {
				b.Fatal(err)
			}
		}
		det.Finish()
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}

// benchmarkDetectorSharded measures the sharded detector on the
// BenchmarkDetectorStreaming workload, fed in batches; shards=1 is the
// parallelism baseline (one worker, same batching overhead).
func benchmarkDetectorSharded(b *testing.B, shards int) {
	allowParallelism(b, shards+1)
	recs := benchRecords(100_000)
	const batch = 8192
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := core.NewShardedDetector(core.DefaultConfig(), shards)
		for j := 0; j < len(recs); j += batch {
			end := j + batch
			if end > len(recs) {
				end = len(recs)
			}
			if err := det.ProcessBatch(recs[j:end]); err != nil {
				b.Fatal(err)
			}
		}
		if err := det.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}

func BenchmarkDetectorSharded1(b *testing.B) { benchmarkDetectorSharded(b, 1) }
func BenchmarkDetectorSharded4(b *testing.B) { benchmarkDetectorSharded(b, 4) }
func BenchmarkDetectorSharded8(b *testing.B) { benchmarkDetectorSharded(b, 8) }

// benchRecordsBursty generates a run-heavy workload: each source emits
// a burst of `burst` consecutive records (one scanner probing many
// destinations back-to-back — the traffic shape single-source scan
// bursts actually produce at a telescope). Maximal adjacent
// same-source runs are exactly what the detector's batched
// pre-hash/group lookup collapses to one index probe per aggregation
// level.
func benchRecordsBursty(n, burst int) []Record {
	rng := rand.New(rand.NewSource(99))
	recs := make([]Record, 0, n)
	ts := benchStart
	scanBase := netaddr6.MustPrefix("2001:db8::/36")
	dstBase := netaddr6.MustPrefix("2001:db8:f000::/44")
	for len(recs) < n {
		src := netaddr6.WithIID(netaddr6.RandomSubprefix(scanBase, 64, rng).Addr(), uint64(len(recs)))
		for j := 0; j < burst && len(recs) < n; j++ {
			recs = append(recs, Record{
				Time: ts, Src: src,
				Dst:   netaddr6.RandomAddrIn(dstBase, rng),
				Proto: layers.ProtoTCP, DstPort: uint16(1 + j%1024), Length: 60,
			})
			ts = ts.Add(time.Millisecond)
		}
	}
	return recs
}

// BenchmarkBatchGroupedLookup compares the detector's batched
// ProcessBatch against the per-record Process loop on the same bursty
// workload: ProcessBatch groups adjacent same-source runs and pays one
// u128idx probe per run per level, while the per-record path pays one
// per record (Process is a one-record batch, so the gap between the
// two sub-benchmarks isolates the grouping win — same detector, same
// records, no eviction until Finish).
func BenchmarkBatchGroupedLookup(b *testing.B) {
	recs := benchRecordsBursty(100_000, 32)
	const batch = 8192
	b.Run("Grouped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det := NewDetector(DefaultDetectorConfig())
			for j := 0; j < len(recs); j += batch {
				end := j + batch
				if end > len(recs) {
					end = len(recs)
				}
				if err := det.ProcessBatch(recs[j:end]); err != nil {
					b.Fatal(err)
				}
			}
			det.Finish()
		}
		b.ReportMetric(float64(len(recs)), "records/op")
	})
	b.Run("PerRecord", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det := NewDetector(DefaultDetectorConfig())
			for _, r := range recs {
				if err := det.Process(r); err != nil {
					b.Fatal(err)
				}
			}
			det.Finish()
		}
		b.ReportMetric(float64(len(recs)), "records/op")
	})
}

// BenchmarkShardDispatch isolates the shared dispatcher from the
// detector/IDS work it normally feeds: workers only count records, so
// ns/op and allocs/op measure partitioning, channel traffic, and the
// pooled batch arena. Steady-state dispatch must stay allocation-flat
// (near-constant allocs per run regardless of record count).
func BenchmarkShardDispatch(b *testing.B) {
	recs := benchRecords(100_000)
	const batch = 8192
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			allowParallelism(b, shards+1)
			counts := make([]uint64, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range counts {
					counts[j] = 0
				}
				d := dispatch.New(dispatch.Config{Shards: shards, Level: netaddr6.Agg48},
					func(shard int, rs []Record, mark time.Time) error {
						counts[shard] += uint64(len(rs))
						return nil
					})
				for j := 0; j < len(recs); j += batch {
					end := j + batch
					if end > len(recs) {
						end = len(recs)
					}
					if err := d.ProcessBatch(recs[j:end]); err != nil {
						b.Fatal(err)
					}
				}
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
				total := uint64(0)
				for _, c := range counts {
					total += c
				}
				if total != uint64(len(recs)) {
					b.Fatalf("delivered %d records, want %d", total, len(recs))
				}
			}
			b.ReportMetric(float64(len(recs)), "records/op")
		})
	}
}

// allowParallelism lifts GOMAXPROCS to n for one benchmark.
// Containerized CI often misreports NumCPU (this repo's sandbox shows
// 1 while ≥4 cores schedule), which would silently serialize the
// worker shards and benchmark goroutine scheduling instead of the
// parallel detector.
func allowParallelism(b *testing.B, n int) {
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		b.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// BenchmarkMultiAggregationFused runs one detector tracking all three
// levels in a single pass.
func BenchmarkMultiAggregationFused(b *testing.B) {
	recs := benchRecords(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := NewDetector(DefaultDetectorConfig())
		for _, r := range recs {
			det.Process(r)
		}
		det.Finish()
	}
}

// BenchmarkMultiAggregationSeparate runs three single-level detectors
// over the stream — the naive alternative.
func BenchmarkMultiAggregationSeparate(b *testing.B) {
	recs := benchRecords(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lvl := range []AggLevel{Agg128, Agg64, Agg48} {
			cfg := DefaultDetectorConfig()
			cfg.Levels = []AggLevel{lvl}
			det := NewDetector(cfg)
			for _, r := range recs {
				det.Process(r)
			}
			det.Finish()
		}
	}
}

// BenchmarkDstSetMap measures exact per-source destination sets.
func BenchmarkDstSetMap(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	addrs := make([]netaddr6.U128, 10_000)
	for i := range addrs {
		addrs[i] = netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := make(map[netaddr6.U128]struct{}, 16)
		for _, a := range addrs {
			set[a] = struct{}{}
		}
		if len(set) < 9_000 {
			b.Fatal("bad set")
		}
	}
	b.ReportMetric(float64(len(addrs)), "addrs/op")
}

// BenchmarkDstSetSketch measures the HyperLogLog alternative
// (constant 4 KiB per source at precision 12).
func BenchmarkDstSetSketch(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	addrs := make([]netaddr6.U128, 10_000)
	for i := range addrs {
		addrs[i] = netaddr6.U128{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk := core.NewDstSketch(12)
		for _, a := range addrs {
			sk.Add(a.ToAddr())
		}
		if e := sk.Estimate(); e < 9_000 || e > 11_000 {
			b.Fatalf("estimate %d", e)
		}
	}
	b.ReportMetric(float64(len(addrs)), "addrs/op")
}

// BenchmarkDecodeLayers measures zero-copy reused-struct decoding.
func BenchmarkDecodeLayers(b *testing.B) {
	frame, err := layers.BuildTCPSYN(
		netaddr6.MustAddr("2001:db8::1"), netaddr6.MustAddr("2001:db8::2"),
		40000, 22, layers.BuildOptions{Link: layers.LinkTypeEthernet})
	if err != nil {
		b.Fatal(err)
	}
	var d layers.Decoded
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := layers.ParseFrame(frame, layers.LinkTypeEthernet, &d); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frame)))
}

// BenchmarkDecodePacket measures the naive alternative: allocating a
// fresh Decoded and copying the frame per packet.
func BenchmarkDecodePacket(b *testing.B) {
	frame, err := layers.BuildTCPSYN(
		netaddr6.MustAddr("2001:db8::1"), netaddr6.MustAddr("2001:db8::2"),
		40000, 22, layers.BuildOptions{Link: layers.LinkTypeEthernet})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := make([]byte, len(frame))
		copy(buf, frame)
		d := new(layers.Decoded)
		if err := layers.ParseFrame(buf, layers.LinkTypeEthernet, d); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frame)))
}

// BenchmarkEndToEndDay measures one full simulated CDN day through
// policy, filter, and detection — the pipeline's unit of progress.
func BenchmarkEndToEndDay(b *testing.B) {
	res := benchRun(b)
	policy := DefaultCollectPolicy()
	var recs []Record
	res.Census.EmitDay(benchStart.Add(48*time.Hour), func(r Record) { recs = append(recs, r) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := NewDetector(DefaultDetectorConfig())
		f := NewArtifactFilter()
		feed := func(rs []Record) {
			for _, r := range rs {
				det.Process(r)
			}
		}
		for _, r := range recs {
			if !policy.Admit(r) {
				continue
			}
			feed(f.Push(r))
		}
		feed(f.Close())
		det.Finish()
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}

// BenchmarkEndToEndFilteredPipeline runs a full simulated CDN day
// through the builder-composed filtered pipeline — policy stage,
// artifact stage, sharded detector sink — fed two ways: "batch" from a
// slice source, and "record" from a record-at-a-time producer through
// the SourceFunc edge adapter, the simulator's path. The adapter's
// staging must not make the record edge measurably slower; it is the
// deployment-shaped counterpart of BenchmarkEndToEndDay's hand-wired
// loop.
func BenchmarkEndToEndFilteredPipeline(b *testing.B) {
	allowParallelism(b, 9)
	res := benchRun(b)
	var recs []Record
	res.Census.EmitDay(benchStart.Add(48*time.Hour), func(r Record) { recs = append(recs, r) })
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })

	run := func(b *testing.B, src RecordSource) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := NewShardedSink(NewShardedDetector(DefaultDetectorConfig(), 8))
			p := From(src).
				Policy(DefaultCollectPolicy()).
				Artifact().
				Build(sink)
			if err := p.Run(); err != nil {
				b.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(recs)), "records/op")
	}

	b.Run("batch", func(b *testing.B) {
		run(b, NewSliceSource(recs))
	})
	b.Run("record", func(b *testing.B) {
		run(b, SourceFunc(func(emit func(Record) error) error {
			for _, r := range recs {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		}))
	})
}

// BenchmarkMetricsHotPath proves the observability layer stays off the
// dispatch hot path: the same filtered batch pipeline as
// BenchmarkEndToEndFilteredPipeline, bare versus threaded through a
// registered metrics bundle (Builder.Instrument). The instrumented
// run must match the baseline's allocs/op — the per-batch counters are
// plain atomics, allocation happens only at registration.
func BenchmarkMetricsHotPath(b *testing.B) {
	allowParallelism(b, 9)
	res := benchRun(b)
	var recs []Record
	res.Census.EmitDay(benchStart.Add(48*time.Hour), func(r Record) { recs = append(recs, r) })
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })

	run := func(b *testing.B, m *PipelineMetrics) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := NewShardedSink(NewShardedDetector(DefaultDetectorConfig(), 8))
			bl := From(NewSliceSource(recs)).
				Policy(DefaultCollectPolicy()).
				Artifact()
			if m != nil {
				bl = bl.Instrument(m)
			}
			if err := bl.Build(sink).Run(); err != nil {
				b.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("baseline", func(b *testing.B) {
		run(b, nil)
	})
	b.Run("instrumented", func(b *testing.B) {
		run(b, RegisterPipelineMetrics(NewMetricsRegistry()))
	})
}

// benchRecordsIDS synthesizes the IDS benchmark workload. Unlike
// benchRecords — whose sources all sit inside 2001:db8::/32, fine for
// the /48-coarsest detector — the IDS tracks /32 as its coarsest
// level, so its sharding partitions by /32 prefix: sources here spread
// across 64 /32s (the internet-wide background an inline deployment
// actually sees), keeping the per-shard partition meaningful.
func benchRecordsIDS(n int) []Record {
	rng := rand.New(rand.NewSource(99))
	recs := make([]Record, 0, n)
	ts := benchStart
	base := netaddr6.MustPrefix("2001::/16")
	dstBase := netaddr6.MustPrefix("2001:db8:f000::/44")
	for i := 0; i < n; i++ {
		p32 := netaddr6.NthSubprefix(base, 32, uint64(i%64))
		src := netaddr6.RandomSubprefix(p32, 64, rng).Addr()
		recs = append(recs, Record{
			Time: ts, Src: netaddr6.WithIID(src, uint64(i%64)),
			Dst:   netaddr6.RandomAddrIn(dstBase, rng),
			Proto: layers.ProtoTCP, DstPort: uint16(1 + i%1024), Length: 60,
		})
		ts = ts.Add(10 * time.Millisecond)
	}
	return recs
}

// BenchmarkIDSProcess measures the dynamic-aggregation IDS on the
// synthetic workload — the inline-deployment counterpart of
// BenchmarkDetectorStreaming, with sketched destination sets at four
// aggregation levels. (Formerly BenchmarkIDSEngine; renamed with the
// batch/sharded additions so the BENCH trajectory names the serial
// baseline explicitly.)
func BenchmarkIDSProcess(b *testing.B) {
	recs := benchRecordsIDS(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewIDS(DefaultIDSConfig())
		for j, r := range recs {
			e.Process(r)
			if j%10_000 == 9_999 {
				e.Tick(r.Time)
			}
		}
		if alerts := e.Flush(); len(alerts) == 0 {
			b.Fatal("no alerts")
		}
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}

// benchmarkIDSSharded measures the sharded IDS engine on the
// BenchmarkIDSProcess workload, fed in batches with the identical Tick
// cadence (one Tick per 10k records — sweep cost dominates eviction
// cadence, so cadence must match for the comparison to be fair);
// shards=1 is the parallelism baseline (one worker, same batching
// overhead).
func benchmarkIDSSharded(b *testing.B, shards int) {
	allowParallelism(b, shards+1)
	recs := benchRecordsIDS(100_000)
	const batch = 10_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewShardedIDS(DefaultIDSConfig(), shards)
		for j := 0; j < len(recs); j += batch {
			end := j + batch
			if end > len(recs) {
				end = len(recs)
			}
			e.ProcessBatch(recs[j:end])
			e.Tick(recs[end-1].Time)
		}
		if alerts := e.Flush(); len(alerts) == 0 {
			b.Fatal("no alerts")
		}
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}

func BenchmarkIDSSharded1(b *testing.B) { benchmarkIDSSharded(b, 1) }
func BenchmarkIDSSharded4(b *testing.B) { benchmarkIDSSharded(b, 4) }

// benchRecordsChurn returns a time-ordered, churn-shaped IDS stream:
// background sources that each send 1–3 records within ten minutes
// from a random /64 of one of 256 /48s (so /128, /64 and /48
// candidates are created and go idle continuously), plus a
// single-address scanner every 20 minutes probing 150 destinations
// over five minutes.
func benchRecordsChurn(hours int, bgPerSec float64) []Record {
	rng := rand.New(rand.NewSource(20))
	secs := int64(hours) * 3600
	dstBase := netaddr6.MustPrefix("2001:db8:f000::/44")
	var p48s []netip.Prefix
	for i := 0; i < 256; i++ {
		p48s = append(p48s, netaddr6.RandomSubprefix(netaddr6.MustPrefix("2400::/12"), 48, rng))
	}
	at := func(sec int64) time.Time { return benchStart.Add(time.Duration(sec) * time.Second) }
	var recs []Record
	for i := 0; i < int(bgPerSec*float64(secs)/2); i++ {
		src := netaddr6.RandomAddrIn(p48s[rng.Intn(len(p48s))], rng)
		t0 := rng.Int63n(secs)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			recs = append(recs, Record{
				Time: at(min(t0+rng.Int63n(600), secs-1)), Src: src, Dst: netaddr6.RandomAddrIn(dstBase, rng),
				Proto: layers.ProtoTCP, DstPort: 443, Length: 60,
			})
		}
	}
	for t0 := int64(0); t0+300 < secs; t0 += 1200 {
		src := netaddr6.RandomAddrIn(netaddr6.MustPrefix("2a00::/16"), rng)
		for k := 0; k < 150; k++ {
			recs = append(recs, Record{
				Time: at(t0 + int64(k)*2), Src: src, Dst: netaddr6.RandomAddrIn(dstBase, rng),
				Proto: layers.ProtoTCP, DstPort: 22, Length: 60,
			})
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
	return recs
}

// BenchmarkIDSMinuteTick measures the IDS at the cadence v6scan -ids
// and v6scand run it: one Tick per stream minute over a churn-shaped
// stream (six stream hours), so the sweep cost of every tick counts —
// the per-10k-record cadence of the benchmarks above hides it. ns/tick
// is the time inside Tick alone; ns/record is the whole pass.
func BenchmarkIDSMinuteTick(b *testing.B) {
	recs := benchRecordsChurn(6, 10)
	b.ReportAllocs()
	b.ResetTimer()
	var tickNs time.Duration
	ticks := 0
	for i := 0; i < b.N; i++ {
		e := NewIDS(DefaultIDSConfig())
		for j := 0; j < len(recs); {
			minute := recs[j].Time.Truncate(time.Minute).Add(time.Minute)
			k := j
			for k < len(recs) && recs[k].Time.Before(minute) {
				k++
			}
			e.ProcessBatch(recs[j:k])
			start := time.Now()
			e.Tick(minute)
			tickNs += time.Since(start)
			ticks++
			j = k
		}
		if alerts := e.Flush(); len(alerts) == 0 {
			b.Fatal("no alerts")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
	b.ReportMetric(float64(tickNs.Nanoseconds())/float64(ticks), "ns/tick")
	b.ReportMetric(float64(len(recs)), "records/op")
}

// encodeBenchLog writes records to an in-memory binary log for the
// ingest benchmarks.
func encodeBenchLog(b *testing.B, recs []Record) []byte {
	b.Helper()
	var buf bytes.Buffer
	w := WriteLog(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkParallelDecode measures the chunked parallel log decode at
// 1, 4, and 8 workers against the same in-memory log — the tentpole's
// raw-ingest number. workers=1 doubles as the serial-overhead check:
// it should track BenchmarkLogSourceDecode-style serial decode within
// noise (the extra cost is one goroutine handoff per batch).
func BenchmarkParallelDecode(b *testing.B) {
	recs := benchRecords(100_000)
	data := encodeBenchLog(b, recs)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			allowParallelism(b, workers+2)
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := NewParallelLogSource(bytes.NewReader(data), int64(len(data)), workers)
				n := 0
				err := src.EmitBatch(4096, func(rs []Record) error {
					n += len(rs)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if n != len(recs) {
					b.Fatalf("decoded %d records, want %d", n, len(recs))
				}
			}
			b.ReportMetric(float64(len(recs)), "records/op")
		})
	}
}

// BenchmarkMergeSource measures the k-way loser-tree merge over four
// chronologically split day-logs (serial decode per input, so the
// number isolates merge cost rather than decode parallelism).
func BenchmarkMergeSource(b *testing.B) {
	recs := benchRecords(100_000)
	const k = 4
	parts := make([][]byte, k)
	for i := range parts {
		lo, hi := i*len(recs)/k, (i+1)*len(recs)/k
		parts[i] = encodeBenchLog(b, recs[lo:hi])
	}
	allowParallelism(b, k+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srcs := make([]RecordSource, k)
		for j := range srcs {
			srcs[j] = NewLogSource(bytes.NewReader(parts[j]))
		}
		n := 0
		err := NewMergeSource(srcs...).EmitBatch(4096, func(rs []Record) error {
			n += len(rs)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != len(recs) {
			b.Fatalf("merged %d records, want %d", n, len(recs))
		}
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}
