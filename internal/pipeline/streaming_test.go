package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/layers"
	"v6scan/internal/metrics"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pcap"
)

// The tests here extend the core/ids sharded parity suites
// (TestShardedParity, TestShardedIDSParity) to the full streaming
// path this package owns: a chunked source (binary log, pcap) feeding
// the builder chain with WindowSort reordering and a sink-driven
// AdvanceEvery cadence that forwards eviction horizons
// through the dispatcher's marks. The invariants:
//
//   - Detector: AdvanceEvery only bounds memory — output at any shard
//     count, with any cadence, equals the materializing no-advance
//     reference byte for byte.
//   - IDS: Tick cadence is semantic (it decides when idle candidates
//     close), so output at every shard count must equal the
//     one-shard engine's at the identical cadence.
//   - WindowSort: for in-window disorder, the streaming reorder path
//     equals materialize-then-sort exactly.

// streamParityRecords synthesizes the detection workload: sources
// spread across /48s and /64s, timeout-splitting lulls, and a bounded
// timestamp jitter so WindowSort has disorder to repair.
func streamParityRecords(n int, jitter time.Duration) []firewall.Record {
	rng := rand.New(rand.NewSource(59))
	base := netaddr6.MustPrefix("2001:db8:a000::/36")
	dsts := netaddr6.MustPrefix("2001:db8:f000::/44")
	ts := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		p48 := netaddr6.NthSubprefix(base, 48, uint64(i%37))
		p64 := netaddr6.NthSubprefix(p48, 64, uint64(i%5))
		src := netaddr6.WithIID(p64.Addr(), uint64(1+i%9))
		rt := ts
		if jitter > 0 {
			rt = rt.Add(-time.Duration(rng.Int63n(int64(jitter) + 1)))
		}
		recs = append(recs, firewall.Record{
			Time:    rt,
			Src:     src,
			Dst:     netaddr6.RandomAddrIn(dsts, rng),
			Proto:   layers.ProtoTCP,
			SrcPort: uint16(40000 + i%1000),
			DstPort: uint16(1 + i%512),
			Length:  uint16(60 + i%4),
		})
		step := 40 * time.Millisecond
		if i%15000 == 14999 {
			step = 2 * time.Hour // lull above the timeout splits sessions
		}
		ts = ts.Add(step)
	}
	return recs
}

func streamParityConfig() core.Config {
	return core.Config{
		MinDsts:   10,
		Timeout:   time.Hour,
		Levels:    []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48},
		TrackDsts: true,
		WeekEpoch: time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC),
	}
}

// canonicalScans renders every field of a level's scans so two
// detectors compare byte for byte (the pipeline-side twin of the core
// parity suite's renderer).
func canonicalScans(scans []core.Scan) string {
	var b strings.Builder
	for _, s := range scans {
		fmt.Fprintf(&b, "%v %v %v %v pk=%d dsts=%d srcs=%d ent=%.9f",
			s.Source, s.Level, s.Start.UnixNano(), s.End.UnixNano(),
			s.Packets, s.Dsts, s.SrcAddrs, s.LenEntropy)
		svcs := make([]string, 0, len(s.Ports))
		for _, p := range s.Ports {
			svcs = append(svcs, fmt.Sprintf("%v=%d", p.Service, p.Packets))
		}
		fmt.Fprintf(&b, " ports[%s]", strings.Join(svcs, ","))
		for _, w := range s.WeekPackets {
			fmt.Fprintf(&b, " w%d=%d", w.Week, w.Packets)
		}
		for _, a := range s.DstAddrs {
			b.WriteString(" ")
			b.WriteString(a.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

func renderDetector(d *core.Detector, levels []netaddr6.AggLevel) map[netaddr6.AggLevel]string {
	out := map[netaddr6.AggLevel]string{}
	for _, lvl := range levels {
		out[lvl] = canonicalScans(d.Scans(lvl))
	}
	return out
}

// encodeLog writes records to an in-memory binary log.
func encodeLog(t *testing.T, recs []firewall.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := firewall.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedParityStreamingAdvanceEvery extends TestShardedParity to
// the bounded-memory streaming path: a chunked LogSource feeding
// Detect with a 30-minute AdvanceEvery cadence must be byte-identical
// to the materializing, never-advanced reference at 1, 2 and 8 shards.
func TestShardedParityStreamingAdvanceEvery(t *testing.T) {
	recs := streamParityRecords(40_000, 0)
	cfg := streamParityConfig()

	ref, err := From(SliceSource(recs)).Detect(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderDetector(ref, cfg.Levels)
	for lvl, s := range want {
		if s == "" {
			t.Fatalf("reference produced no scans at %v", lvl)
		}
	}

	log := encodeLog(t, recs)
	for _, shards := range []int{1, 2, 8} {
		det, err := From(NewLogSource(bytes.NewReader(log))).
			AdvanceEvery(30*time.Minute).
			Detect(context.Background(), cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		got := renderDetector(det, cfg.Levels)
		for _, lvl := range cfg.Levels {
			if got[lvl] != want[lvl] {
				t.Errorf("shards=%d level %v: streaming+AdvanceEvery output differs from materializing reference (%d vs %d bytes)",
					shards, lvl, len(got[lvl]), len(want[lvl]))
			}
		}
	}
}

// TestShardedParityWindowSortStreaming adds bounded disorder: the
// jittered stream flows through WindowSort + AdvanceEvery and must
// equal the sort.SliceStable reference at every shard count.
func TestShardedParityWindowSortStreaming(t *testing.T) {
	const jitter = 2 * time.Second
	recs := streamParityRecords(40_000, jitter)
	cfg := streamParityConfig()

	sorted := stableByTime(recs)
	ref, err := From(SliceSource(sorted)).Detect(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderDetector(ref, cfg.Levels)

	for _, shards := range []int{1, 2, 8} {
		det, err := From(SliceSource(recs)).
			WindowSort(jitter).
			AdvanceEvery(30*time.Minute).
			Detect(context.Background(), cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		got := renderDetector(det, cfg.Levels)
		for _, lvl := range cfg.Levels {
			if got[lvl] != want[lvl] {
				t.Errorf("shards=%d level %v: WindowSort streaming output differs from materialize+sort reference", shards, lvl)
			}
		}
	}
}

// canonicalIDSAlerts renders every alert field (the ids parity suite's
// renderer, local to this package).
func canonicalIDSAlerts(alerts []ids.Alert) string {
	var b strings.Builder
	for _, a := range alerts {
		fmt.Fprintf(&b, "%v %v est=%d pk=%d %d %d esc=%v\n",
			a.Prefix, a.Level, a.EstimatedDsts, a.Packets,
			a.First.UnixNano(), a.Last.UnixNano(), a.Escalated)
	}
	return b.String()
}

// TestShardedIDSParityStreamingAdvanceEvery extends
// TestShardedIDSParity to the sink-driven cadence: IDS ticks are
// semantic, so the sharded streaming engines must match the unsharded
// engine run at the identical AdvanceEvery cadence, byte for byte.
func TestShardedIDSParityStreamingAdvanceEvery(t *testing.T) {
	recs := streamParityRecords(40_000, 0)
	cfg := ids.Config{
		MinDsts: 20,
		Timeout: time.Hour,
		Levels:  []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48, netaddr6.Agg32},
	}
	const cadence = 10 * time.Minute

	log := encodeLog(t, recs)
	refAlerts, err := runIDS(context.Background(), From(NewLogSource(bytes.NewReader(log))).
		AdvanceEvery(cadence),
		cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalIDSAlerts(refAlerts)
	if want == "" {
		t.Fatal("reference produced no alerts")
	}

	for _, shards := range []int{2, 8} {
		alerts, err := runIDS(context.Background(), From(NewLogSource(bytes.NewReader(log))).
			AdvanceEvery(cadence),
			cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalIDSAlerts(alerts); got != want {
			t.Errorf("shards=%d: streaming AdvanceEvery alerts differ from unsharded\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// TestRunIntoAppliesAdvanceEvery pins the builder as the one setter of
// a terminal's cadence: RunInto hands a detector or IDS terminal the
// builder's AdvanceEvery, CheckpointEvery and Instrument settings,
// zero values included, and leaves the restored marks alone.
func TestRunIntoAppliesAdvanceEvery(t *testing.T) {
	recs := scanStream(10)
	dir := t.TempDir()
	met := RegisterMetrics(metrics.NewRegistry())

	sink := NewShardedSink(core.NewShardedDetector(core.DefaultConfig(), 1))
	if err := From(SliceSource(recs)).AdvanceEvery(5*time.Minute).
		CheckpointEvery(time.Hour, dir).Instrument(met).
		RunInto(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	want := cadence{advanceEvery: 5 * time.Minute, checkpointEvery: time.Hour, checkpointDir: dir,
		lastAdvance: recs[0].Time, met: met}
	if sink.cadence != want {
		t.Fatalf("RunInto applied %+v, want %+v", sink.cadence, want)
	}

	ids1 := NewIDSSink(ids.New(ids.DefaultConfig()))
	ids1.setCadence(time.Minute, time.Hour, dir, met)
	mark := recs[0].Time.Add(-time.Hour)
	ids1.setPhase(marks{mark, mark})
	if err := From(SliceSource(recs[:0])).RunInto(context.Background(), ids1); err != nil {
		t.Fatal(err)
	}
	if want := (cadence{lastAdvance: mark, lastCkpt: mark}); ids1.cadence != want {
		t.Fatalf("zero builder settings: sink cadence %+v, want %+v", ids1.cadence, want)
	}
}

// TestPcapStreamingMatchesMaterializing: the cmd/v6scan streaming pcap
// path (PcapSource → WindowSort) must produce the identical record
// sequence as decoding everything and sorting it with sort.SliceStable,
// for a capture with bounded timestamp jitter.
func TestPcapStreamingMatchesMaterializing(t *testing.T) {
	const jitter = time.Second
	recs := streamParityRecords(2_000, jitter)

	var capture bytes.Buffer
	pw := pcap.NewWriter(&capture, pcap.WriterOptions{Nanosecond: true})
	for _, r := range recs {
		frame, err := layers.BuildTCPSYN(r.Src, r.Dst, r.SrcPort, r.DstPort,
			layers.BuildOptions{Link: layers.LinkTypeEthernet})
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WritePacket(r.Time, frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Materializing reference: decode everything, then a stable sort.
	var want []firewall.Record
	ref := NewPcapSource(bytes.NewReader(capture.Bytes()))
	if err := ref.EmitBatch(DefaultBatchSize, func(part []firewall.Record) error {
		want = append(want, part...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ref.Skipped() != 0 {
		t.Fatalf("reference skipped %d packets", ref.Skipped())
	}
	want = stableByTime(want)

	// Streaming path: bounded reorder buffer, no materialization.
	var got []firewall.Record
	src := NewPcapSource(bytes.NewReader(capture.Bytes()))
	p := From(src).WindowSort(jitter).Build(Collector(func(r firewall.Record) { got = append(got, r) }))
	if err := p.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming pcap path differs from materialize+sort (%d vs %d records)", len(got), len(want))
	}
}
