package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

func scanStream(n int) []firewall.Record {
	rng := rand.New(rand.NewSource(3))
	src := netaddr6.MustAddr("2001:db8:bad::1")
	dsts := netaddr6.MustPrefix("2001:db8:f::/48")
	ts := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, firewall.Record{
			Time: ts, Src: src, Dst: netaddr6.RandomAddrIn(dsts, rng),
			Proto: layers.ProtoTCP, SrcPort: 40000, DstPort: 22, Length: 60,
		})
		ts = ts.Add(time.Second)
	}
	return recs
}

// discard drops every record: a terminal for tests that only count or
// observe.
var discard RecordSink = SinkFunc(func(firewall.Record) error { return nil })

// tap calls fn on every record, then passes the batch on unchanged.
func tap(fn func(firewall.Record), next RecordSink) RecordSink {
	return Filter(func(r firewall.Record) bool { fn(r); return true }, next)
}

// runIDS terminates b in an IDS sink across shards and returns the
// alerts.
func runIDS(ctx context.Context, b *Builder, cfg ids.Config, shards int) ([]ids.Alert, error) {
	sink := NewIDSSink(ids.NewSharded(cfg, shards))
	if err := b.RunInto(ctx, sink); err != nil {
		return nil, err
	}
	return sink.Result(), nil
}

func TestPipelineDetectsScan(t *testing.T) {
	sink := NewShardedSink(core.NewShardedDetector(core.DefaultConfig(), 1))
	if err := From(SliceSource(scanStream(150))).RunInto(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	scans := sink.Result().Scans(netaddr6.Agg64)
	if len(scans) != 1 || scans[0].Dsts != 150 {
		t.Fatalf("scans: %+v", scans)
	}
}

func TestPolicyStageFilters(t *testing.T) {
	recs := scanStream(10)
	recs[3].DstPort = 443 // excluded by the CDN policy
	recs[7].Proto = layers.ProtoICMPv6
	cnt := NewCounter(discard)
	if err := From(SliceSource(recs)).RunInto(context.Background(), Policy(firewall.DefaultCollectPolicy(), cnt)); err != nil {
		t.Fatal(err)
	}
	if cnt.Count() != 8 {
		t.Fatalf("counted %d, want 8", cnt.Count())
	}
}

func TestDaySortOrders(t *testing.T) {
	day := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	src := netaddr6.MustAddr("2001:db8::1")
	dst := netaddr6.MustAddr("2001:db8:f::1")
	mk := func(ts time.Time) firewall.Record {
		return firewall.Record{Time: ts, Src: src, Dst: dst, Proto: layers.ProtoTCP, DstPort: 22, Length: 60}
	}
	// Two days, each emitted out of order.
	in := []firewall.Record{
		mk(day.Add(5 * time.Hour)), mk(day.Add(2 * time.Hour)), mk(day.Add(9 * time.Hour)),
		mk(day.Add(26 * time.Hour)), mk(day.Add(25 * time.Hour)),
	}
	var got []firewall.Record
	sink := NewDaySort(Collector(func(r firewall.Record) { got = append(got, r) }))
	if err := From(SliceSource(in)).RunInto(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("got %d records, want %d", len(got), len(in))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatalf("record %d out of order: %v < %v", i, got[i].Time, got[i-1].Time)
		}
	}
}

func TestArtifactStageDrops(t *testing.T) {
	day := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	dst := netaddr6.MustAddr("2001:db8:f::1")
	var in []firewall.Record
	// Artifact source: 40 packets to one (dst, port) pair — dropped.
	art := netaddr6.MustAddr("2001:db8:aaaa::1")
	for i := 0; i < 40; i++ {
		in = append(in, firewall.Record{
			Time: day.Add(time.Duration(i) * time.Minute), Src: art, Dst: dst,
			Proto: layers.ProtoTCP, DstPort: 25, Length: 80,
		})
	}
	// Clean source: distinct destinations — survives.
	clean := netaddr6.MustAddr("2001:db8:bbbb::1")
	for i := 0; i < 40; i++ {
		in = append(in, firewall.Record{
			Time: day.Add(time.Duration(i) * time.Minute), Src: clean,
			Dst:   netaddr6.WithIID(dst, uint64(i+10)),
			Proto: layers.ProtoTCP, DstPort: 22, Length: 60,
		})
	}
	f := firewall.NewArtifactFilter()
	cnt := NewCounter(discard)
	if err := From(SliceSource(in)).RunInto(context.Background(), NewDaySort(NewArtifactStage(f, cnt))); err != nil {
		t.Fatal(err)
	}
	if cnt.Count() != 40 {
		t.Fatalf("survivors = %d, want 40", cnt.Count())
	}
	if st := f.Stats(); st.PacketsDropped != 40 || st.SourcesDropped != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := NewCounter(discard), NewCounter(discard)
	if err := From(SliceSource(scanStream(25))).Tee(a).RunInto(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 25 || b.Count() != 25 {
		t.Fatalf("counts: %d, %d", a.Count(), b.Count())
	}
}

func TestLogRoundTripThroughPipeline(t *testing.T) {
	recs := scanStream(120)
	var buf bytes.Buffer
	w := firewall.NewWriter(&buf)
	if err := From(SliceSource(recs)).RunInto(context.Background(), NewLogSink(w)); err != nil {
		t.Fatal(err)
	}
	sink := NewShardedSink(core.NewShardedDetector(core.DefaultConfig(), 1))
	if err := From(NewLogSource(&buf)).RunInto(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	if scans := sink.Result().Scans(netaddr6.Agg64); len(scans) != 1 || scans[0].Dsts != 120 {
		t.Fatalf("scans after round trip: %+v", scans)
	}
}

// TestRunUsesBatchPath verifies that RunInto streams in DefaultBatchSize
// chunks, straight through an intermediate stage.
func TestRunUsesBatchPath(t *testing.T) {
	recs := scanStream(10_000)
	var batches, records int
	sink := &countingBatchSink{onBatch: func(n int) { batches++; records += n }}
	if err := From(SliceSource(recs)).RunInto(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	if records != len(recs) {
		t.Fatalf("batch path consumed %d records, want %d", records, len(recs))
	}
	if want := (len(recs) + DefaultBatchSize - 1) / DefaultBatchSize; batches != want {
		t.Fatalf("batch path saw %d batches, want %d", batches, want)
	}
	batches, records = 0, 0
	sink2 := &countingBatchSink{onBatch: func(n int) { batches++; records += n }}
	if err := From(SliceSource(recs)).RunInto(context.Background(), Filter(func(firewall.Record) bool { return true }, sink2)); err != nil {
		t.Fatal(err)
	}
	if records != len(recs) || batches >= len(recs) {
		t.Fatalf("filtered chain consumed %d records in %d batches", records, batches)
	}
}

type countingBatchSink struct {
	onBatch func(n int)
}

func (s *countingBatchSink) ConsumeBatch(recs []firewall.Record) error {
	s.onBatch(len(recs))
	return nil
}
func (s *countingBatchSink) Flush() error { return nil }

// TestLogSourceEmitBatch round-trips a log through the chunked reader
// into the IDS sink and checks the alert matches the engine fed record
// by record.
func TestLogSourceEmitBatch(t *testing.T) {
	recs := scanStream(150)
	var buf bytes.Buffer
	w := firewall.NewWriter(&buf)
	if err := From(SliceSource(recs)).RunInto(context.Background(), NewLogSink(w)); err != nil {
		t.Fatal(err)
	}
	ref := ids.New(ids.DefaultConfig())
	for _, r := range recs {
		ref.Process(r)
	}
	want := ref.Flush()

	sink := NewIDSSink(ids.New(ids.DefaultConfig()))
	if err := From(NewLogSource(&buf)).RunInto(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	got := sink.Result()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("alerts: %v, want %v", got, want)
	}
	if got[0] != want[0] {
		t.Fatalf("alert differs: %+v vs %+v", got[0], want[0])
	}
}

// TestIDSSinkAdvanceEvery verifies the stream-time Tick cadence: with it,
// a candidate idle past the engine timeout is evicted mid-stream, so a
// source that scans, goes quiet, and scans again yields two alerts;
// without it, eviction waits for Flush and the sessions merge.
func TestIDSSinkAdvanceEvery(t *testing.T) {
	burst := scanStream(150)
	var recs []firewall.Record
	recs = append(recs, burst...)
	for _, r := range burst {
		r.Time = r.Time.Add(3 * time.Hour) // beyond the 1h timeout
		recs = append(recs, r)
	}
	merged := NewIDSSink(ids.New(ids.DefaultConfig()))
	if err := From(SliceSource(recs)).RunInto(context.Background(), merged); err != nil {
		t.Fatal(err)
	}
	if n := len(merged.Result()); n != 1 {
		t.Fatalf("without AdvanceEvery: %d alerts, want 1 merged", n)
	}
	// Every batch size must split at the same stream point: the sink
	// splits batches at cadence points.
	for _, n := range []int{1, DefaultBatchSize} {
		split := NewIDSSink(ids.New(ids.DefaultConfig()))
		split.setCadence(time.Minute, 0, "", nil)
		feedBatches(t, split, recs, n)
		if got := split.Result(); len(got) != 2 {
			t.Fatalf("batch=%d with AdvanceEvery: %d alerts, want 2 split sessions: %v",
				n, len(got), got)
		}
	}
}

// streamParityRecords synthesizes the detection workload: sources
// spread across /48s and /64s and timeout-splitting lulls.
func streamParityRecords(n int) []firewall.Record {
	rng := rand.New(rand.NewSource(59))
	base := netaddr6.MustPrefix("2001:db8:a000::/36")
	dsts := netaddr6.MustPrefix("2001:db8:f000::/44")
	ts := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		p48 := netaddr6.NthSubprefix(base, 48, uint64(i%37))
		p64 := netaddr6.NthSubprefix(p48, 64, uint64(i%5))
		src := netaddr6.WithIID(p64.Addr(), uint64(1+i%9))
		recs = append(recs, firewall.Record{
			Time:    ts,
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

// canonicalIDSAlerts renders every alert field, one alert a line.
func canonicalIDSAlerts(alerts []ids.Alert) string {
	var b strings.Builder
	for _, a := range alerts {
		fmt.Fprintf(&b, "%v %v est=%d pk=%d %d %d esc=%v\n",
			a.Prefix, a.Level, a.EstimatedDsts, a.Packets,
			a.First.UnixNano(), a.Last.UnixNano(), a.Escalated)
	}
	return b.String()
}
