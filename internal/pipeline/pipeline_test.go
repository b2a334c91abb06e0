package pipeline

import (
	"bytes"
	"math/rand"
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

func TestPipelineDetectsScan(t *testing.T) {
	sink := NewShardedSink(core.NewShardedDetector(core.DefaultConfig(), 1))
	if err := New(SliceSource(scanStream(150)), sink).Run(); err != nil {
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
	cnt := NewCounter(Discard)
	p := New(SliceSource(recs), Policy(firewall.DefaultCollectPolicy(), cnt))
	if err := p.Run(); err != nil {
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
	p := New(SliceSource(in), NewDaySort(Collector(func(r firewall.Record) { got = append(got, r) })))
	if err := p.Run(); err != nil {
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
	cnt := NewCounter(Discard)
	p := New(SliceSource(in), NewDaySort(NewArtifactStage(f, cnt)))
	if err := p.Run(); err != nil {
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
	a, b := NewCounter(Discard), NewCounter(Discard)
	p := New(SliceSource(scanStream(25)), Tee(a, b))
	if err := p.Run(); err != nil {
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
	if err := New(SliceSource(recs), NewLogSink(w)).Run(); err != nil {
		t.Fatal(err)
	}
	sink := NewShardedSink(core.NewShardedDetector(core.DefaultConfig(), 1))
	if err := New(NewLogSource(&buf), sink).Run(); err != nil {
		t.Fatal(err)
	}
	if scans := sink.Result().Scans(netaddr6.Agg64); len(scans) != 1 || scans[0].Dsts != 120 {
		t.Fatalf("scans after round trip: %+v", scans)
	}
}

// TestRunUsesBatchPath verifies that Run streams in DefaultBatchSize
// chunks, straight through an intermediate stage.
func TestRunUsesBatchPath(t *testing.T) {
	recs := scanStream(10_000)
	var batches, records int
	sink := &countingBatchSink{onBatch: func(n int) { batches++; records += n }}
	if err := New(SliceSource(recs), sink).Run(); err != nil {
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
	if err := New(SliceSource(recs), Filter(func(firewall.Record) bool { return true }, sink2)).Run(); err != nil {
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
	if err := New(SliceSource(recs), NewLogSink(w)).Run(); err != nil {
		t.Fatal(err)
	}
	ref := ids.New(ids.DefaultConfig())
	for _, r := range recs {
		ref.Process(r)
	}
	want := ref.Flush()

	sink := NewIDSSink(ids.New(ids.DefaultConfig()))
	if err := New(NewLogSource(&buf), sink).Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.Alerts) != len(want) || len(want) == 0 {
		t.Fatalf("alerts: %v, want %v", sink.Alerts, want)
	}
	if sink.Alerts[0] != want[0] {
		t.Fatalf("alert differs: %+v vs %+v", sink.Alerts[0], want[0])
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
	if err := New(SliceSource(recs), merged).Run(); err != nil {
		t.Fatal(err)
	}
	if len(merged.Alerts) != 1 {
		t.Fatalf("without AdvanceEvery: %d alerts, want 1 merged", len(merged.Alerts))
	}
	// Every batch size must split at the same stream point: the sink
	// splits batches at cadence points.
	for _, n := range []int{1, DefaultBatchSize} {
		split := NewIDSSink(ids.New(ids.DefaultConfig()))
		split.AdvanceEvery = time.Minute
		feedBatches(t, split, recs, n)
		if len(split.Alerts) != 2 {
			t.Fatalf("batch=%d with AdvanceEvery: %d alerts, want 2 split sessions: %v",
				n, len(split.Alerts), split.Alerts)
		}
	}
}

// TestShardedIDSSinkMatchesIDSSink runs the same stream through IDS
// sinks over a one-shard and a four-shard engine and requires
// identical alerts.
func TestShardedIDSSinkMatchesIDSSink(t *testing.T) {
	recs := scanStream(300)
	plain := NewIDSSink(ids.New(ids.DefaultConfig()))
	if err := New(SliceSource(recs), plain).Run(); err != nil {
		t.Fatal(err)
	}
	sharded := NewIDSSink(ids.NewSharded(ids.DefaultConfig(), 4))
	if err := New(SliceSource(recs), sharded).Run(); err != nil {
		t.Fatal(err)
	}
	if len(plain.Alerts) != len(sharded.Alerts) || len(plain.Alerts) == 0 {
		t.Fatalf("alert counts differ: %d vs %d", len(plain.Alerts), len(sharded.Alerts))
	}
	for i := range plain.Alerts {
		if plain.Alerts[i] != sharded.Alerts[i] {
			t.Fatalf("alert %d differs: %+v vs %+v", i, plain.Alerts[i], sharded.Alerts[i])
		}
	}
}

// TestShardedSinkMatchesDetector runs the same stream through the
// sharded sink and, as the serial reference, a plain detector fed
// directly, and requires identical scans.
func TestShardedSinkMatchesDetector(t *testing.T) {
	recs := scanStream(500)
	plain := core.NewDetector(core.DefaultConfig())
	if err := plain.ProcessBatch(recs); err != nil {
		t.Fatal(err)
	}
	plain.Finish()
	sharded := core.NewShardedDetector(core.DefaultConfig(), 4)
	if err := New(SliceSource(recs), NewDaySort(NewShardedSink(sharded))).Run(); err != nil {
		t.Fatal(err)
	}
	ps, ss := plain.Scans(netaddr6.Agg64), sharded.Merged().Scans(netaddr6.Agg64)
	if len(ps) != len(ss) || len(ps) == 0 {
		t.Fatalf("scan counts differ: %d vs %d", len(ps), len(ss))
	}
	if ps[0].Packets != ss[0].Packets || ps[0].Dsts != ss[0].Dsts || ps[0].Source != ss[0].Source {
		t.Fatalf("scan differs: %+v vs %+v", ps[0], ss[0])
	}
}
