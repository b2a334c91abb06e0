package v6scan

import (
	"bytes"
	"context"
	"testing"
	"time"

	"v6scan/internal/layers"
	"v6scan/internal/mawi"
	"v6scan/internal/netaddr6"
)

// TestFacadeEndToEnd exercises the public API surface the way a
// downstream user would: build records, run the detector, write and
// re-read a log, round-trip a pcap.
func TestFacadeEndToEnd(t *testing.T) {
	det := NewDetector(DefaultDetectorConfig())
	ts := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	src := netaddr6.MustAddr("2001:db8:bad::1")
	var recs []Record
	for i := 0; i < 150; i++ {
		r := Record{
			Time: ts, Src: src,
			Dst:   netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(i+1)),
			Proto: layers.ProtoTCP, DstPort: 22, Length: 60,
		}
		recs = append(recs, r)
		if err := det.Process(r); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(time.Second)
	}
	det.Finish()
	scans := det.Scans(Agg64)
	if len(scans) != 1 || scans[0].Dsts != 150 {
		t.Fatalf("scans: %+v", scans)
	}
	if scans[0].Class() != SinglePort {
		t.Errorf("class: %v", scans[0].Class())
	}

	// Log round trip.
	var buf bytes.Buffer
	w := WriteLog(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lr := ReadLog(&buf)
	got, err := lr.Next()
	if err != nil || got != recs[0] {
		t.Fatalf("log round trip: %+v, %v", got, err)
	}
}

// TestFacadeBuilderBatchEndToEnd is the acceptance check for the
// fluent public API: a policy+artifact-filtered pipeline from a binary
// LogSource into the sharded detector counts every record and detects
// the one scan in the log.
func TestFacadeBuilderBatchEndToEnd(t *testing.T) {
	ts := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	src := netaddr6.MustAddr("2001:db8:bad::1")
	var buf bytes.Buffer
	w := WriteLog(&buf)
	for i := 0; i < 200; i++ {
		r := Record{
			Time: ts, Src: src,
			Dst:   netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(i+1)),
			Proto: layers.ProtoTCP, DstPort: 22, Length: 60,
		}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(time.Second)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	det := NewShardedDetector(DefaultDetectorConfig(), 4)
	sink := NewShardedSink(det)
	var counted *PipelineCounter
	p := From(NewLogSource(&buf)).
		Policy(DefaultCollectPolicy()).
		Artifact().
		Counter(&counted).
		Build(sink)
	if err := p.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if counted.Count() != 200 {
		t.Fatalf("counted %d records, want 200", counted.Count())
	}
	scans := sink.Result().Scans(Agg64)
	if len(scans) != 1 || scans[0].Dsts != 200 {
		t.Fatalf("scans: %+v", scans)
	}
}

func TestFacadePcap(t *testing.T) {
	var buf bytes.Buffer
	recs := []Record{{
		Time: time.Unix(1622505600, 0).UTC(),
		Src:  netaddr6.MustAddr("2001:db8::1"), Dst: netaddr6.MustAddr("2001:db8::2"),
		Proto: layers.ProtoTCP, SrcPort: 4000, DstPort: 22, Length: 60,
	}}
	if err := mawi.WritePcapDay(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := RecordsFromPcap(&buf)
	if err != nil || skipped != 0 || len(got) != 1 {
		t.Fatalf("pcap: %v %d %d", err, skipped, len(got))
	}
	if got[0].Dst != recs[0].Dst || got[0].DstPort != 22 {
		t.Errorf("record: %+v", got[0])
	}
}

func TestFacadeAggregateAndClassify(t *testing.T) {
	a := netaddr6.MustAddr("2001:db8:1:2:3::9")
	if Aggregate(a, Agg48) != netaddr6.MustPrefix("2001:db8:1::/48") {
		t.Error("Aggregate broken")
	}
	ports := map[Service]uint64{{Proto: layers.ProtoTCP, Port: 22}: 10}
	if ClassifyPorts(ports) != SinglePort {
		t.Error("ClassifyPorts broken")
	}
}

func TestFacadeMAWIDetector(t *testing.T) {
	det := NewMAWIDetector(DefaultMAWIConfig())
	ts := time.Date(2021, 6, 1, 5, 0, 0, 0, time.UTC)
	for i := 0; i < 120; i++ {
		det.Process(Record{
			Time: ts, Src: netaddr6.MustAddr("2001:db8:9::1"),
			Dst:   netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(i+1)),
			Proto: layers.ProtoICMPv6, Length: 48,
		})
		ts = ts.Add(time.Second)
	}
	scans := det.Finish()
	if len(scans) != 1 || scans[0].Dsts != 120 {
		t.Fatalf("mawi scans: %+v", scans)
	}
}
