package v6scan

import (
	"bytes"
	"context"
	"testing"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
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
	got, err := firewall.NewReader(&buf).Next()
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
	err := From(NewLogSource(&buf)).
		Policy(DefaultCollectPolicy()).
		Artifact().
		Counter(&counted).
		RunInto(context.Background(), sink)
	if err != nil {
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
	src := NewPcapSource(&buf)
	var got []Record
	err := From(src).RunInto(context.Background(), CollectorSink(func(r Record) { got = append(got, r) }))
	if err != nil || src.Skipped() != 0 || len(got) != 1 {
		t.Fatalf("pcap: %v %d %d", err, src.Skipped(), len(got))
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
	// Scan.Class is the facade's Appendix A.3 port classifier.
	for _, tc := range []struct {
		ports int
		want  PortClass
	}{{1, SinglePort}, {5, Ports2to10}, {50, Ports10to100}, {500, PortsOver100}} {
		var s Scan
		for p := range tc.ports {
			s.Ports = append(s.Ports, core.PortCount{Service: Service{Proto: layers.ProtoTCP, Port: uint16(p + 1)}, Packets: 10})
		}
		if got := s.Class(); got != tc.want {
			t.Errorf("%d equal ports: class %v, want %v", tc.ports, got, tc.want)
		}
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
