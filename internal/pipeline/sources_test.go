package pipeline

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"v6scan/internal/bus"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pcap"
)

// writeSYNCapture encodes recs as a capture of Ethernet TCP SYN frames,
// preceding the record at each junkAt index with an undecodable
// packet.
func writeSYNCapture(t *testing.T, recs []firewall.Record, junkAt map[int]bool) []byte {
	t.Helper()
	var capture bytes.Buffer
	pw := pcap.NewWriter(&capture, pcap.WriterOptions{Nanosecond: true})
	for i, r := range recs {
		if junkAt[i] {
			// Too short to hold an Ethernet + IPv6 header: undecodable.
			if err := pw.WritePacket(r.Time.Add(-time.Millisecond), []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
				t.Fatal(err)
			}
		}
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
	return capture.Bytes()
}

// TestPcapSkippedAfterEmitBatch pins the documented contract that
// Skipped is valid once EmitBatch returns: undecodable packets
// interleaved with good frames are counted while the decoded records
// still flow.
func TestPcapSkippedAfterEmitBatch(t *testing.T) {
	recs := streamParityRecords(10)
	junkAt := map[int]bool{0: true, 4: true, 9: true}
	capture := writeSYNCapture(t, recs, junkAt)
	for _, batchSize := range []int{1, 3, DefaultBatchSize} {
		src := NewPcapSource(bytes.NewReader(capture))
		decoded := 0
		if err := src.EmitBatch(batchSize, func(part []firewall.Record) error {
			decoded += len(part)
			return nil
		}); err != nil {
			t.Fatalf("batch=%d: %v", batchSize, err)
		}
		if decoded != len(recs) {
			t.Fatalf("batch=%d: decoded %d records, want %d", batchSize, decoded, len(recs))
		}
		if got := src.Skipped(); got != len(junkAt) {
			t.Fatalf("batch=%d: Skipped() = %d after EmitBatch, want %d", batchSize, got, len(junkAt))
		}
	}
}

// TestPcapRecordFields pins how PcapSource turns a frame into a
// record: addresses, protocol and ports from the frame, and Length the
// L3 size — the payload-length field plus 40 — saturating at 65535 for
// a field of 65496 or more instead of wrapping (a 65535 field once read
// as 39).
func TestPcapRecordFields(t *testing.T) {
	src, dst := netaddr6.MustAddr("2001:db8::1"), netaddr6.MustAddr("2001:db8::2")
	t0 := time.Date(2021, 12, 24, 5, 0, 0, 0, time.UTC)
	tcp := func(payloadLenField int) []byte {
		frame, err := layers.BuildTCPSYN(src, dst, 1234, 22, layers.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if payloadLenField >= 0 { // what a snaplen-truncated capture of a larger packet holds
			frame[4], frame[5] = byte(payloadLenField>>8), byte(payloadLenField)
		}
		return frame
	}
	udp, err := layers.BuildUDPProbe(src, dst, 5353, 500, layers.BuildOptions{PayloadLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	// udpCut is the header-only capture of a datagram of wireLen bytes
	// after the IPv6 header: both length fields say wireLen.
	udpCut := func(wireLen int) []byte {
		frame, err := layers.BuildUDPProbe(src, dst, 5353, 500, layers.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		frame[4], frame[5] = byte(wireLen>>8), byte(wireLen)
		frame[44], frame[45] = byte(wireLen>>8), byte(wireLen)
		return frame
	}
	echo, err := layers.BuildICMPv6Echo(src, dst, 7, 3, layers.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		frame []byte
		want  firewall.Record
	}{
		{tcp(-1), firewall.Record{Proto: layers.ProtoTCP, SrcPort: 1234, DstPort: 22, Length: 60}},
		{udp, firewall.Record{Proto: layers.ProtoUDP, SrcPort: 5353, DstPort: 500, Length: 64}},
		{echo, firewall.Record{Proto: layers.ProtoICMPv6, Length: 48}},
		{tcp(65495), firewall.Record{Proto: layers.ProtoTCP, SrcPort: 1234, DstPort: 22, Length: 65535}},
		{tcp(65496), firewall.Record{Proto: layers.ProtoTCP, SrcPort: 1234, DstPort: 22, Length: 65535}},
		{tcp(65535), firewall.Record{Proto: layers.ProtoTCP, SrcPort: 1234, DstPort: 22, Length: 65535}},
		// A snaplen cut keeps a large UDP datagram as it keeps TCP ones.
		{udpCut(1200), firewall.Record{Proto: layers.ProtoUDP, SrcPort: 5353, DstPort: 500, Length: 1240}},
		{udpCut(65535), firewall.Record{Proto: layers.ProtoUDP, SrcPort: 5353, DstPort: 500, Length: 65535}},
	}
	var capture bytes.Buffer
	pw := pcap.NewWriter(&capture, pcap.WriterOptions{LinkType: layers.LinkTypeRaw, Nanosecond: true})
	for i, c := range cases {
		if err := pw.WritePacket(t0.Add(time.Duration(i)*time.Second), c.frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []firewall.Record
	if err := NewPcapSource(&capture).EmitBatch(0, func(recs []firewall.Record) error {
		got = append(got, recs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cases) {
		t.Fatalf("decoded %d records, want %d", len(got), len(cases))
	}
	for i, c := range cases {
		want := c.want
		want.Time, want.Src, want.Dst = t0.Add(time.Duration(i)*time.Second), src, dst
		if got[i] != want {
			t.Errorf("frame %d: record %+v, want %+v", i, got[i], want)
		}
	}
}

// TestSourcesNonPositiveBatchSize: every source — and the SourceFunc
// edge adapter — reads a non-positive batch size as DefaultBatchSize:
// it terminates and emits what it emits at DefaultBatchSize, in
// batches of 1 to DefaultBatchSize records.
func TestSourcesNonPositiveBatchSize(t *testing.T) {
	recs := streamParityRecords(2*DefaultBatchSize + 100)
	log := encodeLog(t, recs)
	logPath := filepath.Join(t.TempDir(), "fw.log")
	if err := os.WriteFile(logPath, log, 0o644); err != nil {
		t.Fatal(err)
	}
	capture := writeSYNCapture(t, recs, nil)
	sources := map[string]func() Source{
		"slice":    func() Source { return SliceSource(recs) },
		"log":      func() Source { return NewLogSource(bytes.NewReader(log)) },
		"pcap":     func() Source { return NewPcapSource(bytes.NewReader(capture)) },
		"parallel": func() Source { return NewParallelLogSource(bytes.NewReader(log), int64(len(log)), 2) },
		"files":    func() Source { return NewFilesSource(logPath) },
		"merge":    func() Source { return NewMergeSource(SliceSource(recs[:100]), SliceSource(recs[100:])) },
		"subscribe": func() Source {
			b := bus.New()
			src := NewSubscribeSource(context.Background(), b, "t")
			feedBatches(t, NewPublishSink(context.Background(), b, netaddr6.Agg48, "t"), recs, len(recs))
			return src
		},
		"tail": func() Source {
			// Cancelled up front: the tail drains the file once and ends.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return NewTailSource(logPath, TailConfig{Context: ctx})
		},
		"func": func() Source {
			return SourceFunc(func(emit func(firewall.Record) error) error {
				for _, r := range recs {
					if err := emit(r); err != nil {
						return err
					}
				}
				return nil
			})
		},
	}
	// emitAll runs src under a deadline, collecting records and batch
	// sizes.
	emitAll := func(t *testing.T, src Source, batchSize int) (got []firewall.Record, sizes []int) {
		done := make(chan error, 1)
		go func() {
			done <- src.EmitBatch(batchSize, func(b []firewall.Record) error {
				got, sizes = append(got, b...), append(sizes, len(b))
				return nil
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("EmitBatch(%d) did not return", batchSize)
		}
		return got, sizes
	}
	for name, mk := range sources {
		want, _ := emitAll(t, mk(), DefaultBatchSize)
		if len(want) != len(recs) {
			t.Fatalf("%s: emitted %d records at DefaultBatchSize, want %d", name, len(want), len(recs))
		}
		for _, batchSize := range []int{0, -1} {
			got, sizes := emitAll(t, mk(), batchSize)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: emitted %d records, want the %d of DefaultBatchSize in order", name, batchSize, len(got), len(want))
			}
			for i, n := range sizes {
				if n < 1 || n > DefaultBatchSize {
					t.Fatalf("%s/%d: batch %d holds %d records, want 1..%d", name, batchSize, i, n, DefaultBatchSize)
				}
			}
		}
	}
}
