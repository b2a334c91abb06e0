package main

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"v6scan"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/mawi"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pcap"
)

// TestIPv4MappedSourceRejected: an IPv4-mapped (::ffff:a.b.c.d) source
// is not IPv6 to the detectors. In a binary log it fails the run with
// firewall.ErrNotIPv6 — for the detector, the artifact filter and the
// IDS alike, instead of a worker panic or a silently accepted record —
// and in a pcap the frame is skipped and counted like any undecodable
// packet.
func TestIPv4MappedSourceRejected(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	good := netaddr6.MustAddr("2001:db8::1")
	mapped := netip.MustParseAddr("::ffff:192.0.2.1")
	dst := netaddr6.MustAddr("2001:db8:f::1")

	var buf bytes.Buffer
	w := firewall.NewWriter(&buf)
	for i, src := range []netip.Addr{good, mapped} {
		w.Write(firewall.Record{Time: t0.Add(time.Duration(i) * time.Second), Src: src, Dst: dst,
			Proto: layers.ProtoTCP, SrcPort: 40000, DstPort: 22, Length: 60})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "mapped.log")
	if err := os.WriteFile(log, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-filter"}, {"-ids"}, {"-decode-workers", "2", "-shards", "3"}} {
		args := append([]string{"-i", log}, extra...)
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); !errors.Is(err, firewall.ErrNotIPv6) {
			t.Errorf("run(%v) = %v, want firewall.ErrNotIPv6", args, err)
		}
	}

	buf.Reset()
	pw := pcap.NewWriter(&buf, pcap.WriterOptions{})
	for i, src := range []netip.Addr{good, mapped} {
		frame, err := layers.BuildTCPSYN(src, dst, 40000, 22, layers.BuildOptions{Link: layers.LinkTypeEthernet})
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WritePacket(t0.Add(time.Duration(i)*time.Second), frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	capture := filepath.Join(dir, "mapped.pcap")
	if err := os.WriteFile(capture, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-window", "1m"}, {"-ids"}} {
		args := append([]string{"-i", capture, "-min-dsts", "1"}, extra...)
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "skipped 1 undecodable packets") {
			t.Errorf("run(%v): stderr %q, want one skipped packet", args, stderr.String())
		}
		if !strings.Contains(stdout.String(), "processed 1 records") {
			t.Errorf("run(%v): stdout %q, want one processed record", args, stdout.String())
		}
	}
}

// TestPcapAnyDisorderAtWindowZero: at -window 0 a pcap is sorted
// whole in the reorder stage, so a capture whose disorder is hours —
// blocks of the golden workload written in shuffled order, past any
// practical window — prints the same report as the same records
// written in time order.
func TestPcapAnyDisorderAtWindowZero(t *testing.T) {
	recs := goldenRecords()
	// Cut blocks of at least 50 records, only where the timestamp
	// changes: records tying on a timestamp stay in one block, so a
	// stable sort of the shuffled capture restores the sorted one
	// exactly.
	var blocks [][]firewall.Record
	for start := 0; start < len(recs); {
		end := min(start+50, len(recs))
		for end < len(recs) && recs[end].Time.Equal(recs[end-1].Time) {
			end++
		}
		blocks = append(blocks, recs[start:end])
		start = end
	}
	rand.New(rand.NewSource(7)).Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	var shuffled []firewall.Record
	for _, b := range blocks {
		shuffled = append(shuffled, b...)
	}

	dir := t.TempDir()
	write := func(name string, recs []firewall.Record) string {
		var buf bytes.Buffer
		if err := mawi.WritePcapDay(&buf, recs); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sorted, disordered := write("sorted.pcap", recs), write("shuffled.pcap", shuffled)

	for _, extra := range [][]string{{"-filter"}, {"-shards", "3"}, {"-ids"}} {
		want := runGolden(t, append([]string{"-i", sorted, "-top", "0"}, extra...)...)
		if !strings.Contains(want, "processed") {
			t.Fatalf("%v: degenerate report %q", extra, want)
		}
		if got := runGolden(t, append([]string{"-i", disordered, "-top", "0"}, extra...)...); got != want {
			t.Errorf("%v: shuffled capture differs from sorted\n--- got ---\n%s\n--- want ---\n%s", extra, got, want)
		}
	}

	// The disorder is real: a one-hour window rejects the capture.
	var stdout, stderr bytes.Buffer
	var late *v6scan.ErrLateRecord
	if err := run([]string{"-i", disordered, "-window", "1h"}, &stdout, &stderr); !errors.As(err, &late) {
		t.Fatalf("-window 1h on the shuffled capture: %v, want *ErrLateRecord", err)
	}
}
