package main

import (
	"bytes"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
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
