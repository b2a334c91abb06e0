package layers

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"

	"v6scan/internal/netaddr6"
)

var (
	testSrc = netaddr6.MustAddr("2001:db8:1::1")
	testDst = netaddr6.MustAddr("2001:db8:2::2")
)

// rawPacket returns a bare IPv6 packet from testSrc to testDst whose
// first next-header is next, carrying body.
func rawPacket(next IPProtocol, body ...[]byte) []byte {
	p := make([]byte, ipv6HeaderLen)
	p[0] = 6 << 4
	p[6] = uint8(next)
	p[7] = 64
	s, d := testSrc.As16(), testDst.As16()
	copy(p[8:24], s[:])
	copy(p[24:40], d[:])
	for _, b := range body {
		p = append(p, b...)
	}
	binary.BigEndian.PutUint16(p[4:6], uint16(len(p)-ipv6HeaderLen))
	return p
}

// padExtension is an 8-byte hop-by-hop or destination-options header
// holding one PadN option; a fragment header has the same size.
func padExtension(next IPProtocol) []byte {
	return []byte{uint8(next), 0, 1, 4, 0, 0, 0, 0}
}

// tcpHeader is a bare 20-byte TCP header (checksum not set).
func tcpHeader(srcPort, dstPort uint16) []byte {
	h := make([]byte, tcpHeaderLen)
	binary.BigEndian.PutUint16(h[0:2], srcPort)
	binary.BigEndian.PutUint16(h[2:4], dstPort)
	h[12] = 5 << 4
	return h
}

// checksumOK reports whether the transport checksum of a bare IPv6
// packet without extension headers verifies.
func checksumOK(ip []byte) bool {
	return checksum(ip[8:40], IPProtocol(ip[6]), ip[ipv6HeaderLen:]) == 0
}

func TestBuildAndParseTCPSYN(t *testing.T) {
	frame, err := BuildTCPSYN(testSrc, testDst, 40000, 22, BuildOptions{Link: LinkTypeEthernet})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFrame(frame, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	want := Frame{Src: testSrc.As16(), Dst: testDst.As16(), Proto: ProtoTCP, SrcPort: 40000, DstPort: 22, PayloadLen: tcpHeaderLen}
	if f != want {
		t.Errorf("frame %+v, want %+v", f, want)
	}
	ip := frame[ethernetHeaderLen:]
	if flags := ip[ipv6HeaderLen+13]; flags != 0x02 {
		t.Errorf("flags %#x, want SYN", flags)
	}
	if !checksumOK(ip) {
		t.Error("TCP checksum does not verify")
	}
}

func TestBuildAndParseUDP(t *testing.T) {
	frame, err := BuildUDPProbe(testSrc, testDst, 5353, 500, BuildOptions{PayloadLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFrame(frame, LinkTypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Proto != ProtoUDP || f.SrcPort != 5353 || f.DstPort != 500 {
		t.Errorf("udp: %v %d→%d", f.Proto, f.SrcPort, f.DstPort)
	}
	if f.PayloadLen != udpHeaderLen+16 {
		t.Errorf("payload len %d", f.PayloadLen)
	}
	if !checksumOK(frame) {
		t.Error("UDP checksum does not verify")
	}
}

func TestBuildAndParseICMPv6Echo(t *testing.T) {
	frame, err := BuildICMPv6Echo(testSrc, testDst, 77, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFrame(frame, LinkTypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Proto != ProtoICMPv6 || f.PayloadLen != 8 {
		t.Errorf("icmp: %v, payload len %d", f.Proto, f.PayloadLen)
	}
	body := frame[ipv6HeaderLen:]
	if body[0] != icmpv6EchoRequest || binary.BigEndian.Uint16(body[4:6]) != 77 || binary.BigEndian.Uint16(body[6:8]) != 3 {
		t.Errorf("echo header % x", body)
	}
	if !checksumOK(frame) {
		t.Error("ICMPv6 checksum does not verify")
	}
	if f.SrcPort != 0 || f.DstPort != 0 {
		t.Error("ICMPv6 should report zero ports")
	}
}

func TestParseExtensionChain(t *testing.T) {
	pkt := rawPacket(ProtoHopByHop, padExtension(ProtoDestOpts), padExtension(ProtoTCP), tcpHeader(1, 2))
	f, err := ParseFrame(pkt, LinkTypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Proto != ProtoTCP || f.SrcPort != 1 || f.DstPort != 2 {
		t.Errorf("transport after chain: %v %d→%d", f.Proto, f.SrcPort, f.DstPort)
	}
	// A length-coded header whose length byte runs past the packet.
	long := padExtension(ProtoTCP)
	long[1] = 3 // 32 bytes
	if _, err := ParseFrame(rawPacket(ProtoDestOpts, long, tcpHeader(1, 2)), LinkTypeRaw); !errors.Is(err, ErrTruncated) {
		t.Errorf("oversized extension: %v", err)
	}
}

func TestParseFragmentHeader(t *testing.T) {
	// A fragment header is 8 bytes whatever its second byte says.
	frag := []byte{uint8(ProtoUDP), 0xff, 0, 0, 0, 0, 0, 1}
	udp := []byte{0, 9, 0, 53, 0, 8, 0, 0}
	f, err := ParseFrame(rawPacket(ProtoFragment, frag, udp), LinkTypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Proto != ProtoUDP || f.DstPort != 53 {
		t.Errorf("transport: %v/%d", f.Proto, f.DstPort)
	}
}

func TestParseTruncated(t *testing.T) {
	frame, _ := BuildTCPSYN(testSrc, testDst, 1, 2, BuildOptions{Link: LinkTypeEthernet})
	for _, n := range []int{0, 5, ethernetHeaderLen + 3, ethernetHeaderLen + ipv6HeaderLen + 2} {
		_, err := ParseFrame(frame[:n], LinkTypeEthernet)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("truncated at %d: err = %v", n, err)
		}
	}
}

func TestParseNotIPv6(t *testing.T) {
	// IPv4 version nibble.
	pkt := make([]byte, 40)
	pkt[0] = 0x45
	if _, err := ParseFrame(pkt, LinkTypeRaw); !errors.Is(err, ErrNotIPv6) {
		t.Errorf("v4 raw: %v", err)
	}
	// Ethernet with IPv4 ethertype.
	frame := make([]byte, 60)
	frame[12], frame[13] = 0x08, 0x00
	if _, err := ParseFrame(frame, LinkTypeEthernet); !errors.Is(err, ErrNotIPv6) {
		t.Errorf("v4 eth: %v", err)
	}
	// An IPv6 header with an IPv4-mapped source or destination.
	mapped := netip.MustParseAddr("::ffff:192.0.2.1")
	for _, addrs := range [][2]netip.Addr{{mapped, testDst}, {testSrc, mapped}} {
		frame, err := BuildTCPSYN(addrs[0], addrs[1], 40000, 22, BuildOptions{Link: LinkTypeEthernet})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseFrame(frame, LinkTypeEthernet); !errors.Is(err, ErrNotIPv6) {
			t.Errorf("IPv4-mapped %v → %v: %v", addrs[0], addrs[1], err)
		}
	}
}

func TestParseUnknownTransportNotError(t *testing.T) {
	f, err := ParseFrame(rawPacket(IPProtocol(132) /* SCTP */, make([]byte, 12)), LinkTypeRaw)
	if err != nil {
		t.Fatalf("unknown transport should parse: %v", err)
	}
	if f.Proto != IPProtocol(132) || f.SrcPort != 0 || f.DstPort != 0 {
		t.Errorf("frame: %+v", f)
	}
}

func TestExtensionChainTooLong(t *testing.T) {
	chain := func(n int) []byte {
		var exts [][]byte
		for i := 0; i < n; i++ {
			next := ProtoDestOpts
			if i == n-1 {
				next = ProtoNoNext
			}
			exts = append(exts, padExtension(next))
		}
		return rawPacket(ProtoDestOpts, exts...)
	}
	if _, err := ParseFrame(chain(maxExtensionHeaders), LinkTypeRaw); err != nil {
		t.Errorf("chain of %d: %v", maxExtensionHeaders, err)
	}
	if _, err := ParseFrame(chain(maxExtensionHeaders+1), LinkTypeRaw); !errors.Is(err, ErrChainTooLong) {
		t.Errorf("err = %v, want ErrChainTooLong", err)
	}
}

func TestEthernetPaddingRespectsIPv6Length(t *testing.T) {
	frame, err := BuildUDPProbe(testSrc, testDst, 1, 2, BuildOptions{Link: LinkTypeEthernet})
	if err != nil {
		t.Fatal(err)
	}
	padded := append(frame, make([]byte, 10)...) // Ethernet min-frame padding
	f, err := ParseFrame(padded, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	if f.PayloadLen != udpHeaderLen {
		t.Errorf("payload len %d", f.PayloadLen)
	}
	// A UDP length reaching into the padding runs past the packet.
	udpLen := padded[ethernetHeaderLen+ipv6HeaderLen+4:]
	binary.BigEndian.PutUint16(udpLen, udpHeaderLen+10)
	if _, err := ParseFrame(padded, LinkTypeEthernet); !errors.Is(err, ErrBadHeaderSize) {
		t.Errorf("padding leaked into the packet: %v", err)
	}
}

func TestTCPRoundTripQuick(t *testing.T) {
	f := func(sp, dp uint16, pay uint8) bool {
		frame, err := BuildTCPSYN(testSrc, testDst, sp, dp, BuildOptions{PayloadLen: int(pay)})
		if err != nil {
			return false
		}
		got, err := ParseFrame(frame, LinkTypeRaw)
		return err == nil && got.Proto == ProtoTCP && got.SrcPort == sp && got.DstPort == dp &&
			int(got.PayloadLen) == tcpHeaderLen+int(pay) && checksumOK(frame)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPv6RoundTripQuick(t *testing.T) {
	f := func(hi1, lo1, hi2, lo2 uint64) bool {
		src := netaddr6.U128{Hi: hi1, Lo: lo1}.ToAddr()
		dst := netaddr6.U128{Hi: hi2, Lo: lo2}.ToAddr()
		frame, err := BuildICMPv6Echo(src, dst, 1, 2, BuildOptions{})
		if err != nil {
			return false
		}
		got, err := ParseFrame(frame, LinkTypeRaw)
		if !netaddr6.IsIPv6(src) || !netaddr6.IsIPv6(dst) {
			return errors.Is(err, ErrNotIPv6)
		}
		return err == nil && got.Src == src.As16() && got.Dst == dst.As16()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071-style sanity: checksum of a buffer containing its own
	// checksum must verify (sum to 0xFFFF before complement).
	s, d := netaddr6.MustAddr("fe80::1").As16(), netaddr6.MustAddr("fe80::2").As16()
	addrs := append(s[:], d[:]...)
	seg := []byte{0x10, 0x92, 0x00, 0x07, 0, 0, 0, 0, 0, 0, 0, 0, 0x50, 0x02, 0xff, 0xff, 0, 0, 0, 0}
	c := checksum(addrs, ProtoTCP, seg)
	seg[16], seg[17] = byte(c>>8), byte(c)
	if checksum(addrs, ProtoTCP, seg) != 0 {
		t.Error("checksum self-verification failed")
	}
	// Odd-length segment exercises the trailing-byte path.
	odd := append(seg, 0xAB)
	if checksum(addrs, ProtoTCP, odd) == 0 {
		t.Error("odd checksum unexpectedly zero")
	}
}

func TestStringers(t *testing.T) {
	if ProtoTCP.String() != "TCP" || ProtoICMPv6.String() != "ICMPv6" {
		t.Error("proto names")
	}
	if IPProtocol(200).String() != "Proto(200)" {
		t.Error("unknown proto name")
	}
}

func TestIPv6SerializeRejectsIPv4(t *testing.T) {
	if _, err := BuildTCPSYN(netip.MustParseAddr("10.0.0.1"), testDst, 1, 2, BuildOptions{}); err == nil {
		t.Error("IPv4 src accepted")
	}
	if _, err := BuildUDPProbe(testSrc, testDst, 1, 2, BuildOptions{PayloadLen: 0xFFFF}); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestUDPBadLengthField(t *testing.T) {
	// Length field smaller than header must error.
	udp := []byte{0, 1, 0, 2, 0, 4, 0, 0}
	if _, err := ParseFrame(rawPacket(ProtoUDP, udp), LinkTypeRaw); !errors.Is(err, ErrBadHeaderSize) {
		t.Errorf("got %v", err)
	}
}

// TestSnaplenCutHeaders: a capture cut after the transport header
// keeps the frame when the header's size fields fit the on-wire
// length (the IPv6 payload-length field, less extension headers), for
// UDP as for TCP, and rejects a size field beyond it.
func TestSnaplenCutHeaders(t *testing.T) {
	cut := func(next IPProtocol, hdr []byte, wire int, exts ...[]byte) []byte {
		p := rawPacket(next, append(exts, hdr)...)
		binary.BigEndian.PutUint16(p[4:6], uint16(wire))
		return p
	}
	udp := func(n uint16) []byte { return []byte{0, 1, 0, 2, byte(n >> 8), byte(n), 0, 0} }
	tcpOpts := tcpHeader(1, 2)
	tcpOpts[12] = 15 << 4 // 60-byte header, 40 bytes of options past the capture
	ext := padExtension(ProtoUDP)
	for _, c := range []struct {
		name  string
		frame []byte
		err   error
	}{
		{"udp", cut(ProtoUDP, udp(1200), 1200), nil},
		{"udp max", cut(ProtoUDP, udp(65535), 65535), nil},
		{"udp behind an extension", cut(ProtoHopByHop, udp(1192), 1200, ext), nil},
		{"udp length past the wire", cut(ProtoUDP, udp(1201), 1200), ErrBadHeaderSize},
		{"udp length past the wire behind an extension", cut(ProtoHopByHop, udp(1193), 1200, ext), ErrBadHeaderSize},
		{"tcp options", cut(ProtoTCP, tcpOpts, 1200), nil},
		{"tcp options past the wire", cut(ProtoTCP, tcpOpts, 59), ErrBadHeaderSize},
	} {
		f, err := ParseFrame(c.frame, LinkTypeRaw)
		if !errors.Is(err, c.err) || (err == nil && (f.SrcPort != 1 || f.DstPort != 2)) {
			t.Errorf("%s: %+v, %v; want ports 1→2, error %v", c.name, f, err, c.err)
		}
	}
}

func TestUnknownLinkType(t *testing.T) {
	if _, err := ParseFrame(make([]byte, 64), LinkType(999)); !errors.Is(err, ErrUnknownNext) {
		t.Errorf("got %v", err)
	}
}

func TestTCPBadDataOffset(t *testing.T) {
	for _, off := range []byte{4, 6} { // below the minimum; past the 20 bytes there are
		h := tcpHeader(1, 2)
		h[12] = off << 4
		if _, err := ParseFrame(rawPacket(ProtoTCP, h), LinkTypeRaw); !errors.Is(err, ErrBadHeaderSize) {
			t.Errorf("data offset %d: %v", off, err)
		}
	}
}
