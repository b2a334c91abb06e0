package layers

import (
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

func TestBuildAndParseTCPSYN(t *testing.T) {
	frame, err := BuildTCPSYN(testSrc, testDst, 40000, 22, BuildOptions{Link: LinkTypeEthernet})
	if err != nil {
		t.Fatal(err)
	}
	var d Decoded
	if err := ParseFrame(frame, LinkTypeEthernet, &d); err != nil {
		t.Fatal(err)
	}
	if !d.HasEthernet || d.Ethernet.EtherType != EtherTypeIPv6 {
		t.Error("ethernet layer wrong")
	}
	if d.IPv6.Src != testSrc || d.IPv6.Dst != testDst {
		t.Errorf("addresses: %v → %v", d.IPv6.Src, d.IPv6.Dst)
	}
	if d.Transport != ProtoTCP || d.TCP.DstPort != 22 || d.TCP.SrcPort != 40000 {
		t.Errorf("transport: %v %d→%d", d.Transport, d.SrcPort(), d.DstPort())
	}
	if d.TCP.Flags != FlagSYN {
		t.Errorf("flags: %v", d.TCP.Flags)
	}
	// Checksum must verify over the TCP segment.
	seg := frame[ethernetHeaderLen+ipv6HeaderLen:]
	if !d.TCP.VerifyChecksum(testSrc, testDst, seg) {
		t.Error("TCP checksum does not verify")
	}
}

func TestBuildAndParseUDP(t *testing.T) {
	frame, err := BuildUDPProbe(testSrc, testDst, 5353, 500, BuildOptions{PayloadLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	var d Decoded
	if err := ParseFrame(frame, LinkTypeRaw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Transport != ProtoUDP || d.UDP.DstPort != 500 {
		t.Errorf("udp: %v %d", d.Transport, d.UDP.DstPort)
	}
	if len(d.UDP.Payload()) != 16 {
		t.Errorf("payload len %d", len(d.UDP.Payload()))
	}
	if !d.UDP.VerifyChecksum(testSrc, testDst, frame[ipv6HeaderLen:]) {
		t.Error("UDP checksum does not verify")
	}
}

func TestBuildAndParseICMPv6Echo(t *testing.T) {
	frame, err := BuildICMPv6Echo(testSrc, testDst, 77, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var d Decoded
	if err := ParseFrame(frame, LinkTypeRaw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Transport != ProtoICMPv6 || d.ICMPv6.Type != ICMPv6EchoRequest {
		t.Errorf("icmp: %v %v", d.Transport, d.ICMPv6.Type)
	}
	if d.ICMPv6.Identifier != 77 || d.ICMPv6.SeqNumber != 3 {
		t.Errorf("echo id/seq: %d/%d", d.ICMPv6.Identifier, d.ICMPv6.SeqNumber)
	}
	if !d.ICMPv6.VerifyChecksum(testSrc, testDst, frame[ipv6HeaderLen:]) {
		t.Error("ICMPv6 checksum does not verify")
	}
	if d.SrcPort() != 0 || d.DstPort() != 0 {
		t.Error("ICMPv6 should report zero ports")
	}
}

func TestParseExtensionChain(t *testing.T) {
	ip := &IPv6{NextHeader: ProtoHopByHop, HopLimit: 64, Src: testSrc, Dst: testDst}
	tcp := &TCP{SrcPort: 1, DstPort: 2, DataOffset: 5, Flags: FlagSYN}
	tcp.SetNetworkLayerForChecksum(ip)
	hbh := NewPadExtension(ProtoHopByHop, ProtoDestOpts)
	dst := NewPadExtension(ProtoDestOpts, ProtoTCP)
	buf := NewSerializeBuffer(128)
	if err := SerializeLayers(buf, buildSerializeOpts, ip, hbh, dst, tcp); err != nil {
		t.Fatal(err)
	}
	var d Decoded
	if err := ParseFrame(buf.Bytes(), LinkTypeRaw, &d); err != nil {
		t.Fatal(err)
	}
	if d.NumExtensions != 2 {
		t.Fatalf("extensions: %d", d.NumExtensions)
	}
	if d.Extensions[0].Protocol != ProtoHopByHop || d.Extensions[1].Protocol != ProtoDestOpts {
		t.Errorf("chain: %v %v", d.Extensions[0].Protocol, d.Extensions[1].Protocol)
	}
	if d.Transport != ProtoTCP || d.TCP.DstPort != 2 {
		t.Errorf("transport after chain: %v", d.Transport)
	}
}

func TestParseFragmentHeader(t *testing.T) {
	ip := &IPv6{NextHeader: ProtoFragment, HopLimit: 64, Src: testSrc, Dst: testDst}
	frag := &Extension{
		Protocol:   ProtoFragment,
		NextHeader: ProtoUDP,
		Contents:   []byte{uint8(ProtoUDP), 0, 0, 0, 0, 0, 0, 1},
	}
	udp := &UDP{SrcPort: 9, DstPort: 53}
	udp.SetNetworkLayerForChecksum(ip)
	buf := NewSerializeBuffer(128)
	if err := SerializeLayers(buf, buildSerializeOpts, ip, frag, udp); err != nil {
		t.Fatal(err)
	}
	var d Decoded
	if err := ParseFrame(buf.Bytes(), LinkTypeRaw, &d); err != nil {
		t.Fatal(err)
	}
	if d.NumExtensions != 1 || d.Extensions[0].Protocol != ProtoFragment {
		t.Fatalf("fragment not decoded: %+v", d.NumExtensions)
	}
	if d.Transport != ProtoUDP {
		t.Errorf("transport: %v", d.Transport)
	}
}

func TestParseTruncated(t *testing.T) {
	frame, _ := BuildTCPSYN(testSrc, testDst, 1, 2, BuildOptions{Link: LinkTypeEthernet})
	for _, n := range []int{0, 5, ethernetHeaderLen + 3, ethernetHeaderLen + ipv6HeaderLen + 2} {
		var d Decoded
		err := ParseFrame(frame[:n], LinkTypeEthernet, &d)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("truncated at %d: err = %v", n, err)
		}
	}
}

func TestParseNotIPv6(t *testing.T) {
	var d Decoded
	// IPv4 version nibble.
	pkt := make([]byte, 40)
	pkt[0] = 0x45
	if err := ParseFrame(pkt, LinkTypeRaw, &d); !errors.Is(err, ErrNotIPv6) {
		t.Errorf("v4 raw: %v", err)
	}
	// Ethernet with IPv4 ethertype.
	frame := make([]byte, 60)
	frame[12], frame[13] = 0x08, 0x00
	if err := ParseFrame(frame, LinkTypeEthernet, &d); !errors.Is(err, ErrNotIPv6) {
		t.Errorf("v4 eth: %v", err)
	}
	// An IPv6 header with an IPv4-mapped source or destination.
	mapped := netip.MustParseAddr("::ffff:192.0.2.1")
	for _, addrs := range [][2]netip.Addr{{mapped, testDst}, {testSrc, mapped}} {
		frame, err := BuildTCPSYN(addrs[0], addrs[1], 40000, 22, BuildOptions{Link: LinkTypeEthernet})
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseFrame(frame, LinkTypeEthernet, &d); !errors.Is(err, ErrNotIPv6) {
			t.Errorf("IPv4-mapped %v → %v: %v", addrs[0], addrs[1], err)
		}
	}
}

func TestParseUnknownTransportNotError(t *testing.T) {
	ip := &IPv6{NextHeader: IPProtocol(132) /* SCTP */, HopLimit: 64, Src: testSrc, Dst: testDst}
	buf := NewSerializeBuffer(64)
	if err := SerializeLayers(buf, SerializeOptions{FixLengths: true}, ip, Payload(make([]byte, 12))); err != nil {
		t.Fatal(err)
	}
	var d Decoded
	if err := ParseFrame(buf.Bytes(), LinkTypeRaw, &d); err != nil {
		t.Fatalf("unknown transport should parse: %v", err)
	}
	if d.Transport != IPProtocol(132) {
		t.Errorf("transport: %v", d.Transport)
	}
}

func TestExtensionChainTooLong(t *testing.T) {
	ip := &IPv6{NextHeader: ProtoDestOpts, HopLimit: 64, Src: testSrc, Dst: testDst}
	ls := []SerializableLayer{ip}
	for i := 0; i < maxExtensionHeaders+1; i++ {
		next := ProtoDestOpts
		if i == maxExtensionHeaders {
			next = ProtoNoNext
		}
		ls = append(ls, NewPadExtension(ProtoDestOpts, next))
	}
	buf := NewSerializeBuffer(256)
	if err := SerializeLayers(buf, SerializeOptions{FixLengths: true}, ls...); err != nil {
		t.Fatal(err)
	}
	var d Decoded
	if err := ParseFrame(buf.Bytes(), LinkTypeRaw, &d); !errors.Is(err, ErrChainTooLong) {
		t.Errorf("err = %v, want ErrChainTooLong", err)
	}
}

func TestEthernetPaddingRespectsIPv6Length(t *testing.T) {
	frame, err := BuildTCPSYN(testSrc, testDst, 1, 2, BuildOptions{Link: LinkTypeEthernet})
	if err != nil {
		t.Fatal(err)
	}
	padded := append(frame, make([]byte, 10)...) // Ethernet min-frame padding
	var d Decoded
	if err := ParseFrame(padded, LinkTypeEthernet, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.TCP.Payload()) != 0 {
		t.Errorf("padding leaked into payload: %d bytes", len(d.TCP.Payload()))
	}
}

func TestTCPRoundTripQuick(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16) bool {
		ip := &IPv6{NextHeader: ProtoTCP, HopLimit: 1, Src: testSrc, Dst: testDst}
		in := &TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, DataOffset: 5, Flags: TCPFlags(flags), Window: win}
		in.SetNetworkLayerForChecksum(ip)
		buf := NewSerializeBuffer(64)
		if err := SerializeLayers(buf, buildSerializeOpts, ip, in); err != nil {
			return false
		}
		var d Decoded
		if err := ParseFrame(buf.Bytes(), LinkTypeRaw, &d); err != nil {
			return false
		}
		out := &d.TCP
		return out.SrcPort == sp && out.DstPort == dp && out.Seq == seq &&
			out.Ack == ack && out.Flags == TCPFlags(flags) && out.Window == win &&
			out.VerifyChecksum(testSrc, testDst, buf.Bytes()[ipv6HeaderLen:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPv6RoundTripQuick(t *testing.T) {
	f := func(hi1, lo1, hi2, lo2 uint64, tc uint8, fl uint32, hop uint8) bool {
		src := netaddr6.U128{Hi: hi1, Lo: lo1}.ToAddr()
		dst := netaddr6.U128{Hi: hi2, Lo: lo2}.ToAddr()
		in := &IPv6{TrafficClass: tc, FlowLabel: fl & 0xFFFFF, NextHeader: ProtoNoNext, HopLimit: hop, Src: src, Dst: dst}
		buf := NewSerializeBuffer(64)
		if err := SerializeLayers(buf, SerializeOptions{FixLengths: true}, in); err != nil {
			return false
		}
		var out IPv6
		if err := out.DecodeFromBytes(buf.Bytes()); err != nil {
			return false
		}
		return out.Src == src && out.Dst == dst && out.TrafficClass == tc &&
			out.FlowLabel == fl&0xFFFFF && out.HopLimit == hop && out.Version == 6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071-style sanity: checksum of a buffer containing its own
	// checksum must verify (sum to 0xFFFF before complement).
	src := netaddr6.MustAddr("fe80::1")
	dst := netaddr6.MustAddr("fe80::2")
	seg := []byte{0x10, 0x92, 0x00, 0x07, 0, 0, 0, 0, 0, 0, 0, 0, 0x50, 0x02, 0xff, 0xff, 0, 0, 0, 0}
	c := transportChecksum(src, dst, ProtoTCP, seg)
	seg[16], seg[17] = byte(c>>8), byte(c)
	if transportChecksum(src, dst, ProtoTCP, seg) != 0 {
		t.Error("checksum self-verification failed")
	}
	// Odd-length segment exercises the trailing-byte path.
	odd := append(seg, 0xAB)
	c2 := transportChecksum(src, dst, ProtoTCP, odd[:len(odd)-1])
	_ = c2
	oddC := transportChecksum(src, dst, ProtoTCP, odd)
	if oddC == 0 {
		t.Error("odd checksum unexpectedly zero")
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := NewSerializeBuffer(2)
	copy(b.Prepend(4), []byte{1, 2, 3, 4})
	copy(b.Prepend(3), []byte{5, 6, 7})
	got := b.Bytes()
	want := []byte{5, 6, 7, 1, 2, 3, 4}
	if string(got) != string(want) {
		t.Errorf("got %v want %v", got, want)
	}
	b.Clear()
	if b.Len() != 0 {
		t.Error("clear failed")
	}
	copy(b.Append(2), []byte{9, 9})
	if b.Len() != 2 {
		t.Error("append after clear failed")
	}
}

func TestTCPOptionsRoundTrip(t *testing.T) {
	ip := &IPv6{NextHeader: ProtoTCP, HopLimit: 64, Src: testSrc, Dst: testDst}
	in := &TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN, Options: []byte{2, 4, 0x05, 0xb4}} // MSS 1460
	in.SetNetworkLayerForChecksum(ip)
	buf := NewSerializeBuffer(64)
	if err := SerializeLayers(buf, buildSerializeOpts, ip, in); err != nil {
		t.Fatal(err)
	}
	var d Decoded
	if err := ParseFrame(buf.Bytes(), LinkTypeRaw, &d); err != nil {
		t.Fatal(err)
	}
	if string(d.TCP.Options) != string(in.Options) {
		t.Errorf("options: %v", d.TCP.Options)
	}
	if d.TCP.DataOffset != 6 {
		t.Errorf("data offset: %d", d.TCP.DataOffset)
	}
	// Misaligned options must be rejected.
	bad := &TCP{Options: []byte{1, 2, 3}}
	if err := bad.SerializeTo(NewSerializeBuffer(64), SerializeOptions{}); !errors.Is(err, ErrBadHeaderSize) {
		t.Errorf("misaligned options: %v", err)
	}
}

func TestTCPFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SYN|ACK" {
		t.Errorf("got %q", got)
	}
	if got := TCPFlags(0).String(); got != "none" {
		t.Errorf("got %q", got)
	}
}

func TestStringers(t *testing.T) {
	if ProtoTCP.String() != "TCP" || ProtoICMPv6.String() != "ICMPv6" {
		t.Error("proto names")
	}
	if IPProtocol(200).String() != "Proto(200)" {
		t.Error("unknown proto name")
	}
	if LayerTypeIPv6.String() != "IPv6" || LayerType(99).String() != "LayerType(99)" {
		t.Error("layer type names")
	}
	if ICMPv6EchoRequest.String() != "EchoRequest" || ICMPv6Type(7).String() != "ICMPv6Type(7)" {
		t.Error("icmp type names")
	}
	m := MACAddr{0xaa, 0xbb, 0xcc, 0, 1, 2}
	if m.String() != "aa:bb:cc:00:01:02" {
		t.Errorf("mac: %s", m)
	}
}

func TestChecksumRequiresNetworkLayer(t *testing.T) {
	tcp := &TCP{DataOffset: 5}
	err := tcp.SerializeTo(NewSerializeBuffer(64), SerializeOptions{ComputeChecksums: true})
	if err == nil {
		t.Error("TCP checksum without network layer accepted")
	}
	udp := &UDP{}
	if err := udp.SerializeTo(NewSerializeBuffer(64), SerializeOptions{ComputeChecksums: true}); err == nil {
		t.Error("UDP checksum without network layer accepted")
	}
	ic := &ICMPv6{Type: ICMPv6EchoRequest}
	if err := ic.SerializeTo(NewSerializeBuffer(64), SerializeOptions{ComputeChecksums: true}); err == nil {
		t.Error("ICMPv6 checksum without network layer accepted")
	}
}

func TestIPv6SerializeRejectsIPv4(t *testing.T) {
	ip := &IPv6{Src: netip.MustParseAddr("10.0.0.1"), Dst: testDst}
	if err := ip.SerializeTo(NewSerializeBuffer(64), SerializeOptions{}); err == nil {
		t.Error("IPv4 src accepted")
	}
}

func TestUDPBadLengthField(t *testing.T) {
	// Length field smaller than header must error.
	raw := []byte{0, 1, 0, 2, 0, 4, 0, 0}
	var u UDP
	if err := u.DecodeFromBytes(raw); !errors.Is(err, ErrBadHeaderSize) {
		t.Errorf("got %v", err)
	}
}

func TestUnknownLinkType(t *testing.T) {
	var d Decoded
	if err := ParseFrame(make([]byte, 64), LinkType(999), &d); !errors.Is(err, ErrUnknownNext) {
		t.Errorf("got %v", err)
	}
}
