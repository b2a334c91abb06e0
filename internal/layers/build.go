package layers

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// BuildOptions configures the probe builders.
type BuildOptions struct {
	Link       LinkType // LinkTypeEthernet or LinkTypeRaw (default raw)
	PayloadLen int      // application payload bytes (zero-filled)
}

// BuildTCPSYN constructs a TCP SYN probe — the archetypal scan packet —
// from src to dst:port.
func BuildTCPSYN(src, dst netip.Addr, srcPort, dstPort uint16, opt BuildOptions) ([]byte, error) {
	var h [tcpHeaderLen]byte
	binary.BigEndian.PutUint16(h[0:2], srcPort)
	binary.BigEndian.PutUint16(h[2:4], dstPort)
	// A deterministic sequence number, irrelevant to detection.
	binary.BigEndian.PutUint32(h[4:8], uint32(srcPort)<<16|uint32(dstPort))
	h[12] = 5 << 4 // data offset: 5 words, no options
	h[13] = 0x02   // SYN
	binary.BigEndian.PutUint16(h[14:16], 64240)
	return probe(src, dst, ProtoTCP, h[:], 16, opt)
}

// BuildUDPProbe constructs a UDP probe from src to dst:port.
func BuildUDPProbe(src, dst netip.Addr, srcPort, dstPort uint16, opt BuildOptions) ([]byte, error) {
	var h [udpHeaderLen]byte
	binary.BigEndian.PutUint16(h[0:2], srcPort)
	binary.BigEndian.PutUint16(h[2:4], dstPort)
	binary.BigEndian.PutUint16(h[4:6], uint16(udpHeaderLen+opt.PayloadLen))
	return probe(src, dst, ProtoUDP, h[:], 6, opt)
}

// BuildICMPv6Echo constructs an ICMPv6 echo request, the probe type of
// the MAWI ICMPv6 scan peaks.
func BuildICMPv6Echo(src, dst netip.Addr, id, seq uint16, opt BuildOptions) ([]byte, error) {
	h := [icmpv6HeaderLen + 4]byte{0: icmpv6EchoRequest}
	binary.BigEndian.PutUint16(h[4:6], id)
	binary.BigEndian.PutUint16(h[6:8], seq)
	return probe(src, dst, ProtoICMPv6, h[:], 2, opt)
}

// probe writes one frame front to back: the Ethernet header when
// opt.Link asks for it, the IPv6 header (hop limit 64), the transport
// header th, opt.PayloadLen zero bytes, and last the upper-layer
// checksum into th's field at offset sumAt.
func probe(src, dst netip.Addr, proto IPProtocol, th []byte, sumAt int, opt BuildOptions) ([]byte, error) {
	if !src.Is6() || !dst.Is6() {
		return nil, fmt.Errorf("layers: probe src/dst must be IPv6 (%v → %v)", src, dst)
	}
	seg := len(th) + opt.PayloadLen
	if seg > 0xFFFF {
		return nil, fmt.Errorf("layers: probe payload %d exceeds 65535", seg)
	}
	l2 := 0
	if opt.Link == LinkTypeEthernet {
		l2 = ethernetHeaderLen
	}
	out := make([]byte, l2+ipv6HeaderLen+seg)
	if l2 > 0 { // locally administered dst 02::01 and src 02::02, then ethertype IPv6
		copy(out, []byte{0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02, 0x86, 0xDD})
	}
	ip := out[l2:]
	ip[0] = 6 << 4
	binary.BigEndian.PutUint16(ip[4:6], uint16(seg))
	ip[6] = uint8(proto)
	ip[7] = 64
	s, d := src.As16(), dst.As16()
	copy(ip[8:24], s[:])
	copy(ip[24:40], d[:])
	t := ip[ipv6HeaderLen:]
	copy(t, th)
	sum := checksum(ip[8:40], proto, t)
	if sum == 0 && proto == ProtoUDP {
		sum = 0xFFFF // RFC 8200: zero means "no checksum", transmit as all-ones
	}
	binary.BigEndian.PutUint16(t[sumAt:], sum)
	return out, nil
}

// checksum is the RFC 8200 §8.1 upper-layer checksum of seg: the ones'
// complement of the ones'-complement sum of seg and the pseudo-header,
// whose source and destination addresses are addrs (32 bytes).
func checksum(addrs []byte, proto IPProtocol, seg []byte) uint16 {
	sum := uint64(len(seg)) + uint64(proto)
	for _, b := range [2][]byte{addrs, seg} {
		for ; len(b) >= 2; b = b[2:] {
			sum += uint64(binary.BigEndian.Uint16(b))
		}
		if len(b) == 1 {
			sum += uint64(b[0]) << 8
		}
	}
	for sum > 0xFFFF {
		sum = sum>>16 + sum&0xFFFF
	}
	return ^uint16(sum)
}
