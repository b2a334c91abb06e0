package layers

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"v6scan/internal/netaddr6"
)

// maxExtensionHeaders bounds the extension chain walk; RFC-conforming
// packets have at most a handful, and unbounded chains are a parser DoS
// vector.
const maxExtensionHeaders = 8

// Frame is what ParseFrame reads out of one frame. It holds no pointers
// and shares no bytes with the input.
type Frame struct {
	Src, Dst [16]byte
	// Proto is the protocol after the extension chain: TCP, UDP,
	// ICMPv6, or any other number, which is not an error.
	Proto            IPProtocol
	SrcPort, DstPort uint16 // 0 unless Proto is TCP or UDP
	// PayloadLen is the IPv6 payload-length field: the packet's size
	// after the 40-byte fixed header, whatever the capture kept of it.
	PayloadLen uint16
}

// ParseFrame decodes a frame of the given link type. It rejects
// truncated and non-IPv6 frames, including an IPv6 header with an
// IPv4-mapped source or destination (ErrNotIPv6), an extension chain
// longer than eight headers (ErrChainTooLong), and a TCP data offset or
// UDP length field that does not fit the packet (ErrBadHeaderSize).
// Bytes past the payload-length field (Ethernet padding) are ignored.
func ParseFrame(data []byte, link LinkType) (Frame, error) {
	switch link {
	case LinkTypeEthernet:
		if len(data) < ethernetHeaderLen {
			return Frame{}, fmt.Errorf("ethernet header: %w", ErrTruncated)
		}
		if et := binary.BigEndian.Uint16(data[12:14]); et != etherTypeIPv6 {
			return Frame{}, fmt.Errorf("ethertype %#04x: %w", et, ErrNotIPv6)
		}
		data = data[ethernetHeaderLen:]
	case LinkTypeRaw, LinkTypeIPv6:
		// bare IP
	default:
		return Frame{}, fmt.Errorf("link type %d: %w", link, ErrUnknownNext)
	}

	if len(data) < ipv6HeaderLen {
		return Frame{}, fmt.Errorf("ipv6 header: %w", ErrTruncated)
	}
	if v := data[0] >> 4; v != 6 {
		return Frame{}, fmt.Errorf("version %d: %w", v, ErrNotIPv6)
	}
	f := Frame{Src: [16]byte(data[8:24]), Dst: [16]byte(data[24:40]), PayloadLen: binary.BigEndian.Uint16(data[4:6])}
	if src, dst := netip.AddrFrom16(f.Src), netip.AddrFrom16(f.Dst); !netaddr6.IsIPv6(src) || !netaddr6.IsIPv6(dst) {
		return Frame{}, fmt.Errorf("ipv4-mapped address %v → %v: %w", src, dst, ErrNotIPv6)
	}
	next := IPProtocol(data[6])
	rest := data[ipv6HeaderLen:]
	rest = rest[:min(len(rest), int(f.PayloadLen))]

	for n := 0; next.IsExtension(); n++ {
		if n == maxExtensionHeaders {
			return Frame{}, ErrChainTooLong
		}
		if len(rest) < 8 {
			return Frame{}, fmt.Errorf("extension header %v: %w", next, ErrTruncated)
		}
		size := 8 // a fragment header has no length field
		if next != ProtoFragment {
			size = int(rest[1])*8 + 8
		}
		if size > len(rest) {
			return Frame{}, fmt.Errorf("extension header %v size %d: %w", next, size, ErrTruncated)
		}
		next, rest = IPProtocol(rest[0]), rest[size:]
	}

	f.Proto = next
	switch next {
	case ProtoTCP:
		if len(rest) < tcpHeaderLen {
			return Frame{}, fmt.Errorf("tcp header: %w", ErrTruncated)
		}
		if off := rest[12] >> 4; int(off)*4 < tcpHeaderLen || int(off)*4 > len(rest) {
			return Frame{}, fmt.Errorf("tcp data offset %d: %w", off, ErrBadHeaderSize)
		}
	case ProtoUDP:
		if len(rest) < udpHeaderLen {
			return Frame{}, fmt.Errorf("udp header: %w", ErrTruncated)
		}
		if n := binary.BigEndian.Uint16(rest[4:6]); n < udpHeaderLen || int(n) > len(rest) {
			return Frame{}, fmt.Errorf("udp length %d: %w", n, ErrBadHeaderSize)
		}
	case ProtoICMPv6:
		if len(rest) < icmpv6HeaderLen {
			return Frame{}, fmt.Errorf("icmpv6 header: %w", ErrTruncated)
		}
		if t := rest[0]; (t == icmpv6EchoRequest || t == icmpv6EchoReply) && len(rest) < icmpv6HeaderLen+4 {
			return Frame{}, fmt.Errorf("icmpv6 echo body: %w", ErrTruncated)
		}
		return f, nil
	default:
		return f, nil
	}
	f.SrcPort = binary.BigEndian.Uint16(rest[0:2])
	f.DstPort = binary.BigEndian.Uint16(rest[2:4])
	return f, nil
}
