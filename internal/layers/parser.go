package layers

import (
	"fmt"

	"v6scan/internal/netaddr6"
)

// LinkType identifies the outermost framing of captured packets,
// matching the pcap link types the package reads and writes.
type LinkType uint32

// Link types supported by the capture pipeline.
const (
	LinkTypeEthernet LinkType = 1   // DLT_EN10MB
	LinkTypeRaw      LinkType = 101 // DLT_RAW: bare IP packets (MAWI-style)
	LinkTypeIPv6     LinkType = 229 // DLT_IPV6
)

// maxExtensionHeaders bounds the extension chain walk; RFC-conforming
// packets have at most a handful, and unbounded chains are a parser DoS
// vector.
const maxExtensionHeaders = 8

// Decoded holds the result of parsing one frame. A single Decoded can
// be reused across packets (the DecodingLayerParser idiom): all slices
// alias the input buffer and no memory is retained between calls.
type Decoded struct {
	HasEthernet bool
	Ethernet    Ethernet
	IPv6        IPv6
	// Extensions holds the decoded extension chain, length NumExtensions.
	Extensions    [maxExtensionHeaders]Extension
	NumExtensions int
	// Transport identifies which transport layer (if any) was decoded:
	// ProtoTCP, ProtoUDP, ProtoICMPv6, or anything else for "none".
	Transport IPProtocol
	TCP       TCP
	UDP       UDP
	ICMPv6    ICMPv6
}

// SrcPort returns the transport source port, or 0 for ICMPv6/none.
func (d *Decoded) SrcPort() uint16 {
	switch d.Transport {
	case ProtoTCP:
		return d.TCP.SrcPort
	case ProtoUDP:
		return d.UDP.SrcPort
	default:
		return 0
	}
}

// DstPort returns the transport destination port, or 0 for ICMPv6/none.
func (d *Decoded) DstPort() uint16 {
	switch d.Transport {
	case ProtoTCP:
		return d.TCP.DstPort
	case ProtoUDP:
		return d.UDP.DstPort
	default:
		return 0
	}
}

// ParseFrame decodes a frame of the given link type into d. It returns
// an error for truncated or non-IPv6 packets, including an IPv6 header
// with an IPv4-mapped source or destination (ErrNotIPv6); telescope
// ingest counts and skips these. Unknown transport protocols are not
// an error: the IPv6 layer is valid and Transport records the protocol
// number.
func ParseFrame(data []byte, link LinkType, d *Decoded) error {
	d.HasEthernet = false
	d.NumExtensions = 0
	d.Transport = ProtoNoNext

	ip := data
	switch link {
	case LinkTypeEthernet:
		if err := d.Ethernet.DecodeFromBytes(data); err != nil {
			return err
		}
		d.HasEthernet = true
		if d.Ethernet.EtherType != EtherTypeIPv6 {
			return fmt.Errorf("ethertype %#04x: %w", uint16(d.Ethernet.EtherType), ErrNotIPv6)
		}
		ip = d.Ethernet.Payload()
	case LinkTypeRaw, LinkTypeIPv6:
		// bare IP
	default:
		return fmt.Errorf("link type %d: %w", link, ErrUnknownNext)
	}

	if err := d.IPv6.DecodeFromBytes(ip); err != nil {
		return err
	}
	if !netaddr6.IsIPv6(d.IPv6.Src) || !netaddr6.IsIPv6(d.IPv6.Dst) {
		return fmt.Errorf("ipv4-mapped address %v → %v: %w", d.IPv6.Src, d.IPv6.Dst, ErrNotIPv6)
	}
	next := d.IPv6.NextHeader
	rest := d.IPv6.Payload()
	// Respect the payload length field when the capture includes
	// trailing bytes (Ethernet padding).
	if int(d.IPv6.Length) < len(rest) {
		rest = rest[:d.IPv6.Length]
	}

	for next.IsExtension() {
		if d.NumExtensions >= maxExtensionHeaders {
			return ErrChainTooLong
		}
		ext := &d.Extensions[d.NumExtensions]
		if err := ext.DecodeFromBytes(next, rest); err != nil {
			return err
		}
		d.NumExtensions++
		next = ext.NextHeader
		rest = ext.Payload()
	}

	switch next {
	case ProtoTCP:
		if err := d.TCP.DecodeFromBytes(rest); err != nil {
			return err
		}
		d.Transport = ProtoTCP
	case ProtoUDP:
		if err := d.UDP.DecodeFromBytes(rest); err != nil {
			return err
		}
		d.Transport = ProtoUDP
	case ProtoICMPv6:
		if err := d.ICMPv6.DecodeFromBytes(rest); err != nil {
			return err
		}
		d.Transport = ProtoICMPv6
	default:
		d.Transport = next
	}
	return nil
}
