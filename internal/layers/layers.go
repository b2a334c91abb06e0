// Package layers is the frame codec of the pcap path: ParseFrame reads
// the fields the detectors consume (addresses, transport protocol,
// ports, payload length) out of an Ethernet or raw IPv6 frame, walking
// the IPv6 extension-header chain, and the Build* functions write the
// TCP SYN, UDP and ICMPv6 echo probes the MAWI simulator captures.
//
// ParseFrame copies what it reads into a flat Frame value and keeps no
// reference to the input, so decoding a capture allocates nothing per
// packet.
package layers

import (
	"errors"
	"fmt"
)

// IPProtocol is an IPv6 next-header / protocol number.
type IPProtocol uint8

// Protocol numbers used by the telescope.
const (
	ProtoHopByHop IPProtocol = 0
	ProtoTCP      IPProtocol = 6
	ProtoUDP      IPProtocol = 17
	ProtoRouting  IPProtocol = 43
	ProtoFragment IPProtocol = 44
	ProtoICMPv6   IPProtocol = 58
	ProtoNoNext   IPProtocol = 59
	ProtoDestOpts IPProtocol = 60
)

// String names common protocols the way the paper's tables do
// ("TCP/22" is rendered by callers as Proto.String() + "/" + port).
func (p IPProtocol) String() string {
	switch p {
	case ProtoHopByHop:
		return "HopByHop"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	case ProtoRouting:
		return "Routing"
	case ProtoFragment:
		return "Fragment"
	case ProtoICMPv6:
		return "ICMPv6"
	case ProtoNoNext:
		return "NoNextHeader"
	case ProtoDestOpts:
		return "DestOpts"
	default:
		return fmt.Sprintf("Proto(%d)", uint8(p))
	}
}

// IsExtension reports whether p is an IPv6 extension header this
// package can skip while walking the header chain.
func (p IPProtocol) IsExtension() bool {
	switch p {
	case ProtoHopByHop, ProtoRouting, ProtoFragment, ProtoDestOpts:
		return true
	default:
		return false
	}
}

// LinkType identifies the outermost framing of captured packets,
// matching the pcap link types the package reads and writes.
type LinkType uint32

// Link types supported by the capture pipeline.
const (
	LinkTypeEthernet LinkType = 1   // DLT_EN10MB
	LinkTypeRaw      LinkType = 101 // DLT_RAW: bare IP packets (MAWI-style)
	LinkTypeIPv6     LinkType = 229 // DLT_IPV6
)

// Decoding errors, one class per kind of malformed frame. PcapSource
// counts and skips every frame ParseFrame rejects.
var (
	ErrTruncated     = errors.New("layers: packet truncated")
	ErrNotIPv6       = errors.New("layers: not an IPv6 packet")
	ErrUnknownNext   = errors.New("layers: unsupported next header")
	ErrChainTooLong  = errors.New("layers: extension header chain too long")
	ErrBadHeaderSize = errors.New("layers: invalid header size field")
)

// Header sizes on the wire.
const (
	ethernetHeaderLen = 14
	ipv6HeaderLen     = 40
	tcpHeaderLen      = 20 // without options
	udpHeaderLen      = 8
	icmpv6HeaderLen   = 4
	etherTypeIPv6     = 0x86DD
	icmpv6EchoRequest = 128
	icmpv6EchoReply   = 129
)
