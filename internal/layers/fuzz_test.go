package layers

import (
	"errors"
	"net/netip"
	"testing"

	"v6scan/internal/netaddr6"
)

// FuzzParseFrame checks the frame codec on arbitrary input. data is fed
// to ParseFrame under link: it must never panic, and a frame it accepts
// has plain (not IPv4-mapped) IPv6 addresses. The same input then picks
// a probe — src and dst from data's first 32 bytes, protocol, ports,
// payload length and framing from the other arguments — which must
// parse back to exactly what was encoded, with a checksum that
// verifies, or be refused as ErrNotIPv6 if an address is mapped.
func FuzzParseFrame(f *testing.F) {
	tcp, _ := BuildTCPSYN(testSrc, testDst, 40000, 22, BuildOptions{Link: LinkTypeEthernet})
	udp, _ := BuildUDPProbe(testSrc, testDst, 5353, 53, BuildOptions{Link: LinkTypeEthernet, PayloadLen: 4})
	echo, _ := BuildICMPv6Echo(testSrc, testDst, 7, 9, BuildOptions{Link: LinkTypeEthernet})
	eth := uint32(LinkTypeEthernet)
	for _, frame := range [][]byte{tcp, udp, echo} {
		// Truncation at, and one byte short of, every header boundary.
		for _, n := range []int{0, ethernetHeaderLen, ethernetHeaderLen + ipv6HeaderLen, len(frame)} {
			f.Add(frame[:n], eth, uint8(0), uint16(0), uint16(0), uint16(0))
			if n > 0 {
				f.Add(frame[:n-1], eth, uint8(1), uint16(0), uint16(0), uint16(0))
			}
		}
	}
	f.Add(echo[:len(echo)-2], eth, uint8(2), uint16(0), uint16(0), uint16(0)) // echo body cut short
	chain := func(n int) []byte {
		var exts [][]byte
		for i := 0; i < n; i++ {
			next := ProtoHopByHop
			if i == n-1 {
				next = ProtoUDP
			}
			exts = append(exts, padExtension(next))
		}
		return rawPacket(ProtoHopByHop, append(exts, []byte{0, 1, 0, 2, 0, 8, 0, 0})...)
	}
	raw := uint32(LinkTypeRaw)
	f.Add(chain(maxExtensionHeaders), raw, uint8(0), uint16(1), uint16(2), uint16(3))
	f.Add(chain(maxExtensionHeaders+1), raw, uint8(1), uint16(1), uint16(2), uint16(3))
	mapped := netip.MustParseAddr("::ffff:192.0.2.1").As16()
	mappedSrc, _ := BuildTCPSYN(netip.AddrFrom16(mapped), testDst, 1, 2, BuildOptions{})
	f.Add(mappedSrc, raw, uint8(0), uint16(1), uint16(2), uint16(0))
	f.Add(append(mapped[:], testDst.AsSlice()...), raw, uint8(2), uint16(0), uint16(0), uint16(0))
	f.Add(tcp, uint32(999), uint8(0), uint16(0), uint16(0), uint16(0))                            // unknown link type
	f.Add(append(tcp, make([]byte, 10)...), eth, uint8(1), uint16(80), uint16(443), uint16(1400)) // Ethernet padding
	badUDP := append([]byte(nil), udp...)
	badUDP[ethernetHeaderLen+ipv6HeaderLen+5] = 4 // UDP length below the header
	f.Add(badUDP, eth, uint8(1), uint16(0), uint16(0), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, link uint32, proto uint8, sport, dport, pay uint16) {
		if fr, err := ParseFrame(data, LinkType(link)); err == nil {
			if !netaddr6.IsIPv6(netip.AddrFrom16(fr.Src)) || !netaddr6.IsIPv6(netip.AddrFrom16(fr.Dst)) {
				t.Fatalf("accepted a non-IPv6 address: %+v", fr)
			}
		}

		var addrs [32]byte
		copy(addrs[:], data)
		src, dst := netip.AddrFrom16([16]byte(addrs[:16])), netip.AddrFrom16([16]byte(addrs[16:]))
		opt := BuildOptions{Link: LinkTypeRaw}
		if link%2 == 1 {
			opt.Link = LinkTypeEthernet
		}
		want := Frame{Src: src.As16(), Dst: dst.As16(), SrcPort: sport, DstPort: dport}
		var (
			frame []byte
			err   error
			hdr   int
		)
		switch proto % 3 {
		case 0:
			want.Proto, hdr = ProtoTCP, tcpHeaderLen
		case 1:
			want.Proto, hdr = ProtoUDP, udpHeaderLen
		default:
			want.Proto, hdr = ProtoICMPv6, icmpv6HeaderLen+4
			want.SrcPort, want.DstPort = 0, 0
		}
		opt.PayloadLen = int(pay) % (0x10000 - hdr)
		want.PayloadLen = uint16(hdr + opt.PayloadLen)
		switch want.Proto {
		case ProtoTCP:
			frame, err = BuildTCPSYN(src, dst, sport, dport, opt)
		case ProtoUDP:
			frame, err = BuildUDPProbe(src, dst, sport, dport, opt)
		default:
			frame, err = BuildICMPv6Echo(src, dst, sport, dport, opt)
		}
		if err != nil {
			t.Fatalf("build %+v: %v", want, err)
		}
		got, err := ParseFrame(frame, opt.Link)
		if !netaddr6.IsIPv6(src) || !netaddr6.IsIPv6(dst) {
			if !errors.Is(err, ErrNotIPv6) {
				t.Fatalf("mapped probe %v → %v: err = %v", src, dst, err)
			}
			return
		}
		if err != nil || got != want {
			t.Fatalf("probe parsed to %+v, %v; want %+v", got, err, want)
		}
		ip := frame[len(frame)-ipv6HeaderLen-int(want.PayloadLen):]
		if !checksumOK(ip) {
			t.Fatalf("probe %+v: checksum does not verify", want)
		}
	})
}
