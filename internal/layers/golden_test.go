package layers

import (
	"encoding/hex"
	"testing"
)

// TestProbeGolden pins the wire bytes of every probe kind, raw and
// Ethernet-framed, with and without payload: the frames mawi.WritePcapDay
// writes must not change by a byte. Each want is the Ethernet header
// (when framed), the 40-byte IPv6 header, the transport header with its
// checksum, then the zero payload.
func TestProbeGolden(t *testing.T) {
	const (
		eth = "020000000001" + "020000000002" + "86dd"
		ip  = "20010db8000100000000000000000001" + "20010db8000200000000000000000002"
	)
	tcp := func(o BuildOptions) ([]byte, error) { return BuildTCPSYN(testSrc, testDst, 40000, 22, o) }
	udp := func(o BuildOptions) ([]byte, error) { return BuildUDPProbe(testSrc, testDst, 5353, 500, o) }
	icmp := func(o BuildOptions) ([]byte, error) { return BuildICMPv6Echo(testSrc, testDst, 77, 3, o) }
	// Source port 41586 makes the UDP checksum compute to zero, which
	// goes on the wire as all-ones.
	udpZero := func(o BuildOptions) ([]byte, error) { return BuildUDPProbe(testSrc, testDst, 41586, 500, o) }

	cases := []struct {
		name  string
		build func(BuildOptions) ([]byte, error)
		pay   int
		want  string // after the link header
	}{
		{"tcp", tcp, 0, "6000000000140640" + ip + "9c400016" + "9c400016" + "00000000" + "5002faf0" + "20cd0000"},
		{"tcp+payload", tcp, 5, "6000000000190640" + ip + "9c400016" + "9c400016" + "00000000" + "5002faf0" + "20c80000" + "0000000000"},
		{"udp", udp, 0, "6000000000081140" + ip + "14e901f4" + "00088d89"},
		{"udp+payload", udp, 5, "60000000000d1140" + ip + "14e901f4" + "000d8d7f" + "0000000000"},
		{"udp zero checksum", udpZero, 0, "6000000000081140" + ip + "a27201f4" + "0008ffff"},
		{"icmpv6 echo", icmp, 0, "6000000000083a40" + ip + "800023f5" + "004d0003"},
		{"icmpv6 echo+payload", icmp, 5, "60000000000d3a40" + ip + "800023f0" + "004d0003" + "0000000000"},
	}
	for _, c := range cases {
		for _, link := range []LinkType{LinkTypeRaw, LinkTypeEthernet} {
			want := c.want
			if link == LinkTypeEthernet {
				want = eth + want
			}
			frame, err := c.build(BuildOptions{Link: link, PayloadLen: c.pay})
			if err != nil {
				t.Fatalf("%s link %d: %v", c.name, link, err)
			}
			if got := hex.EncodeToString(frame); got != want {
				t.Errorf("%s link %d:\n got %s\nwant %s", c.name, link, got, want)
			}
		}
	}
}
