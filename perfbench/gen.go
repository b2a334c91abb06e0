package main

import (
	"bufio"
	"math/rand/v2"
	"net/netip"
	"os"
	"slices"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
)

// traffic describes one synthetic firewall stream: background churn
// plus scanners. Timestamps are whole seconds, so the alert times the
// batch CLI prints (RFC 3339, second precision) are exact and the
// record that makes each alert due can be computed from them.
type traffic struct {
	start time.Time
	dur   time.Duration
	// bgPerSec is the background record rate per stream second. A
	// background source sends 1–3 records within ten minutes, from a
	// random /64 of one of bg48s /48s, so /128, /64 and /48 candidates
	// are created and evicted continuously.
	bgPerSec float64
	bg48s    int
	// scansPerHour single-address scanners (110–199 distinct
	// destinations each) and spreadPerHour spread-source scanners
	// (150–299 destinations, each packet from a fresh /64 of one /48:
	// the paper's AS #18 pattern, alerted as an escalated /48).
	scansPerHour  float64
	spreadPerHour float64
	// quietTail keeps scanners out of the last part of the stream, so
	// every scan's candidate is evicted by a tick before the stream
	// ends.
	quietTail time.Duration
}

// generate returns the stream in time order. The same seed gives the
// same records.
func (tr traffic) generate(seed uint64) []firewall.Record {
	rng := rand.New(rand.NewPCG(seed, 0x7636736361))
	secs := int64(tr.dur / time.Second)
	var recs []firewall.Record
	at := func(sec int64) time.Time { return tr.start.Add(time.Duration(sec) * time.Second) }
	dstIn := func(p [16]byte, i uint64) netip.Addr {
		for b := 15; b >= 8; b-- {
			p[b] = byte(i)
			i >>= 8
		}
		return netip.AddrFrom16(p)
	}
	randAddr := func(prefix [16]byte, bits int) [16]byte {
		a := prefix
		for b := bits / 8; b < 16; b++ {
			a[b] = byte(rng.Uint32())
		}
		return a
	}
	var zero [16]byte
	telescope := netip.MustParseAddr("2a00:1450::").As16()

	pool := make([][16]byte, max(tr.bg48s, 1))
	for i := range pool {
		pool[i] = randAddr(zero, 0)
		pool[i][0] = 0x20 | byte(rng.IntN(16))
	}
	nBg := int(tr.bgPerSec * float64(secs) / 2)
	for i := 0; i < nBg; i++ {
		src := randAddr(pool[rng.IntN(len(pool))], 48)
		t0 := rng.Int64N(secs)
		for k := 1 + rng.IntN(3); k > 0; k-- {
			t := min(t0+rng.Int64N(600), secs-1)
			recs = append(recs, firewall.Record{
				Time: at(t), Src: netip.AddrFrom16(src),
				Dst:   netip.AddrFrom16(randAddr(telescope, 32)),
				Proto: layers.ProtoTCP, SrcPort: uint16(rng.Uint32()), DstPort: 443, Length: 60,
			})
		}
	}
	active := secs - int64(tr.quietTail/time.Second) - 1800
	hours := float64(secs) / 3600
	scan := func(n int, gap int64, src func() [16]byte) {
		t := rng.Int64N(active)
		target := randAddr(telescope, 32)
		base := rng.Uint64()
		port := uint16(rng.IntN(1024))
		for i := 0; i < n; i++ {
			recs = append(recs, firewall.Record{
				Time: at(t), Src: netip.AddrFrom16(src()),
				Dst:   dstIn(target, base+uint64(i)),
				Proto: layers.ProtoTCP, SrcPort: 40000, DstPort: port, Length: 60,
			})
			t += 1 + rng.Int64N(gap)
		}
	}
	for i := int(tr.scansPerHour * hours); i > 0; i-- {
		src := randAddr(zero, 0)
		src[0] = 0x24
		scan(110+rng.IntN(90), 20, func() [16]byte { return src })
	}
	for i := int(tr.spreadPerHour * hours); i > 0; i-- {
		p48 := randAddr(zero, 0)
		p48[0] = 0x26
		scan(150+rng.IntN(150), 10, func() [16]byte { return randAddr(p48, 48) })
	}
	slices.SortStableFunc(recs, func(a, b firewall.Record) int { return a.Time.Compare(b.Time) })
	return recs
}

// writeLog writes recs as a binary firewall log.
func writeLog(path string, recs []firewall.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	w := firewall.NewWriter(bw)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
