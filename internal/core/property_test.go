package core

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// genWorkload builds a random but time-ordered record stream from a
// seed: several sources with random burst/gap structure, some gaps
// exceeding the session timeout.
func genWorkload(seed int64, n int) []firewall.Record {
	rng := rand.New(rand.NewSource(seed))
	ts := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	type state struct {
		addr netip.Addr
		next int
	}
	srcs := make([]state, 5+rng.Intn(10))
	for i := range srcs {
		srcs[i].addr = netaddr6.WithIID(
			netaddr6.NthSubprefix(netaddr6.MustPrefix("2001:db8::/32"), 64, uint64(rng.Intn(64))).Addr(),
			uint64(rng.Intn(8)+1))
	}
	out := make([]firewall.Record, 0, n)
	for len(out) < n {
		s := &srcs[rng.Intn(len(srcs))]
		dst := netaddr6.WithIID(netaddr6.MustPrefix("2001:db8:ff::/64").Addr(), uint64(s.next%500+1))
		s.next++
		out = append(out, firewall.Record{
			Time: ts, Src: s.addr, Dst: dst,
			Proto: layers.ProtoTCP, DstPort: uint16(22 + rng.Intn(4)), Length: 60,
		})
		gap := time.Duration(rng.Intn(120)) * time.Second
		if rng.Intn(40) == 0 {
			gap = time.Duration(61+rng.Intn(120)) * time.Minute
		}
		ts = ts.Add(gap)
	}
	return out
}

func runDetector(t *testing.T, recs []firewall.Record, advanceEvery int) *Detector {
	t.Helper()
	d := NewDetector(DefaultConfig())
	for i, r := range recs {
		if err := d.Process(r); err != nil {
			t.Fatal(err)
		}
		if advanceEvery > 0 && i%advanceEvery == 0 {
			d.Advance(r.Time)
		}
	}
	d.Finish()
	return d
}

// Property: every emitted scan satisfies the definition — destination
// count at least MinDsts, no internal gap is checkable from outside,
// but start/end are consistent and packets ≥ dsts-distinct lower
// bounds.
func TestPropertyScanWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		recs := genWorkload(seed, 2000)
		d := runDetector(t, recs, 0)
		for _, lvl := range netaddr6.Levels() {
			for _, s := range d.Scans(lvl) {
				if s.Dsts < d.Config().MinDsts {
					return false
				}
				if s.Packets < uint64(s.Dsts) {
					return false
				}
				if s.End.Before(s.Start) {
					return false
				}
				var portSum uint64
				for _, p := range s.Ports {
					portSum += p.Packets
				}
				if portSum != s.Packets {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: scans of one source at one level are time-disjoint and
// separated by more than the timeout (sessions by construction).
func TestPropertyScansDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		recs := genWorkload(seed, 2000)
		d := runDetector(t, recs, 0)
		for _, lvl := range netaddr6.Levels() {
			last := map[netip.Prefix]time.Time{}
			for _, s := range d.Scans(lvl) {
				if prev, ok := last[s.Source]; ok {
					if s.Start.Sub(prev) <= d.Config().Timeout {
						return false
					}
				}
				if end, ok := last[s.Source]; !ok || s.End.After(end) {
					last[s.Source] = s.End
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: attributed scan packets grow monotonically with coarser
// aggregation — any /128-qualifying session lies within a /64 session
// with at least as many destinations, and so on (Table 1's packet
// column).
func TestPropertyAggregationMonotone(t *testing.T) {
	f := func(seed int64) bool {
		recs := genWorkload(seed, 3000)
		d := runDetector(t, recs, 0)
		p128 := d.TotalsFor(netaddr6.Agg128).Packets
		p64 := d.TotalsFor(netaddr6.Agg64).Packets
		p48 := d.TotalsFor(netaddr6.Agg48).Packets
		return p128 <= p64 && p64 <= p48
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: periodic Advance (the bounded-memory streaming mode) never
// changes the detected scans relative to a pure batch run.
func TestPropertyAdvanceInvariant(t *testing.T) {
	f := func(seed int64, everyRaw uint8) bool {
		recs := genWorkload(seed, 2000)
		every := int(everyRaw)%200 + 1
		batch := runDetector(t, recs, 0)
		stream := runDetector(t, recs, every)
		for _, lvl := range netaddr6.Levels() {
			a, b := batch.Scans(lvl), stream.Scans(lvl)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i].Source != b[i].Source || a[i].Packets != b[i].Packets ||
					a[i].Dsts != b[i].Dsts || !a[i].Start.Equal(b[i].Start) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the detector is a pure function of its input stream.
func TestPropertyDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		recs := genWorkload(seed, 1500)
		a := runDetector(t, recs, 0)
		b := runDetector(t, recs, 0)
		for _, lvl := range netaddr6.Levels() {
			sa, sb := a.Scans(lvl), b.Scans(lvl)
			if len(sa) != len(sb) {
				return false
			}
			for i := range sa {
				if sa[i].Source != sb[i].Source || sa[i].Packets != sb[i].Packets {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
