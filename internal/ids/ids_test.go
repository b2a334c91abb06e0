package ids

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

var t0 = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

func rec(ts time.Time, src, dst netip.Addr) firewall.Record {
	return firewall.Record{Time: ts, Src: src, Dst: dst, Proto: layers.ProtoTCP, DstPort: 22, Length: 60}
}

// feed sends n probes from src to distinct destinations starting at
// offset off, one per second, returning the advanced timestamp.
func feed(e *Engine, ts time.Time, src netip.Addr, n, off int) time.Time {
	for i := 0; i < n; i++ {
		dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(off+i+1))
		e.Process(rec(ts, src, dst))
		ts = ts.Add(time.Second)
	}
	return ts
}

func TestSingleSourceAlertIsMostSpecific(t *testing.T) {
	e := New(DefaultConfig())
	feed(e, t0, netaddr6.MustAddr("2001:db8:bad0::1"), 200, 0)
	alerts := e.Flush()
	if len(alerts) != 1 {
		t.Fatalf("alerts: %d (%v)", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Level != netaddr6.Agg128 {
		t.Errorf("level = %v, want /128", a.Level)
	}
	if a.Prefix != netaddr6.MustPrefix("2001:db8:bad0::1/128") {
		t.Errorf("prefix = %v", a.Prefix)
	}
	if a.EstimatedDsts < 180 || a.EstimatedDsts > 220 {
		t.Errorf("estimate = %d, want ≈200", a.EstimatedDsts)
	}
	if a.Escalated {
		t.Error("single-source alert marked escalated")
	}
}

func TestSpreadSourceEscalatesTo64(t *testing.T) {
	// 50 /128s in one /64, 8 dsts each (AS #9 pattern scaled): no /128
	// qualifies, the /64 must alert.
	e := New(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	ts := t0
	net64 := netaddr6.MustPrefix("2001:db8:9:1::/64")
	for i := 0; i < 50; i++ {
		src := netaddr6.RandomAddrIn(net64, rng)
		ts = feed(e, ts, src, 8, i*8)
	}
	alerts := e.Flush()
	if len(alerts) != 1 {
		t.Fatalf("alerts: %v", alerts)
	}
	if alerts[0].Level != netaddr6.Agg64 || !alerts[0].Escalated {
		t.Errorf("alert: %+v", alerts[0])
	}
	if alerts[0].Prefix != net64 {
		t.Errorf("prefix = %v", alerts[0].Prefix)
	}
}

func TestSpreadOver48Escalates(t *testing.T) {
	// 40 /64s in one /48, 5 dsts each (AS #18 pattern scaled).
	e := New(DefaultConfig())
	ts := t0
	net48 := netaddr6.MustPrefix("2001:db8:18::/48")
	for i := 0; i < 40; i++ {
		src := netaddr6.WithIID(netaddr6.NthSubprefix(net48, 64, uint64(i)).Addr(), 1)
		ts = feed(e, ts, src, 5, i*5)
	}
	alerts := e.Flush()
	if len(alerts) != 1 || alerts[0].Level != netaddr6.Agg48 {
		t.Fatalf("alerts: %v", alerts)
	}
}

func TestCloudTenantsNotMerged(t *testing.T) {
	// Two independent heavy scanners in different /64s of one /48
	// (cloud tenants): each deserves its own /64-or-finer alert and the
	// /48 must be suppressed — no collateral blocklisting.
	e := New(DefaultConfig())
	ts := t0
	a := netaddr6.MustAddr("2001:db8:c:1::1")
	b := netaddr6.MustAddr("2001:db8:c:2::1")
	for i := 0; i < 150; i++ {
		dstA := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(i+1))
		dstB := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(5000+i))
		e.Process(rec(ts, a, dstA))
		e.Process(rec(ts, b, dstB))
		ts = ts.Add(time.Second)
	}
	alerts := e.Flush()
	if len(alerts) != 2 {
		t.Fatalf("alerts: %v", alerts)
	}
	for _, al := range alerts {
		if al.Level != netaddr6.Agg128 {
			t.Errorf("tenant alert at %v (collateral damage): %v", al.Level, al.Prefix)
		}
	}
}

func TestMixedEntityEscalation(t *testing.T) {
	// One strong /128 plus diffuse activity across its /64: the /128
	// alert fires, and the /64 fires too (escalated) because the /128
	// explains under 90% of the aggregate.
	e := New(DefaultConfig())
	ts := t0
	strong := netaddr6.MustAddr("2001:db8:a:1::1")
	ts = feed(e, ts, strong, 120, 0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		src := netaddr6.RandomAddrIn(netaddr6.MustPrefix("2001:db8:a:1::/64"), rng)
		ts = feed(e, ts, src, 4, 1000+i*4)
	}
	alerts := e.Flush()
	if len(alerts) != 2 {
		t.Fatalf("alerts: %v", alerts)
	}
	if alerts[0].Level == alerts[1].Level {
		t.Errorf("expected /128 + /64, got %v and %v", alerts[0].Level, alerts[1].Level)
	}
}

func TestTimeoutEviction(t *testing.T) {
	e := New(DefaultConfig())
	feed(e, t0, netaddr6.MustAddr("2001:db8:bad0::1"), 150, 0)
	if e.Candidates(netaddr6.Agg128) == 0 {
		t.Fatal("no candidates")
	}
	e.Tick(t0.Add(3 * time.Hour))
	if e.Candidates(netaddr6.Agg128) != 0 {
		t.Error("idle candidate not evicted")
	}
	alerts := e.Drain()
	if len(alerts) != 1 {
		t.Fatalf("alerts after tick: %v", alerts)
	}
}

func TestBelowThresholdSilent(t *testing.T) {
	e := New(DefaultConfig())
	feed(e, t0, netaddr6.MustAddr("2001:db8:0c::1"), 50, 0)
	if alerts := e.Flush(); len(alerts) != 0 {
		t.Errorf("alerts for 50 dsts: %v", alerts)
	}
}

// TestMemoryBounded pins MemoryBytes as the sketch bytes actually
// held: a candidate past the densify cutoff holds its sketch struct and
// 2^precision registers, and one that saw three destinations its
// struct alone (core.DstSketch) — where exact sets would cost ~32 B per
// destination.
func TestMemoryBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SketchPrecision = 8 // 256 register bytes per dense sketch, cutoff 32
	base := core.NewDstSketch(cfg.SketchPrecision).MemoryBytes()
	e := New(cfg)
	rng := rand.New(rand.NewSource(3))
	ts := t0
	feed := func(srcs, dsts int, net string) {
		for i := 0; i < srcs; i++ {
			src := netaddr6.WithIID(netaddr6.MustAddr(net), uint64(i+1))
			for j := 0; j < dsts; j++ {
				dst := netaddr6.RandomAddrIn(netaddr6.MustPrefix("2001:db8:f::/48"), rng)
				e.Process(rec(ts, src, dst))
			}
			ts = ts.Add(time.Second)
		}
	}
	// 1000 sources of 50 destinations: 1000 /128 candidates + 1 /64 +
	// 1 /48 + 1 /32, all dense.
	feed(1000, 50, "2001:db8:33::")
	heavy := 1003 * (base + 256)
	if got := e.MemoryBytes(); got != heavy {
		t.Errorf("heavy sources: memory = %d bytes, want 1003 dense sketches = %d", got, heavy)
	}
	// 1000 more of three destinations each in one new /64: 1000 sparse
	// /128 sketches, struct only, and a dense /64.
	feed(1000, 3, "2001:db8:33:1::")
	if got, want := e.MemoryBytes(), heavy+1000*base+base+256; got != want {
		t.Errorf("plus light sources: memory = %d bytes, want %d", got, want)
	}
}

func TestMaxCandidatesBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCandidates = 10
	e := New(cfg)
	ts := t0
	for i := 0; i < 50; i++ {
		src := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:44::"), uint64(i+1))
		e.Process(rec(ts, src, netaddr6.MustAddr("2001:db8:f::1")))
		ts = ts.Add(time.Millisecond)
	}
	if e.Candidates(netaddr6.Agg128) != 10 {
		t.Errorf("candidates = %d, want 10", e.Candidates(netaddr6.Agg128))
	}
	if e.DroppedCandidates() == 0 {
		t.Error("drop counter not incremented")
	}
}

// TestLevelOrderHoistedToNew pins the level-ordering contract: New
// normalizes the level order once (most specific first) without
// mutating the caller's slice, and sweep relies on that order — so a
// config listing levels coarsest-first must produce identical alerts.
func TestLevelOrderHoistedToNew(t *testing.T) {
	run := func(levels []netaddr6.AggLevel) []Alert {
		cfg := DefaultConfig()
		cfg.Levels = levels
		e := New(cfg)
		ts := feed(e, t0, netaddr6.MustAddr("2001:db8:bad0::1"), 200, 0)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 40; i++ {
			src := netaddr6.RandomAddrIn(netaddr6.MustPrefix("2001:db8:bad1::/64"), rng)
			ts = feed(e, ts, src, 8, 1000+i*8)
		}
		return e.Flush()
	}
	coarseFirst := []netaddr6.AggLevel{netaddr6.Agg32, netaddr6.Agg48, netaddr6.Agg64, netaddr6.Agg128}
	fineFirst := []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48, netaddr6.Agg32}

	got, want := run(coarseFirst), run(fineFirst)
	if len(got) != len(want) {
		t.Fatalf("alert counts differ by config level order: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("alert %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	// The most specific level must win regardless of config order.
	if want[0].Level != netaddr6.Agg128 && want[1].Level != netaddr6.Agg128 {
		t.Errorf("no /128 alert: %v", want)
	}
	// New must not reorder the caller's slice.
	if coarseFirst[0] != netaddr6.Agg32 || coarseFirst[3] != netaddr6.Agg128 {
		t.Errorf("New mutated the caller's Levels slice: %v", coarseFirst)
	}
	// The engine's normalized config is most specific first.
	e := New(Config{Levels: coarseFirst})
	if lv := e.Config().Levels; lv[0] != netaddr6.Agg128 || lv[3] != netaddr6.Agg32 {
		t.Errorf("normalized levels not most specific first: %v", lv)
	}
}

// TestInlineCandidateFastPath pins the lazy-sketch behavior: a
// single-destination candidate costs no sketch memory and still
// estimates exactly 1.
func TestInlineCandidateFastPath(t *testing.T) {
	e := New(DefaultConfig())
	src := netaddr6.MustAddr("2001:db8:77::1")
	dst := netaddr6.MustAddr("2001:db8:f::1")
	for i := 0; i < 10; i++ {
		e.Process(rec(t0.Add(time.Duration(i)*time.Second), src, dst))
	}
	if got := e.MemoryBytes(); got != 0 {
		t.Errorf("single-dst candidates allocated %d sketch bytes", got)
	}
	// A second distinct destination materializes sketches at every
	// level that still has headroom.
	e.Process(rec(t0.Add(time.Minute), src, netaddr6.MustAddr("2001:db8:f::2")))
	if got := e.MemoryBytes(); got == 0 {
		t.Error("multi-dst candidate has no sketch")
	}
	if alerts := e.Flush(); len(alerts) != 0 {
		t.Errorf("below-threshold candidates alerted: %v", alerts)
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{
		Prefix: netaddr6.MustPrefix("2001:db8::/64"), Level: netaddr6.Agg64,
		EstimatedDsts: 123, Packets: 456, First: t0, Last: t0.Add(time.Hour), Escalated: true,
	}
	s := a.String()
	if s == "" || a.Prefix.String() == "" {
		t.Error("empty render")
	}
	for _, want := range []string{"2001:db8::/64", "123", "456", "escalated"} {
		if !contains(s, want) {
			t.Errorf("render %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestLateRecordKeepsActivityBounds: without a sorting window a record
// can arrive after later ones. It must neither pull the alert's Last
// backwards nor make its candidate look idle before its latest
// activity is Timeout old.
func TestLateRecordKeepsActivityBounds(t *testing.T) {
	e := New(Config{MinDsts: 1, Levels: []netaddr6.AggLevel{netaddr6.Agg128}})
	src := netaddr6.MustAddr("2001:db8:bad0::1")
	latest, late := t0.Add(30*time.Minute), t0
	e.Process(rec(latest, src, netaddr6.MustAddr("2001:db8:f::1")))
	e.Process(rec(late, src, netaddr6.MustAddr("2001:db8:f::2")))
	e.Tick(latest.Add(time.Hour - time.Second)) // > Timeout after late, not after latest
	if got := e.Candidates(netaddr6.Agg128); got != 1 {
		t.Fatalf("candidate evicted %v after its latest activity: Candidates = %d", time.Hour-time.Second, got)
	}
	alerts := e.Flush()
	if len(alerts) != 1 {
		t.Fatalf("alerts: %v", alerts)
	}
	if a := alerts[0]; !a.First.Equal(late) || !a.Last.Equal(latest) {
		t.Errorf("activity bounds %v–%v, want %v–%v", a.First, a.Last, late, latest)
	}
}

// TestFlushClosesFinalInstant: a candidate last active at the final
// instant of the checkpoint time axis still closes, and alerts, at
// Flush — the drain closes every live candidate whatever its last
// activity.
func TestFlushClosesFinalInstant(t *testing.T) {
	e := New(Config{MinDsts: 2, Levels: []netaddr6.AggLevel{netaddr6.Agg128}})
	end := time.Unix(0, math.MaxInt64).UTC()
	src := netaddr6.MustAddr("2001:db8:bad0::1")
	e.Process(rec(end.Add(-time.Second), src, netaddr6.MustAddr("2001:db8:f::1")))
	e.Process(rec(end, src, netaddr6.MustAddr("2001:db8:f::2")))
	alerts := e.Flush()
	if len(alerts) != 1 || !alerts[0].Last.Equal(end) || alerts[0].Packets != 2 {
		t.Fatalf("Flush = %v, want one alert ending at %v", alerts, end)
	}
	if n := e.Candidates(netaddr6.Agg128); n != 0 {
		t.Fatalf("%d candidates left after Flush", n)
	}
}
