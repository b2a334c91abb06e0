package ids

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// idsParityRecords synthesizes a workload exercising every sharding
// edge: sources spread across many /32s (so shards balance), several
// /64s per /48 and /128s per /64 (so spread-source activity escalates
// to coarser levels while fine levels stay below threshold — the
// AS #9/#18 patterns), session gaps above the timeout (so candidates
// close and reopen), and one heavy /128 scanner (so the most specific
// level alerts too and exercises suppression of its aggregates).
func idsParityRecords(n int) []firewall.Record {
	rng := rand.New(rand.NewSource(23))
	base := netaddr6.MustPrefix("2001:d00::/24")
	dsts := netaddr6.MustPrefix("2001:db8:f000::/44")
	heavy := netaddr6.MustAddr("2001:d42:1:1::bad")
	burst64 := netaddr6.MustPrefix("2001:d77:7:7::/64")
	ts := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		src := heavy
		switch {
		case i < 8_000 && i%37 == 5:
			// A spread-/64 actor that goes quiet early, so timeout
			// eviction (Tick) emits its escalated alert mid-stream.
			src = netaddr6.WithIID(burst64.Addr(), uint64(1+i%23))
		case i%11 != 0:
			p32 := netaddr6.NthSubprefix(base, 32, uint64(i%13))
			p48 := netaddr6.NthSubprefix(p32, 48, uint64(i%7))
			p64 := netaddr6.NthSubprefix(p48, 64, uint64(i%5))
			src = netaddr6.WithIID(p64.Addr(), uint64(1+i%9))
		}
		recs = append(recs, firewall.Record{
			Time:    ts,
			Src:     src,
			Dst:     netaddr6.RandomAddrIn(dsts, rng),
			Proto:   layers.ProtoTCP,
			SrcPort: uint16(40000 + i%1000),
			DstPort: uint16(1 + i%512),
			Length:  uint16(60 + i%4),
		})
		step := 50 * time.Millisecond
		if i%15000 == 14999 {
			// Periodic lull above the timeout splits candidates.
			step = 2 * time.Hour
		}
		ts = ts.Add(step)
	}
	return recs
}

func idsParityConfig() Config {
	return Config{
		MinDsts: 20,
		Timeout: time.Hour,
		Levels:  []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48, netaddr6.Agg32},
	}
}

// canonicalAlerts renders an alert list including every field so two
// lists compare byte for byte.
func canonicalAlerts(alerts []Alert) string {
	var b strings.Builder
	for _, a := range alerts {
		fmt.Fprintf(&b, "%v %v est=%d pk=%d %d %d esc=%v\n",
			a.Prefix, a.Level, a.EstimatedDsts, a.Packets,
			a.First.UnixNano(), a.Last.UnixNano(), a.Escalated)
	}
	return b.String()
}

// TestShardedIDSParity feeds the identical record stream to a
// one-shard Engine record by record and to Engines at several shard
// counts in batches, with identical Tick cadence and a mid-stream
// Drain, and requires byte-identical alert output — including the
// coarser-escalation (spread-source) alerts.
func TestShardedIDSParity(t *testing.T) {
	recs := idsParityRecords(50_000)
	cfg := idsParityConfig()

	ref := New(cfg)
	var wantMid string
	for j, r := range recs {
		ref.Process(r)
		if j%10_000 == 9_999 {
			ref.Tick(r.Time)
		}
		if j == 30_000 {
			wantMid = canonicalAlerts(ref.Drain())
		}
	}
	want := canonicalAlerts(ref.Flush())
	if want == "" || wantMid == "" {
		t.Fatalf("reference produced no alerts (final %d bytes, mid %d bytes)", len(want), len(wantMid))
	}
	if !strings.Contains(wantMid+want, "esc=true") {
		t.Fatal("workload produced no escalated (spread-source) alert")
	}
	if !strings.Contains(want, "/128") {
		t.Fatal("workload produced no most-specific alert")
	}

	for _, shards := range []int{1, 2, 8} {
		se := NewSharded(cfg, shards)
		var gotMid string
		// Mixed feeding: odd batch sizes plus single-record batches,
		// with Ticks and the mid-stream Drain at the reference points.
		// Batches never cross a tick boundary — Tick's horizon is the
		// latest dispatched record, so a batch overshooting the
		// reference's tick point would advance eviction early.
		for j := 0; j < len(recs); {
			if j%3 == 0 {
				end := min(j+257, len(recs), (j/10_000+1)*10_000)
				se.ProcessBatch(recs[j:end])
				for k := j; k < end; k++ {
					if err := checkpoints(k, se, &gotMid); err != nil {
						t.Fatal(err)
					}
				}
				j = end
			} else {
				se.ProcessBatch(recs[j : j+1])
				if err := checkpoints(j, se, &gotMid); err != nil {
					t.Fatal(err)
				}
				j++
			}
		}
		got := canonicalAlerts(se.Flush())
		if gotMid != wantMid {
			t.Errorf("shards=%d: mid-stream Drain differs from unsharded\n got:\n%s\nwant:\n%s", shards, gotMid, wantMid)
		}
		if got != want {
			t.Errorf("shards=%d: final alerts differ from unsharded\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// checkpoints applies the reference run's Tick/Drain schedule to the
// sharded engine as record index j is passed.
func checkpoints(j int, se *Engine, mid *string) error {
	if j%10_000 == 9_999 {
		se.Tick(time.Time{}) // horizon comes from lastSeen, as in the reference
	}
	if j == 30_000 {
		*mid = canonicalAlerts(se.Drain())
	}
	return nil
}

// TestShardedIDSSingleShardClamp sanity-checks the n<1 clamp and that
// an empty stream yields no alerts.
func TestShardedIDSSingleShardClamp(t *testing.T) {
	se := NewSharded(idsParityConfig(), 0)
	if se.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", se.NumShards())
	}
	if alerts := se.Flush(); len(alerts) != 0 {
		t.Fatalf("empty stream produced alerts: %v", alerts)
	}
}

// TestShardedIDSAccessors exercises the synchronized diagnostics while
// workers are live.
func TestShardedIDSAccessors(t *testing.T) {
	se := NewSharded(idsParityConfig(), 4)
	recs := idsParityRecords(5_000)
	se.ProcessBatch(recs)
	if got := se.Candidates(netaddr6.Agg128); got == 0 {
		t.Error("no /128 candidates while stream active")
	}
	if se.MemoryBytes() == 0 {
		t.Error("no sketch memory with multi-dst candidates active")
	}
	if n := se.DroppedCandidates(); n != 0 {
		t.Errorf("dropped = %d, want 0 (bound not configured)", n)
	}
	if len(se.Flush()) == 0 {
		t.Error("no alerts from workload")
	}
}
