package ids

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"v6scan/internal/dispatch"
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

// TestEngineUseAfterFlush pins the used-after-close contract at every
// shard count: after Flush, ingesting, ticking and snapshotting return
// dispatch.ErrClosed, while Flush, Drain and the accessors stay valid.
func TestEngineUseAfterFlush(t *testing.T) {
	recs := idsParityRecords(2000)
	for _, n := range []int{1, 3} {
		e := NewSharded(idsParityConfig(), n)
		if err := e.ProcessBatch(recs[:1000]); err != nil {
			t.Fatal(err)
		}
		if len(e.Flush()) == 0 {
			t.Fatalf("%d shards: no alerts from the workload", n)
		}
		if again := e.Flush(); len(again) != 0 {
			t.Errorf("%d shards: repeat Flush returned %d alerts", n, len(again))
		}
		if err := e.ProcessBatch(recs[1000:]); !errors.Is(err, dispatch.ErrClosed) {
			t.Errorf("%d shards: ProcessBatch after Flush = %v, want ErrClosed", n, err)
		}
		if err := e.Tick(recs[len(recs)-1].Time); !errors.Is(err, dispatch.ErrClosed) {
			t.Errorf("%d shards: Tick after Flush = %v, want ErrClosed", n, err)
		}
		if err := e.Snapshot(io.Discard, recs[len(recs)-1].Time); !errors.Is(err, dispatch.ErrClosed) {
			t.Errorf("%d shards: Snapshot after Flush = %v, want ErrClosed", n, err)
		}
		if len(e.Drain()) != 0 || e.Candidates(netaddr6.Agg128) != 0 {
			t.Errorf("%d shards: state left after Flush", n)
		}
	}
}

// TestTickOffCheckpointAxis pins the engine clock to the checkpoint
// time axis at every shard count: a tick at a time checkpoint.EncodeTime
// cannot round-trip is refused and leaves the snapshot bytes
// unchanged, while in-range ticks evict and alert as before.
func TestTickOffCheckpointAxis(t *testing.T) {
	src := netaddr6.MustAddr("2001:db8:bad0::1")
	for _, n := range []int{1, 3} {
		e := NewSharded(DefaultConfig(), n)
		before := snapshot(t, e, t0)
		for _, now := range []time.Time{
			time.Time{}.Add(93 * time.Second),
			time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC),
		} {
			if err := e.Tick(now); err == nil {
				t.Fatalf("%d shards: Tick(%v) on a fresh engine succeeded", n, now)
			}
		}
		if !bytes.Equal(snapshot(t, e, t0), before) {
			t.Fatalf("%d shards: a refused tick changed the snapshot", n)
		}
		last := feed(e, t0, src, 150, 0)
		if err := e.Tick(last); err != nil {
			t.Fatalf("%d shards: in-range Tick: %v", n, err)
		}
		if alerts := e.Drain(); len(alerts) != 0 {
			t.Fatalf("%d shards: alerts before the timeout: %v", n, alerts)
		}
		if err := e.Tick(last.Add(3 * time.Hour)); err != nil {
			t.Fatalf("%d shards: in-range Tick: %v", n, err)
		}
		if alerts := e.Drain(); len(alerts) != 1 {
			t.Fatalf("%d shards: alerts after the timeout: %v", n, alerts)
		}
		e.Flush()
	}
}
