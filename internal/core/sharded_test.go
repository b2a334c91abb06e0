package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// parityRecords synthesizes a workload exercising every sharding edge:
// sources spread across many /48s (so shards balance), several /128s
// per /64 (so levels disagree), session gaps above the timeout (so
// sessions close and reopen), and a low-rate background population
// that never qualifies.
func parityRecords(n int) []firewall.Record {
	rng := rand.New(rand.NewSource(17))
	base := netaddr6.MustPrefix("2001:db8:a000::/36")
	dsts := netaddr6.MustPrefix("2001:db8:f000::/44")
	ts := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		p48 := netaddr6.NthSubprefix(base, 48, uint64(i%37))
		p64 := netaddr6.NthSubprefix(p48, 64, uint64(i%5))
		src := netaddr6.WithIID(p64.Addr(), uint64(1+i%9))
		recs = append(recs, firewall.Record{
			Time:    ts,
			Src:     src,
			Dst:     netaddr6.RandomAddrIn(dsts, rng),
			Proto:   layers.ProtoTCP,
			SrcPort: uint16(40000 + i%1000),
			DstPort: uint16(1 + i%512),
			Length:  uint16(60 + i%4),
		})
		step := 40 * time.Millisecond
		if i%20000 == 19999 {
			// Periodic lull above the timeout splits sessions.
			step = 2 * time.Hour
		}
		ts = ts.Add(step)
	}
	return recs
}

func parityConfig() Config {
	return Config{
		MinDsts:   10,
		Timeout:   time.Hour,
		Levels:    []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48},
		TrackDsts: true,
		WeekEpoch: time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC),
	}
}

// canonical renders a scan including every field, its lists in the
// order held, so two scan lists compare byte for byte.
func canonical(s Scan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v %v %v %v pk=%d dsts=%d srcs=%d ent=%.9f",
		s.Source, s.Level, s.Start.UnixNano(), s.End.UnixNano(),
		s.Packets, s.Dsts, s.SrcAddrs, s.LenEntropy)
	svcs := make([]string, 0, len(s.Ports))
	for _, p := range s.Ports {
		svcs = append(svcs, fmt.Sprintf("%v=%d", p.Service, p.Packets))
	}
	fmt.Fprintf(&b, " ports[%s]", strings.Join(svcs, ","))
	for _, w := range s.WeekPackets {
		fmt.Fprintf(&b, " w%d=%d", w.Week, w.Packets)
	}
	for _, a := range s.DstAddrs {
		b.WriteString(" ")
		b.WriteString(a.String())
	}
	return b.String()
}

func renderLevel(scans []Scan) string {
	var b strings.Builder
	for _, s := range scans {
		b.WriteString(canonical(s))
		b.WriteString("\n")
	}
	return b.String()
}

// TestShardedOutOfOrderError verifies per-shard time-order violations
// surface from Finish.
func TestShardedOutOfOrderError(t *testing.T) {
	sd := NewShardedDetector(parityConfig(), 4)
	src := netaddr6.MustAddr("2001:db8::1")
	dst := netaddr6.MustAddr("2001:db8:f::1")
	t0 := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	recs := []firewall.Record{
		{Time: t0.Add(time.Hour), Src: src, Dst: dst, Proto: layers.ProtoTCP, DstPort: 22, Length: 60},
		{Time: t0, Src: src, Dst: dst, Proto: layers.ProtoTCP, DstPort: 22, Length: 60},
	}
	if err := sd.ProcessBatch(recs); err != nil {
		t.Fatalf("ProcessBatch should defer errors, got %v", err)
	}
	if err := sd.Finish(); err == nil {
		t.Fatal("expected out-of-order error from Finish")
	}
}

// TestShardedFinishAfterWorkerErrorReleasesWorkers verifies the failed
// path still shuts the shards down: a worker error surfaced at Finish
// must not leave the worker goroutines parked on their channels, and
// repeated Finish/Close calls keep re-reporting the error instead of
// hanging or panicking.
func TestShardedFinishAfterWorkerErrorReleasesWorkers(t *testing.T) {
	src := netaddr6.MustAddr("2001:db8::1")
	dst := netaddr6.MustAddr("2001:db8:f::1")
	t0 := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	recs := []firewall.Record{
		{Time: t0.Add(time.Hour), Src: src, Dst: dst, Proto: layers.ProtoTCP, DstPort: 22, Length: 60},
		{Time: t0, Src: src, Dst: dst, Proto: layers.ProtoTCP, DstPort: 22, Length: 60},
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		sd := NewShardedDetector(parityConfig(), 4)
		if err := sd.ProcessBatch(recs); err != nil {
			t.Fatalf("ProcessBatch should defer errors, got %v", err)
		}
		// Wait until the worker has recorded the error (an empty
		// dispatch surfaces it), so Finish deterministically takes the
		// already-failed path rather than discovering the error at
		// wg.Wait.
		for j := 0; sd.ProcessBatch(nil) == nil; j++ {
			if j > 10_000 {
				t.Fatal("worker never surfaced the processing error")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := sd.Finish(); err == nil {
			t.Fatal("expected out-of-order error from Finish")
		}
		if err := sd.Finish(); err == nil {
			t.Fatal("repeat Finish must re-report the error")
		}
	}
	// Finish joins its workers via wg.Wait, so no settling loop is
	// needed; allow a little slack for unrelated runtime goroutines.
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Fatalf("goroutines grew %d → %d: failed Finish leaks shard workers", before, after)
	}
}

// TestShardedSingleShardMatchesPlain sanity-checks the n<1 clamp.
func TestShardedSingleShardMatchesPlain(t *testing.T) {
	sd := NewShardedDetector(parityConfig(), 0)
	if sd.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", sd.NumShards())
	}
	if err := sd.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(sd.Merged().Scans(netaddr6.Agg64)) != 0 {
		t.Fatal("empty stream produced scans")
	}
}

// TestShardedUseAfterFinish pins the used-after-close contract at every
// shard count: after Finish, dispatching, advancing and snapshotting
// return dispatch.ErrClosed, and Finish itself stays repeatable.
func TestShardedUseAfterFinish(t *testing.T) {
	recs := parityRecords(1000)
	for _, n := range []int{1, 3} {
		sd := NewShardedDetector(parityConfig(), n)
		if err := sd.ProcessBatch(recs[:500]); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := sd.Finish(); err != nil {
				t.Fatalf("%d shards: Finish = %v", n, err)
			}
		}
		if err := sd.ProcessBatch(recs[500:]); !errors.Is(err, dispatch.ErrClosed) {
			t.Errorf("%d shards: ProcessBatch after Finish = %v, want ErrClosed", n, err)
		}
		if err := sd.Advance(recs[len(recs)-1].Time); !errors.Is(err, dispatch.ErrClosed) {
			t.Errorf("%d shards: Advance after Finish = %v, want ErrClosed", n, err)
		}
		if err := sd.Snapshot(io.Discard, recs[len(recs)-1].Time); !errors.Is(err, dispatch.ErrClosed) {
			t.Errorf("%d shards: Snapshot after Finish = %v, want ErrClosed", n, err)
		}
	}
}
