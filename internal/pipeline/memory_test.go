package pipeline

import (
	"context"
	"runtime"
	"testing"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// churnSource synthesizes an adversarial-churn stream without ever
// materializing it: every record comes from a brand-new source prefix
// (unique at /48, /64 and /128 simultaneously), sends one packet, and
// goes silent — the workload the Discussion section worries about,
// where an un-advanced detector accretes one session per source per
// level until Finish. Records are generated straight into the pooled
// chunk buffer, so the source itself holds O(batch) memory.
type churnSource struct {
	n    int           // total records
	span time.Duration // stream-time span (10 days for the test)
}

func (c churnSource) record(i int) firewall.Record {
	// 24 bits of /48 index keep every source's coarsest prefix unique,
	// which both maximizes churn at every level and spreads records
	// across the shard partition.
	base := netaddr6.MustPrefix("2400::/24")
	p48 := netaddr6.NthSubprefix(base, 48, uint64(i))
	t0 := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	return firewall.Record{
		Time:    t0.Add(time.Duration(int64(c.span) / int64(c.n) * int64(i))),
		Src:     netaddr6.WithIID(p48.Addr(), 1),
		Dst:     netaddr6.MustAddr("2001:db8:f::1"),
		Proto:   layers.ProtoTCP,
		SrcPort: 40000,
		DstPort: 22,
		Length:  60,
	}
}

// EmitBatch implements Source on the pooled-buffer contract.
func (c churnSource) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	buf := dispatch.GetBatch(batchSize)
	defer dispatch.PutBatch(buf)
	for i := 0; i < c.n; {
		*buf = (*buf)[:0]
		for ; i < c.n && len(*buf) < batchSize; i++ {
			*buf = append(*buf, c.record(i))
		}
		if err := emit(*buf); err != nil {
			return err
		}
	}
	return nil
}

// liveHeap forces a collection and returns the live heap size.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runChurn streams the 10-day churn workload into a 4-shard detector,
// sampling the live-heap high-water mark every sampleEvery records via
// a Tap stage, and returns the peak growth over the pre-run heap.
func runChurn(t *testing.T, src churnSource, advanceEvery time.Duration, sampleEvery int) uint64 {
	t.Helper()
	cfg := core.Config{
		MinDsts: 100, // one-packet sources never qualify: no scan growth either way
		Timeout: time.Hour,
		Levels:  []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48},
	}
	before := liveHeap()
	var peak uint64
	seen := 0
	b := From(src).Tap(func(firewall.Record) {
		seen++
		if seen%sampleEvery == 0 {
			if h := liveHeap(); h > peak {
				peak = h
			}
		}
	})
	if advanceEvery > 0 {
		b.AdvanceEvery(advanceEvery)
	}
	if _, err := b.Detect(context.Background(), cfg, 4); err != nil {
		t.Fatal(err)
	}
	// Final sample: the baseline's working set is largest just before
	// Finish.
	if h := liveHeap(); h > peak {
		peak = h
	}
	if peak <= before {
		return 0
	}
	return peak - before
}

// TestAdvanceEveryBoundsPeakMemory is the peak-memory regression test
// of the bounded-memory ingest path: a synthetic 10-day
// adversarial-churn stream (every record a fresh source at every
// aggregation level) through the sharded detector must hold a flat
// live heap when AdvanceEvery evicts idle sessions continuously, and
// must measurably beat the unbounded baseline that only evicts at
// Finish. Guards against regressions that silently stop forwarding
// horizons (e.g. dropping dispatcher marks) or re-materialize the
// stream.
func TestAdvanceEveryBoundsPeakMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory high-water test is not -short friendly")
	}
	src := churnSource{n: 120_000, span: 10 * 24 * time.Hour}
	const sampleEvery = 10_000

	bounded := runChurn(t, src, 30*time.Minute, sampleEvery)
	baseline := runChurn(t, src, 0, sampleEvery)

	t.Logf("peak live-heap growth: bounded=%d KiB baseline=%d KiB", bounded/1024, baseline/1024)
	if baseline < 20<<20 {
		t.Fatalf("baseline grew only %d KiB; churn workload no longer stresses the un-advanced detector and the test is vacuous", baseline/1024)
	}
	// The bounded run's working set is ~one timeout+cadence of stream
	// (≈750 of 120k sources); anything within a quarter of the
	// baseline means advancement stopped evicting.
	if bounded*4 > baseline {
		t.Fatalf("AdvanceEvery run peaked at %d KiB, more than 1/4 of the unbounded baseline's %d KiB — periodic advancement is not bounding memory",
			bounded/1024, baseline/1024)
	}
}
