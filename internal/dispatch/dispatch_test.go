package dispatch

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

var testLevel = netaddr6.Agg48

// testRecords synthesizes records spread over many /48s so every shard
// count partitions non-trivially. Length carries the caller-chosen
// batch tag (see the aliasing test), SrcPort a per-record sequence.
func testRecords(n int, tag uint16) []firewall.Record {
	rng := rand.New(rand.NewSource(int64(tag)*7919 + 1))
	base := netaddr6.MustPrefix("2001:db8::/36")
	ts := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		src := netaddr6.RandomSubprefix(base, 64, rng).Addr()
		recs = append(recs, firewall.Record{
			Time:    ts.Add(time.Duration(i) * time.Millisecond),
			Src:     src,
			Dst:     netaddr6.MustAddr("2001:db8:f::1"),
			Proto:   layers.ProtoTCP,
			SrcPort: uint16(i),
			DstPort: 22,
			Length:  tag,
		})
	}
	return recs
}

// TestDispatcherDeliveryParity verifies, at several shard counts, that
// every record is delivered exactly once, to the shard Partition
// routes it to, in dispatch order within the shard — the invariants
// the byte-identical merges of both sharded consumers rest on.
func TestDispatcherDeliveryParity(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got := make([][]firewall.Record, shards)
			d := New(Config{Shards: shards, Level: testLevel},
				func(shard int, recs []firewall.Record, mark time.Time) error {
					// Copy: the slice is recycled after return.
					got[shard] = append(got[shard], recs...)
					return nil
				})
			recs := testRecords(5000, 1)
			// Mixed feeding: batches of odd sizes plus single records.
			for i := 0; i < len(recs); {
				end := i + 1
				if i%3 == 0 {
					end = min(i+257, len(recs))
				}
				if err := d.ProcessBatch(recs[i:end]); err != nil {
					t.Fatal(err)
				}
				i = end
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			total := 0
			for shard, part := range got {
				total += len(part)
				for _, r := range part {
					if want := Partition(r.Src, testLevel, shards); want != shard {
						t.Fatalf("record %d on shard %d, Partition says %d", r.SrcPort, shard, want)
					}
				}
			}
			if total != len(recs) {
				t.Fatalf("delivered %d records, want %d", total, len(recs))
			}
			// Within a shard, records must keep dispatch order (SrcPort
			// ascends modulo uint16 wrap; 5000 < 65536 so no wrap).
			for shard, part := range got {
				for i := 1; i < len(part); i++ {
					if part[i].SrcPort < part[i-1].SrcPort {
						t.Fatalf("shard %d: record order broken at %d", shard, i)
					}
				}
			}
		})
	}
}

// TestDispatcherPoolAliasingSafety is the pool-aliasing safety test:
// batch buffers are recycled the moment a worker returns, so (a) a
// buffer must never be refilled while a worker still reads it, and
// (b) consumers must treat batches as valid only during the call.
// Slow workers re-verify their batch's integrity after yielding while
// the dispatcher races ahead refilling pooled buffers; any recycled-
// in-flight buffer shows up as a torn batch (mixed tags or mutated
// contents). Run under -race for the full effect.
func TestDispatcherPoolAliasingSafety(t *testing.T) {
	const shards = 4
	var torn atomic.Int32
	d := New(Config{Shards: shards, Level: testLevel},
		func(shard int, recs []firewall.Record, mark time.Time) error {
			if len(recs) == 0 {
				return nil
			}
			tag := recs[0].Length
			sum := uint64(0)
			for _, r := range recs {
				if r.Length != tag {
					torn.Add(1)
				}
				sum += uint64(r.SrcPort)
			}
			runtime.Gosched() // widen the in-flight window
			again := uint64(0)
			for _, r := range recs {
				if r.Length != tag {
					torn.Add(1)
				}
				again += uint64(r.SrcPort)
			}
			if sum != again {
				torn.Add(1)
			}
			return nil
		})
	for tag := uint16(2); tag < 40; tag++ {
		if err := d.ProcessBatch(testRecords(700, tag)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn-batch observations: pooled buffer recycled while in flight", n)
	}
}

// TestDispatcherErrorPath verifies the parameterized error path: the
// first worker error surfaces at a later call, Close re-reports it on
// every call, queued work drains, and no worker goroutine leaks.
func TestDispatcherErrorPath(t *testing.T) {
	boom := errors.New("boom")
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		d := New(Config{Shards: 4, Level: testLevel},
			func(shard int, recs []firewall.Record, mark time.Time) error {
				for _, r := range recs {
					if r.DstPort == 666 {
						return boom
					}
				}
				return nil
			})
		recs := testRecords(100, 1)
		recs[50].DstPort = 666
		if err := d.ProcessBatch(recs); err != nil {
			t.Fatalf("first ProcessBatch should defer the error, got %v", err)
		}
		// Poll until the worker has recorded it.
		for j := 0; d.ProcessBatch(nil) == nil; j++ {
			if j > 10_000 {
				t.Fatal("worker never surfaced the error")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := d.Close(); !errors.Is(err, boom) {
			t.Fatalf("Close = %v, want %v", err, boom)
		}
		if err := d.Close(); !errors.Is(err, boom) {
			t.Fatalf("repeat Close = %v, want %v", err, boom)
		}
		if err := d.ProcessBatch(nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("ProcessBatch after Close = %v, want ErrClosed", err)
		}
	}
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Fatalf("goroutines grew %d → %d: failed Close leaks workers", before, after)
	}
}

// TestDispatcherMarkOrdering verifies Mark reaches every shard —
// including shards that saw no records — ordered with the stream:
// records dispatched before it never arrive after it.
func TestDispatcherMarkOrdering(t *testing.T) {
	const shards = 4
	type event struct {
		recs int
		mark time.Time
	}
	events := make([][]event, shards)
	d := New(Config{Shards: shards, Level: testLevel},
		func(shard int, recs []firewall.Record, mark time.Time) error {
			events[shard] = append(events[shard], event{recs: len(recs), mark: mark})
			return nil
		})
	// A handful of records (fewer shards covered than exist is fine),
	// one at a time, then a Mark.
	recs := testRecords(10, 1)
	for i := range recs {
		if err := d.ProcessBatch(recs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	horizon := time.Date(2021, 4, 2, 0, 0, 0, 0, time.UTC)
	if err := d.Mark(horizon); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	marked := 0
	for shard, evs := range events {
		sawMark := false
		for i, ev := range evs {
			if !ev.mark.IsZero() {
				sawMark = true
				marked++
				if !ev.mark.Equal(horizon) {
					t.Fatalf("shard %d mark %v, want %v", shard, ev.mark, horizon)
				}
				// Records dispatched before the Mark must not arrive after it.
				for _, later := range evs[i+1:] {
					if later.recs > 0 {
						t.Fatalf("shard %d received records after the mark", shard)
					}
				}
			}
		}
		if !sawMark {
			t.Fatalf("shard %d missed the mark broadcast", shard)
		}
	}
	if marked != shards {
		t.Fatalf("mark reached %d shards, want %d", marked, shards)
	}
}

// TestDispatcherBarrier verifies Barrier establishes a happens-before
// edge: worker-written state is readable from the dispatching
// goroutine after it returns.
func TestDispatcherBarrier(t *testing.T) {
	const shards = 4
	counts := make([]int, shards) // worker-owned between barriers
	d := New(Config{Shards: shards, Level: testLevel},
		func(shard int, recs []firewall.Record, mark time.Time) error {
			counts[shard] += len(recs)
			return nil
		})
	recs := testRecords(3000, 1)
	for i := 0; i < len(recs); i += 32 {
		if err := d.ProcessBatch(recs[i:min(i+32, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(recs) {
		t.Fatalf("after Barrier %d records visible, want %d (queued batches must drain first)", total, len(recs))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Barrier(); err != ErrClosed {
		t.Fatalf("Barrier after Close = %v, want ErrClosed", err)
	}
}

// TestDispatcherSingleShardTransfer verifies the single-shard path
// hands each ProcessBatch run through whole rather than re-chunking,
// including the short tail.
func TestDispatcherSingleShardTransfer(t *testing.T) {
	var sizes []int
	d := New(Config{Shards: 1, Level: testLevel},
		func(shard int, recs []firewall.Record, mark time.Time) error {
			sizes = append(sizes, len(recs))
			return nil
		})
	recs := testRecords(200, 1)
	for i := 0; i < len(recs); i += 64 {
		if err := d.ProcessBatch(recs[i:min(i+64, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	want := []int{64, 64, 64, 8}
	if len(sizes) != len(want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", sizes, want)
		}
	}
}

// TestBatchArena sanity-checks the pooled buffer helpers.
func TestBatchArena(t *testing.T) {
	b := GetBatch(100)
	if len(*b) != 0 || cap(*b) < 100 {
		t.Fatalf("GetBatch: len %d cap %d", len(*b), cap(*b))
	}
	*b = append(*b, firewall.Record{SrcPort: 1})
	PutBatch(b)
	b2 := GetBatch(10)
	if len(*b2) != 0 {
		t.Fatal("recycled buffer not emptied")
	}
	PutBatch(b2)
	PutBatch(nil) // must not panic
}
