package ids

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"v6scan/internal/checkpoint"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

// walkMemoryBytes is the oracle for Engine.MemoryBytes: every live
// candidate's sketch, measured by walking every level's table of every
// shard.
func walkMemoryBytes(e *Engine) int {
	e.sync()
	total := 0
	for _, s := range e.g.Shards() {
		for _, lv := range s.levels {
			lv.tab.Range(func(_ netaddr6.U128, h uint32) bool {
				if c := lv.tab.At(h); c.sketch != nil {
					total += c.sketch.MemoryBytes()
				}
				return true
			})
		}
	}
	return total
}

// checkMemory requires e's running sketch-memory total to equal the
// walk, and every candidate's kept bytes to equal its sketch's.
func checkMemory(t *testing.T, e *Engine, what string) {
	t.Helper()
	if got, want := e.MemoryBytes(), walkMemoryBytes(e); got != want {
		t.Fatalf("%s: %d shards: MemoryBytes = %d, walk %d", what, e.NumShards(), got, want)
	}
	for _, s := range e.g.Shards() {
		for _, lv := range s.levels {
			lv.tab.Range(func(k netaddr6.U128, h uint32) bool {
				c := lv.tab.At(h)
				want := 0
				if c.sketch != nil {
					want = c.sketch.MemoryBytes()
				}
				if int(c.bytes) != want {
					t.Fatalf("%s: %v/%d candidate keeps %d sketch bytes, sketch holds %d", what, k.ToAddr(), lv.agg, c.bytes, want)
				}
				return true
			})
		}
	}
}

// TestCandidateOneCacheLine: the kept register count and sketch bytes
// live in what was the candidate's padding, and with first activity an
// int64 on the checkpoint time axis instead of a time.Time, the up
// hint fits in the bytes that freed: 56 bytes, under a cache line.
func TestCandidateOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(candidate{}); n != 56 {
		t.Fatalf("candidate is %d bytes, want 56", n)
	}
}

// memoryRecords is a stream whose candidates cover every sketch state
// at precision 6 (64 registers, sparse up to 8, four inline): single
// destination (no sketch), sparse inline, sparse on the heap, and
// dense, at /128 and coarser levels.
func memoryRecords(rng *rand.Rand, net string, from time.Time) [][]firewall.Record {
	var out [][]firewall.Record
	ts := from
	for i, dsts := range []int{1, 1, 3, 4, 6, 8, 9, 30, 2, 5} {
		src := netaddr6.WithIID(netaddr6.MustAddr(net), uint64(i+1))
		var run []firewall.Record
		for j := 0; j < dsts; j++ {
			dst := netaddr6.RandomAddrIn(netaddr6.MustPrefix("2001:db8:f::/48"), rng)
			run = append(run, rec(ts, src, dst))
			ts = ts.Add(time.Second)
		}
		out = append(out, run)
	}
	return out
}

// TestMemoryTotalEqualsWalk follows the running total through the
// paths that change it — attaching a new and a pooled sketch, sparse
// growth, densifying, eviction, restore at several shard counts, growth
// of a restored sketch out of its decoder backing, and the final
// ExpireAll sweep — comparing it with the walk after each.
func TestMemoryTotalEqualsWalk(t *testing.T) {
	cfg := Config{MinDsts: 1000, Timeout: time.Minute, SketchPrecision: 6}
	rng := rand.New(rand.NewSource(7))
	for _, shards := range []int{1, 3, 8} {
		e := NewSharded(cfg, shards)
		ts := t0
		feedRuns := func(runs [][]firewall.Record) {
			for _, run := range runs {
				for _, r := range run {
					e.Process(r)
					ts = r.Time
				}
				checkMemory(t, e, "ingest")
			}
		}
		feedRuns(memoryRecords(rng, "2001:db8:1::", ts))
		feedRuns(memoryRecords(rng, "2001:1db8:2::", ts.Add(time.Second)))
		if e.MemoryBytes() == 0 {
			t.Fatal("no sketch memory after ingest")
		}
		// Evict everything into the pools, then take pooled sketches
		// (sparse ones keep their heap list) for new candidates.
		ts = ts.Add(time.Hour)
		if err := e.Tick(ts); err != nil {
			t.Fatal(err)
		}
		checkMemory(t, e, "evicted")
		if got := e.MemoryBytes(); got != 0 {
			t.Fatalf("%d shards: %d sketch bytes after evicting every candidate", shards, got)
		}
		feedRuns(memoryRecords(rng, "2001:db8:3::", ts))

		var snap bytes.Buffer
		if err := e.Snapshot(&snap, ts.Add(time.Nanosecond)); err != nil {
			t.Fatal(err)
		}
		cr, err := checkpoint.NewReader(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		e.Flush()
		if e, err = RestoreEngine(cr, shards); err != nil {
			t.Fatal(err)
		}
		checkMemory(t, e, "restored")
		if e.MemoryBytes() == 0 {
			t.Fatal("no sketch memory after restore")
		}
		// Every restored candidate gains destinations: lists cut from
		// the decoder's backing array move out, and sparse ones densify.
		for _, run := range memoryRecords(rng, "2001:db8:3::", ts.Add(time.Second)) {
			for _, r := range run {
				for j := 0; j < 9; j++ {
					r.Dst = netaddr6.RandomAddrIn(netaddr6.MustPrefix("2001:db8:f::/48"), rng)
					e.Process(r)
				}
			}
			checkMemory(t, e, "restored ingest")
		}
		e.Flush()
		checkMemory(t, e, "flushed")
		if got := e.MemoryBytes(); got != 0 {
			t.Fatalf("%d shards: %d sketch bytes after Flush", shards, got)
		}
	}
}

// TestMemoryTotalV1Fixture: a version 1 checkpoint holds only dense
// sketches, and its restore turns those below the cutoff sparse; the
// restored total equals the walk at one and at three shards.
func TestMemoryTotalV1Fixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "pipeline", "testdata", "ids-v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		cr, err := checkpoint.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		e, err := RestoreEngine(cr, shards)
		if err != nil {
			t.Fatal(err)
		}
		checkMemory(t, e, "v1 fixture")
		if e.MemoryBytes() == 0 {
			t.Fatal("v1 fixture restored no sketch memory")
		}
		e.Flush()
		checkMemory(t, e, "v1 fixture flushed")
	}
}
