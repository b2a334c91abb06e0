// ids-aggregation demonstrates the Discussion-section idea: an IDS
// that tracks several source-aggregation levels simultaneously and
// picks, per scanning entity, the most specific level that captures
// its activity — instead of committing to one fixed mask and either
// missing spread-source scans (too specific) or blocklisting innocent
// neighbours (too coarse).
//
// The example synthesizes three archetypal actors from the paper —
// a single-/128 scanner (AS #1 style), a /64-spread scanner (AS #9
// style), and a /48-spread scanner (AS #18 style) — then tees one
// record stream through a pipeline into both the offline
// multi-aggregation detector and the online IDS engine, showing which
// aggregation level each actor is caught at and what a blocklist
// entry should be.
//
// The IDS side runs the sharded engine: -shards picks the worker
// count (default 1), and the alert list is byte-identical at any
// value — partitioning by coarsest-level source prefix keeps each
// scanning entity's multi-level state on one shard.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/netip"
	"time"

	"v6scan"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

func main() {
	shards := flag.Int("shards", 1, "IDS worker shards (alerts are identical at any count)")
	flag.Parse()

	cfg := v6scan.DefaultDetectorConfig()
	cfg.Levels = []v6scan.AggLevel{v6scan.Agg128, v6scan.Agg64, v6scan.Agg48, v6scan.Agg32}

	// Synthesize the three actors into one time-ordered stream.
	rng := rand.New(rand.NewSource(42))
	ts := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	targets := netaddr6.MustPrefix("2001:db8:f::/48")
	var recs []v6scan.Record
	emit := func(src netip.Addr, n int) {
		for i := 0; i < n; i++ {
			recs = append(recs, v6scan.Record{
				Time: ts, Src: src, Dst: netaddr6.RandomAddrIn(targets, rng),
				Proto: layers.ProtoTCP, SrcPort: 40000, DstPort: 22, Length: 60,
			})
			ts = ts.Add(200 * time.Millisecond)
		}
	}
	// Actor A: one /128, 300 probes.
	emit(netaddr6.MustAddr("2001:db8:a::1"), 300)
	// Actor B: 50 random /128s inside one /64, 8 probes each.
	b64 := netaddr6.MustPrefix("2001:db8:b:1::/64")
	for i := 0; i < 50; i++ {
		emit(netaddr6.RandomAddrIn(b64, rng), 8)
	}
	// Actor C: 40 /64s inside one /48, 6 probes each.
	c48 := netaddr6.MustPrefix("2001:db8:c::/48")
	for i := 0; i < 40; i++ {
		p64 := netaddr6.NthSubprefix(c48, 64, uint64(i))
		emit(netaddr6.RandomAddrIn(p64, rng), 6)
	}

	// One pipeline, two terminal sinks: the offline detector rides a
	// Tee branch while the online dynamic-aggregation engine (sharded
	// across -shards workers) terminates the main chain — both see the
	// identical stream.
	detSink := v6scan.NewShardedSink(v6scan.NewShardedDetector(cfg, 1))
	idsSink := v6scan.NewIDSSink(v6scan.NewShardedIDS(v6scan.DefaultIDSConfig(), *shards))
	// Tick the terminal once per minute of stream time — the inline
	// deployment's timer: idle candidates are evicted (and their
	// alerts emitted) mid-stream, bounding memory; the horizon reaches
	// every shard through the dispatcher, so alerts stay identical at
	// any -shards.
	if err := v6scan.From(v6scan.NewSliceSource(recs)).
		Tee(detSink).
		AdvanceEvery(time.Minute).
		RunInto(context.Background(), idsSink); err != nil {
		log.Fatal(err)
	}

	det := detSink.Result()
	fmt.Println("per-level detections:")
	byLevel := map[v6scan.AggLevel][]v6scan.Scan{}
	for _, lvl := range cfg.Levels {
		byLevel[lvl] = det.Scans(lvl)
		for _, s := range byLevel[lvl] {
			fmt.Printf("  %-5s %-24s %4d dsts from %3d /128s\n", lvl, s.Source, s.Dsts, s.SrcAddrs)
		}
	}

	fmt.Println("\nIDS engine alerts:")
	for _, a := range idsSink.Result() {
		fmt.Printf("  %s\n", a)
	}

	// Minimal-footprint blocklist: for each detected /48-or-coarser
	// entity, prefer the most specific level that already captures the
	// bulk (≥90%) of its destinations — avoiding collateral damage.
	fmt.Println("\nrecommended blocklist entries (manual, most specific sufficient level):")
	for _, s48 := range byLevel[v6scan.Agg48] {
		best := s48.Source
		for _, lvl := range []v6scan.AggLevel{v6scan.Agg128, v6scan.Agg64} {
			for _, s := range byLevel[lvl] {
				if s48.Source.Contains(s.Source.Addr()) && float64(s.Dsts) >= 0.9*float64(s48.Dsts) {
					best = s.Source
					break
				}
			}
			if best != s48.Source {
				break
			}
		}
		fmt.Printf("  block %v\n", best)
	}
}
