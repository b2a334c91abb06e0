package dispatch

import (
	"fmt"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

// Shard is one partition of an engine's state, driven by one
// goroutine at a time: Advance expires the state idle at a horizon,
// ProcessBatch ingests records it may read only during the call.
type Shard interface {
	Advance(horizon time.Time)
	ProcessBatch(recs []firewall.Record) error
}

// Whether each engine runs a single shard inline on the caller's
// goroutine or on one worker, measured by alternating parent/change
// pairs of the perfbench workloads (2 vCPU):
//
//   - The detector runs on one worker. On cdn_filter_detect (v6scan
//     -filter, default -shards 1) moving the detector onto a worker
//     gained 29–61% records/s per pair at flat CPU: the artifact
//     filter and the detector overlap on two CPUs.
//   - The IDS runs inline. A prototype that ran it on one worker lost
//     on daemon_resume_tail (seed 1, 20 s, 4 pairs) on every metric
//     but setup: records/s 227k vs 235k (−3.2%), cpu_ns_per_record
//     2298 vs 2157 (+6.5%), peak RSS 36.9 vs 35.9 MiB. perfbench's
//     traced replay also calls ids.New inside its own workers.
const (
	DetectorInline = false
	IDSInline      = true
)

// Group runs the n shards of one engine's state behind the sharding
// invariant (see the package doc): it builds the shards, partitions
// records onto them, forwards the horizon, synchronises reads with the
// workers and stops them. The shards run on a Dispatcher's workers,
// except a single shard the engine runs inline. An inline shard must
// keep its own clock, expiring at max(horizon, its latest record): the
// Group tracks the latest record time only for workers, and Advance
// promises no such clock (the detector's keeps none). Like the
// Dispatcher, every method but QueueDepth must be called from one
// goroutine.
type Group[S Shard] struct {
	shards []S
	level  netaddr6.AggLevel
	disp   *Dispatcher // nil when the one shard runs inline
	// lastSeen is the latest record time dispatched to the workers
	// (zero inline); Advance forwards max(now, lastSeen) so a shard that
	// saw only early records still expires against the global clock.
	lastSeen time.Time
	closed   bool
}

// NewGroup builds n shards (n < 1 is 1) with newShard and partitions
// records onto them at the coarsest of levels; inline runs a single
// shard on the caller's goroutine. Close stops the workers.
func NewGroup[S Shard](n int, levels []netaddr6.AggLevel, inline bool, newShard func() S) *Group[S] {
	n = max(n, 1)
	g := &Group[S]{shards: make([]S, n), level: CoarsestLevel(levels)}
	for i := range g.shards {
		g.shards[i] = newShard()
	}
	if n > 1 || !inline {
		g.disp = New(Config{Shards: n, Level: g.level}, func(i int, recs []firewall.Record, mark time.Time) error {
			s := g.shards[i]
			if !mark.IsZero() {
				s.Advance(mark)
			}
			return s.ProcessBatch(recs)
		})
	}
	return g
}

// Shards returns the shards, indexed as ShardFor numbers them. Their
// state is safe to read only after Sync or Close.
func (g *Group[S]) Shards() []S { return g.shards }

// ShardFor returns the index of the shard that holds the state of key,
// a source aggregated at any of the group's levels: the shard
// ProcessBatch routes that source's records to. Restores use it to
// place decoded state.
func (g *Group[S]) ShardFor(key netaddr6.U128) int {
	return partitionKey(key, g.level, len(g.shards))
}

// QueueDepth reports the work units buffered for the workers, summed
// over shards; 0 inline. Safe from any goroutine (see
// Dispatcher.QueueDepth).
func (g *Group[S]) QueueDepth() int {
	if g.disp == nil {
		return 0
	}
	return g.disp.QueueDepth()
}

// ProcessBatch partitions a run of records onto the shards. The slice
// is not retained. It returns ErrClosed after Close, and otherwise a
// shard error: inline at once, from a worker at the next call.
func (g *Group[S]) ProcessBatch(recs []firewall.Record) error {
	if g.closed {
		return ErrClosed
	}
	if g.disp == nil {
		return g.shards[0].ProcessBatch(recs)
	}
	for i := range recs {
		if recs[i].Time.After(g.lastSeen) {
			g.lastSeen = recs[i].Time
		}
	}
	return g.disp.ProcessBatch(recs)
}

// Advance forwards the horizon max(now, latest record time) to every
// shard, ordered after the records dispatched before it, so every
// shard expires against the same clock and sees its records first.
// Inline, the horizon is now and the shard's own clock covers its
// records. A now off the checkpoint time axis — roughly outside
// 1678–2262, where checkpoint.EncodeTime does not round-trip — is
// refused with an error and changes nothing, so every clock an engine
// keeps survives a checkpoint cut.
func (g *Group[S]) Advance(now time.Time) error {
	if g.closed {
		return ErrClosed
	}
	if !checkpoint.DecodeTime(checkpoint.EncodeTime(now)).Equal(now) {
		return fmt.Errorf("dispatch: horizon %v is outside the checkpoint time axis", now)
	}
	if g.lastSeen.After(now) {
		now = g.lastSeen
	}
	if g.disp == nil {
		g.shards[0].Advance(now)
		return nil
	}
	return g.disp.Mark(now)
}

// Sync makes shard state safe to read from the calling goroutine: a
// barrier while workers run, nothing inline. It returns ErrClosed after
// Close (whose join already made the final state readable), and
// otherwise the first worker error.
func (g *Group[S]) Sync() error {
	if g.closed {
		return ErrClosed
	}
	if g.disp == nil {
		return nil
	}
	return g.disp.Barrier()
}

// Close stops and joins the workers. It is idempotent: every call
// returns the first worker error. After Close, ProcessBatch, Advance
// and Sync return ErrClosed and the shards are safe to read.
func (g *Group[S]) Close() error {
	g.closed = true
	if g.disp == nil {
		return nil
	}
	return g.disp.Close()
}
