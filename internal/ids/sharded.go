package ids

import (
	"time"

	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

// ShardedEngine runs the dynamic-aggregation IDS across N worker
// shards in parallel, mirroring core.ShardedDetector. Records are
// partitioned by their source aggregated to the *coarsest* configured
// level, so every candidate at every level — finer prefixes nest
// inside the coarsest — lives in exactly one shard, and the
// suppression/escalation logic (which only ever compares nested
// prefixes) sees the same candidates it would in a single Engine.
// Combined with the engines' deterministic alert ordering, the merged
// output is byte-identical to a single Engine's at any shard count
// (see TestShardedIDSParity) — with one caveat: each shard applies
// Config.MaxCandidates to its own tables, so under cap pressure a
// sharded engine admits candidates (and so may emit alerts) a single
// engine would have dropped.
//
// Each shard owns a private Engine; partitioning, the worker
// goroutines and their pooled batch buffers are the shared
// dispatch.Dispatcher's (IDS workers cannot fail, so the dispatcher's
// error path stays unused). Tick forwards the eviction horizon to
// every shard, carrying the globally latest record time so per-shard
// eviction decisions match the single-engine ones exactly. Flush
// drains the workers and merges alerts deterministically; the engine
// is not reusable afterwards.
type ShardedEngine struct {
	cfg    Config
	shards []*Engine
	disp   *dispatch.Dispatcher

	// lastSeen is the latest record timestamp handed in; Tick forwards
	// max(now, lastSeen) so a shard that saw only early records still
	// evicts against the global clock.
	lastSeen time.Time
	flushed  bool
}

// NewSharded returns an IDS engine running the configuration's
// aggregation levels across n parallel shards. n < 1 is treated as 1;
// a single shard still processes on one worker goroutine but is
// byte-identical (and close in cost) to a plain Engine.
func NewSharded(cfg Config, n int) *ShardedEngine {
	if n < 1 {
		n = 1
	}
	// Normalize the config once so every shard agrees (New applies the
	// same defaults).
	probe := New(cfg)
	cfg = probe.Config()

	se := &ShardedEngine{cfg: cfg, shards: make([]*Engine, n)}
	for i := range se.shards {
		if i == 0 {
			se.shards[i] = probe
		} else {
			se.shards[i] = New(cfg)
		}
	}
	se.disp = dispatch.New(dispatch.Config{
		Shards: n,
		Level:  dispatch.CoarsestLevel(cfg.Levels),
	}, func(shard int, recs []firewall.Record, mark time.Time) error {
		e := se.shards[shard]
		if !mark.IsZero() {
			e.Tick(mark)
		}
		e.ProcessBatch(recs)
		return nil
	})
	return se
}

// Config returns the (normalized) engine configuration.
func (se *ShardedEngine) Config() Config { return se.cfg }

// NumShards returns the worker count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// QueueDepth reports the dispatcher's buffered work-unit backlog,
// summed over shards. Safe from any goroutine (see
// dispatch.Dispatcher.QueueDepth); the metrics registry exports it as
// a gauge.
func (se *ShardedEngine) QueueDepth() int { return se.disp.QueueDepth() }

// ProcessBatch partitions a run of records across the shards and
// dispatches it. The slice is not retained, so callers may reuse the
// backing array between calls.
func (se *ShardedEngine) ProcessBatch(recs []firewall.Record) {
	if se.flushed {
		panic("ids: ShardedEngine used after Flush")
	}
	for i := range recs {
		if recs[i].Time.After(se.lastSeen) {
			se.lastSeen = recs[i].Time
		}
	}
	se.disp.ProcessBatch(recs)
}

// Tick advances time on every shard, evicting idle candidates exactly
// as a single Engine would: the forwarded horizon is the later of now
// and the latest dispatched record time, so shards whose own records
// lag the global clock still close the same candidates. The horizon
// travels ordered with the records dispatched before it, so eviction
// sees them.
func (se *ShardedEngine) Tick(now time.Time) {
	if se.flushed {
		panic("ids: ShardedEngine used after Flush")
	}
	if se.lastSeen.After(now) {
		now = se.lastSeen
	}
	se.disp.Mark(now)
}

// Drain returns and clears the alerts accumulated by past Ticks across
// all shards, merged into the same deterministic order a single
// Engine's Drain produces. It synchronizes with the workers, so it is
// safe (though not free) to call from the dispatching goroutine at any
// point between batches.
func (se *ShardedEngine) Drain() []Alert {
	se.sync()
	var out []Alert
	for _, e := range se.shards {
		out = append(out, e.Drain()...)
	}
	sortAlerts(out)
	return out
}

// Flush stops the workers, evicts every candidate, and returns all
// pending alerts merged deterministically.
// The engine is not reusable afterwards (Drain and the accessors
// remain valid).
func (se *ShardedEngine) Flush() []Alert {
	if !se.flushed {
		se.disp.Close()
		se.flushed = true
	}
	var out []Alert
	for _, e := range se.shards {
		// Per-shard Flush sweeps everything; ordering is restored by
		// the merged sort below.
		out = append(out, e.Flush()...)
	}
	sortAlerts(out)
	return out
}

// Candidates returns the current working-set size at a level across
// all shards.
func (se *ShardedEngine) Candidates(l netaddr6.AggLevel) int {
	se.sync()
	total := 0
	for _, e := range se.shards {
		total += e.Candidates(l)
	}
	return total
}

// MemoryBytes estimates sketch memory across all shards and levels.
func (se *ShardedEngine) MemoryBytes() int {
	se.sync()
	total := 0
	for _, e := range se.shards {
		total += e.MemoryBytes()
	}
	return total
}

// DroppedCandidates reports how many candidates were rejected by the
// per-level MaxCandidates bound, summed over shards. Note each shard
// applies the bound to its own tables, so a sharded engine may admit
// up to n times more candidates than a single engine with the same
// configuration.
//
// The per-shard counters are atomic, so — unlike Candidates or
// MemoryBytes — this is safe from any goroutine without a dispatcher
// barrier; a concurrent read may lag batches still in flight.
func (se *ShardedEngine) DroppedCandidates() uint64 {
	var total uint64
	for _, e := range se.shards {
		total += e.DroppedCandidates()
	}
	return total
}

// DroppedPerShard returns each shard's MaxCandidates drop count,
// indexed by shard. Safe from any goroutine (see DroppedCandidates);
// the metrics registry exports one labeled series per entry.
func (se *ShardedEngine) DroppedPerShard() []uint64 {
	out := make([]uint64, len(se.shards))
	for i, e := range se.shards {
		out[i] = e.DroppedCandidates()
	}
	return out
}

// sync makes shard state safe to read from the dispatching goroutine:
// a dispatcher barrier while the workers run, a no-op once Flush has
// joined them.
func (se *ShardedEngine) sync() {
	if !se.flushed {
		se.disp.Barrier()
	}
}
