package ids

import (
	"time"

	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
	"v6scan/internal/u128idx"
)

// Engine is the dynamic-aggregation IDS over one or more shards of
// candidate state. New runs one shard inline on the caller's
// goroutine; NewSharded with n > 1 runs n shards in parallel,
// mirroring core.ShardedDetector. Records are partitioned by their
// source aggregated to the *coarsest* configured level, so every
// candidate at every level — finer prefixes nest inside the coarsest —
// lives in exactly one shard, and the suppression/escalation logic
// (which only ever compares nested prefixes) sees the same candidates
// at any shard count. Combined with the deterministic alert ordering,
// the merged output is byte-identical at any shard count (see
// TestShardedIDSParity) — with one caveat: each shard applies
// Config.MaxCandidates to its own tables, so under cap pressure a
// sharded engine admits candidates (and so may emit alerts) a single
// shard would have dropped.
//
// Above one shard, partitioning, the worker goroutines and their
// pooled batch buffers are the shared dispatch.Dispatcher's (IDS
// workers cannot fail, so the dispatcher's error path stays unused).
// Tick forwards the eviction horizon to every shard, carrying the
// globally latest record time so per-shard eviction decisions match
// the single-shard ones exactly; the reads synchronize with the
// workers. Flush stops the workers and merges alerts
// deterministically; a sharded engine is not reusable afterwards.
type Engine struct {
	cfg    Config
	shards []*shard
	// disp runs the shards on worker goroutines; nil when the one
	// shard runs inline.
	disp *dispatch.Dispatcher

	// lastSeen is the latest record timestamp dispatched; Tick
	// forwards max(now, lastSeen) so a shard that saw only early
	// records still evicts against the global clock.
	lastSeen time.Time
	flushed  bool

	// one backs the Process single-record wrapper.
	one [1]firewall.Record
}

// New returns an engine running one shard inline on the caller's
// goroutine.
func New(cfg Config) *Engine { return NewSharded(cfg, 1) }

// NewSharded returns an engine running the configuration's
// aggregation levels across n parallel shards; n ≤ 1 is New.
func NewSharded(cfg Config, n int) *Engine {
	n = max(n, 1)
	cfg = normalize(cfg)
	e := &Engine{cfg: cfg, shards: make([]*shard, n)}
	for i := range e.shards {
		e.shards[i] = newShard(cfg)
	}
	if n > 1 {
		e.disp = dispatch.New(dispatch.Config{
			Shards: n,
			Level:  dispatch.CoarsestLevel(cfg.Levels),
		}, func(i int, recs []firewall.Record, mark time.Time) error {
			s := e.shards[i]
			if !mark.IsZero() {
				s.tick(mark)
			}
			s.process(recs)
			return nil
		})
	}
	return e
}

// Config returns the engine's normalized configuration (defaults
// applied, levels ordered most specific first).
func (e *Engine) Config() Config { return e.cfg }

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// QueueDepth reports the dispatcher's buffered work-unit backlog,
// summed over shards; 0 inline. Safe from any goroutine (see
// dispatch.Dispatcher.QueueDepth).
func (e *Engine) QueueDepth() int {
	if e.disp == nil {
		return 0
	}
	return e.disp.QueueDepth()
}

// Process ingests one record, updating every level's candidate.
func (e *Engine) Process(r firewall.Record) {
	e.one[0] = r
	e.ProcessBatch(e.one[:])
}

// ProcessBatch ingests a run of records: inline, or partitioned across
// the shards and dispatched. The slice is not retained, so callers may
// reuse the backing array between calls.
func (e *Engine) ProcessBatch(recs []firewall.Record) {
	if e.disp == nil {
		e.shards[0].process(recs)
		return
	}
	e.mustRun()
	for i := range recs {
		if recs[i].Time.After(e.lastSeen) {
			e.lastSeen = recs[i].Time
		}
	}
	e.disp.ProcessBatch(recs)
}

// Tick advances time, evicting idle candidates and emitting alerts for
// entities whose activity ended. Call periodically (e.g. once per
// minute of stream time); Flush emits everything at shutdown.
//
// Above one shard the forwarded horizon is the later of now and the
// latest dispatched record time, so shards whose own records lag the
// global clock still close the same candidates; it travels ordered
// with the records dispatched before it, so eviction sees them.
func (e *Engine) Tick(now time.Time) {
	if e.disp == nil {
		e.shards[0].tick(now)
		return
	}
	e.mustRun()
	if e.lastSeen.After(now) {
		now = e.lastSeen
	}
	e.disp.Mark(now)
}

// Drain returns and clears the alerts accumulated by past Ticks,
// ordered deterministically (first activity, then address, then prefix
// length) across all shards. Above one shard it synchronizes with the
// workers, so it is safe (though not free) to call between batches.
func (e *Engine) Drain() []Alert {
	e.sync()
	return e.collect()
}

// Flush evicts every candidate regardless of idleness and returns all
// pending alerts. Above one shard it first stops the workers, and the
// engine is not reusable afterwards (Drain and the accessors remain
// valid).
func (e *Engine) Flush() []Alert {
	if e.disp != nil && !e.flushed {
		e.disp.Close()
		e.flushed = true
	}
	for _, s := range e.shards {
		s.sweep(u128idx.ExpireAll)
	}
	return e.collect()
}

// collect moves every shard's pending alerts into one sorted slice.
func (e *Engine) collect() []Alert {
	out := e.shards[0].alerts
	for _, s := range e.shards[1:] {
		out = append(out, s.alerts...)
	}
	for _, s := range e.shards {
		s.alerts = nil
	}
	sortAlerts(out)
	return out
}

// Candidates returns the current working-set size at a level across
// all shards.
func (e *Engine) Candidates(l netaddr6.AggLevel) int {
	e.sync()
	total := 0
	for _, s := range e.shards {
		total += s.candidates(l)
	}
	return total
}

// MemoryBytes estimates sketch memory across all shards and levels —
// the quantity an IDS deployment budgets.
func (e *Engine) MemoryBytes() int {
	e.sync()
	total := 0
	for _, s := range e.shards {
		total += s.memoryBytes()
	}
	return total
}

// DroppedCandidates reports how many candidates were rejected by the
// per-level MaxCandidates bound, summed over shards. Unlike every
// other accessor it is safe from any goroutine: the per-shard counters
// are atomic, so metrics scrapes read them without a dispatcher
// barrier; a concurrent read may lag batches still in flight.
func (e *Engine) DroppedCandidates() uint64 {
	var total uint64
	for _, s := range e.shards {
		total += s.dropped.Load()
	}
	return total
}

// DroppedPerShard returns each shard's MaxCandidates drop count,
// indexed by shard. Safe from any goroutine (see DroppedCandidates);
// the metrics registry exports one labeled series per entry.
func (e *Engine) DroppedPerShard() []uint64 {
	out := make([]uint64, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.dropped.Load()
	}
	return out
}

// mustRun rejects dispatching into a sharded engine whose workers
// Flush has stopped.
func (e *Engine) mustRun() {
	if e.flushed {
		panic("ids: Engine used after Flush")
	}
}

// sync makes shard state safe to read from the dispatching goroutine:
// a dispatcher barrier while the workers run, a no-op inline or once
// Flush has joined them.
func (e *Engine) sync() error {
	if e.disp == nil || e.flushed {
		return nil
	}
	return e.disp.Barrier()
}
