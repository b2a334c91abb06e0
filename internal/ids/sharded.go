package ids

import (
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/core"
	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
	"v6scan/internal/u128idx"
)

// Engine is the dynamic-aggregation IDS over a dispatch.Group of
// candidate-state shards, partitioned by the source aggregated to the
// *coarsest* configured level: every candidate at every level lives in
// exactly one shard, and the suppression/escalation logic (which only
// ever compares nested prefixes) sees the same candidates at any shard
// count. With the deterministic alert ordering, the merged output is
// byte-identical at any shard count (the shards=2 and shards=8 rows of
// pipeline.TestInvariance) — except that each shard applies
// Config.MaxCandidates to its own tables, so under cap pressure a
// sharded engine may admit (and alert on) candidates a single shard
// would have dropped.
//
// The group owns the workers (none at one shard, which runs inline:
// dispatch.IDSInline), the horizon, barrier-synced reads and shutdown;
// the engine keeps the alert merge and its snapshot codec. After
// Flush, ProcessBatch, Tick and Snapshot return dispatch.ErrClosed;
// Drain and the accessors stay valid.
type Engine struct {
	cfg Config
	g   *dispatch.Group[*shard]

	// one backs the Process single-record wrapper.
	one [1]firewall.Record

	// body and bodyBuf are Snapshot's encoder state, kept across cuts.
	body    idsBody
	bodyBuf checkpoint.Buffers[liveCandidate]
}

// New returns an engine running one shard inline on the caller's
// goroutine.
func New(cfg Config) *Engine { return NewSharded(cfg, 1) }

// NewSharded returns an engine running the configuration's
// aggregation levels across n parallel shards; n ≤ 1 is New.
func NewSharded(cfg Config, n int) *Engine {
	cfg = normalize(cfg)
	th := core.NewThreshold(cfg.SketchPrecision, uint64(cfg.MinDsts))
	return &Engine{cfg: cfg, g: dispatch.NewGroup(n, cfg.Levels, dispatch.IDSInline,
		func() *shard { return newShard(cfg, th) })}
}

// Config returns the engine's normalized configuration (defaults
// applied, levels ordered most specific first).
func (e *Engine) Config() Config { return e.cfg }

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.g.Shards()) }

// QueueDepth reports the workers' backlog (dispatch.Group.QueueDepth).
// Safe from any goroutine.
func (e *Engine) QueueDepth() int { return e.g.QueueDepth() }

// Process ingests one record, updating every level's candidate.
func (e *Engine) Process(r firewall.Record) error {
	e.one[0] = r
	return e.ProcessBatch(e.one[:])
}

// ProcessBatch ingests a run of records: inline, or partitioned across
// the shards and dispatched. The slice is not retained, so callers may
// reuse the backing array between calls.
func (e *Engine) ProcessBatch(recs []firewall.Record) error { return e.g.ProcessBatch(recs) }

// Tick advances time, evicting idle candidates and emitting alerts for
// entities whose activity ended. Call periodically (e.g. once per
// minute of stream time); Flush emits everything at shutdown. The
// horizon every shard evicts at is the later of now and the latest
// record time, so shards whose own records lag the global clock still
// close the same candidates. A now off the checkpoint time axis
// (dispatch.Group.Advance) is refused with an error.
func (e *Engine) Tick(now time.Time) error { return e.g.Advance(now) }

// Drain returns and clears the alerts accumulated by past Ticks,
// ordered deterministically (first activity, then address, then prefix
// length) across all shards. Above one shard it synchronizes with the
// workers, so it is safe (though not free) to call between batches.
func (e *Engine) Drain() []Alert {
	e.sync()
	return e.collect()
}

// Flush stops the workers, evicts every candidate regardless of
// idleness and returns all pending alerts.
func (e *Engine) Flush() []Alert {
	e.g.Close()
	for _, s := range e.g.Shards() {
		s.sweep(u128idx.ExpireAll)
	}
	return e.collect()
}

// collect moves every shard's pending alerts into one sorted slice.
func (e *Engine) collect() []Alert {
	shards := e.g.Shards()
	out := shards[0].alerts
	for _, s := range shards[1:] {
		out = append(out, s.alerts...)
	}
	for _, s := range shards {
		s.alerts = nil
	}
	sortAlerts(out)
	return out
}

// Candidates returns the current working-set size at a level across
// all shards.
func (e *Engine) Candidates(l netaddr6.AggLevel) int {
	return e.sum(func(s *shard) int { return s.candidates(l) })
}

// MemoryBytes returns the sketch bytes the live candidates hold across
// all shards and levels — the quantity an IDS deployment budgets: per
// materialized sketch its struct plus its dense registers or sparse
// list (core.DstSketch.MemoryBytes). Each level keeps the total as its
// sketches are attached, grow and are recycled, so the read adds one
// integer per shard and level and costs nothing per candidate.
func (e *Engine) MemoryBytes() int { return e.sum((*shard).memoryBytes) }

// sum adds f over the shards, read after the workers caught up.
func (e *Engine) sum(f func(*shard) int) int {
	e.sync()
	total := 0
	for _, s := range e.g.Shards() {
		total += f(s)
	}
	return total
}

// DroppedCandidates reports how many candidates were rejected by the
// per-level MaxCandidates bound, summed over shards. Unlike every
// other accessor it is safe from any goroutine: the per-shard counters
// are atomic, so metrics scrapes read them without a barrier; a
// concurrent read may lag batches still in flight.
func (e *Engine) DroppedCandidates() uint64 {
	var total uint64
	for _, s := range e.g.Shards() {
		total += s.dropped.Load()
	}
	return total
}

// DroppedPerShard returns each shard's MaxCandidates drop count,
// indexed by shard. Safe from any goroutine (see DroppedCandidates);
// the metrics registry exports one labeled series per entry.
func (e *Engine) DroppedPerShard() []uint64 {
	out := make([]uint64, e.NumShards())
	for i, s := range e.g.Shards() {
		out[i] = s.dropped.Load()
	}
	return out
}

// sync makes shard state readable. Its error is dropped: IDS shards
// never fail, and after Flush (dispatch.ErrClosed) the state is final.
func (e *Engine) sync() { _ = e.g.Sync() }
