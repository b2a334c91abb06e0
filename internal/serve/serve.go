// Package serve is the long-running daemon runtime behind cmd/v6scand:
// it tails a growing binary firewall log through pipeline.TailSource,
// runs the dynamic-aggregation IDS continuously with the standard
// eviction and checkpoint cadences, and serves the results — an HTTP
// state API, a Server-Sent-Events alert stream, a Prometheus-text
// metrics endpoint, and an atomically rewritten CIDR blocklist file.
//
// # Lifecycle
//
// Run opens the tail, builds a pipeline into the pipeline's IDS sink —
// the terminal a batch `v6scan -ids` run uses, so the daemon ticks,
// splits batches and cuts checkpoints exactly where the batch run
// would — with the daemon attached as the sink's hook (see
// generation.go), and streams until the run context is cancelled: the
// tail drains what is durable, the sink cuts a final checkpoint (with
// a checkpoint dir), and every SSE stream ends. The tail follows the
// log across rotation by rename or replacement (pipeline.TailSource),
// so the daemon never restarts its pipeline to pick up a new file.
//
// Recovery after a crash or a stop is the batch CLI's resume story,
// and the only way state is restored: start the daemon with
// Config.Resume and it restores the latest checkpoint, replays the log
// with the already-processed prefix skipped, and continues. Alerts of
// the exact fire a periodic checkpoint was cut at are re-published on
// such a resume (at-least-once delivery; see generation.go).
//
// # Concurrency
//
// The pipeline's dispatching goroutine owns all detection state; HTTP
// handlers never touch the engine. They read an immutable State
// snapshot through an atomic pointer, overlaid with the mutex-guarded
// stream progress, page alerts out of the hub's mutex-guarded ring,
// and scrape metrics whose instruments are atomic.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"v6scan/internal/ids"
	"v6scan/internal/metrics"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pipeline"
)

// Config parameterizes a Daemon. The zero value is not runnable: at
// minimum LogPath must be set.
type Config struct {
	// LogPath is the binary firewall log to tail. The file may not
	// exist yet.
	LogPath string
	// Shards is the IDS engine's shard count; ≤ 1 runs one shard
	// inline on the pipeline's goroutine.
	Shards int
	// IDS configures a fresh engine (ignored when state is restored
	// from a checkpoint: detection parameters travel in the snapshot).
	IDS ids.Config
	// AdvanceEvery is the stream-time tick cadence (default one
	// minute) — the daemon's alerting latency.
	AdvanceEvery time.Duration
	// CheckpointEvery / CheckpointDir enable periodic snapshots at
	// tick-aligned cuts; CheckpointEvery requires CheckpointDir.
	// CheckpointDir alone still gets the final shutdown snapshot.
	CheckpointEvery time.Duration
	CheckpointDir   string
	// Resume restores the latest checkpoint in CheckpointDir at
	// startup and skips the already-processed log prefix.
	Resume bool
	// Poll is the tail's growth-poll interval (default
	// pipeline.DefaultTailPoll).
	Poll time.Duration
	// BlocklistPath, when set, mirrors every alerted prefix into an
	// atomically rewritten one-CIDR-per-line rule file. With Resume,
	// the set starts from the file's existing prefixes.
	BlocklistPath string
	// AlertBacklog bounds the alert ring (default 4096) behind
	// pagination and the SSE streams: an SSE client that falls further
	// behind loses the alerts the ring evicted.
	AlertBacklog int
}

// State is the immutable serving snapshot behind /healthz, /api/state
// and /api/sessions. A new value is published at the pipeline's start,
// every tick fire (the engine-derived fields) and the stop; the stream
// progress (StreamTime, Records, Tail) is that of the last record run
// the engine consumed, overlaid at every read (Daemon.State). Handlers
// only ever read whole snapshots.
type State struct {
	// Generation is 1 once the pipeline has started.
	Generation int `json:"generation"`
	// Running is false once the pipeline has flushed.
	Running bool `json:"running"`
	// StreamTime is the newest record timestamp consumed; Records the
	// total the tail has emitted (replayed records included).
	StreamTime time.Time `json:"stream_time"`
	Records    uint64    `json:"records"`
	// AlertsPublished counts alerts ever published (the SSE sequence
	// space).
	AlertsPublished uint64 `json:"alerts_published"`
	// Candidates is the IDS working set per aggregation level, as of
	// the last tick fire.
	Candidates map[string]int `json:"candidates"`
	// DroppedCandidates / DroppedPerShard report the MaxCandidates
	// admission drops, in total and per shard.
	DroppedCandidates uint64   `json:"dropped_candidates"`
	DroppedPerShard   []uint64 `json:"dropped_per_shard,omitempty"`
	// QueueDepth is the shard dispatcher's buffered batch count (0
	// inline).
	QueueDepth int `json:"queue_depth"`
	// MemoryBytes is the sketch memory the engine's live candidates
	// hold (ids.Engine.MemoryBytes): actual bytes, sparse or dense, as
	// of the last tick fire. The engine keeps the total as its sketches
	// change, so reading it at a fire costs nothing per candidate.
	MemoryBytes int `json:"memory_bytes"`
	// Tail is the follow-mode source's progress.
	Tail pipeline.TailStats `json:"tail"`
	// LastTick and LastCheckpoint are the most recent cadence marks.
	LastTick       time.Time `json:"last_tick"`
	LastCheckpoint time.Time `json:"last_checkpoint"`
	// UpdatedAt is the wall-clock instant of the last publish.
	UpdatedAt time.Time `json:"updated_at"`
	// levels are the running engine's aggregation levels, finest
	// first: the rows of Candidates and /api/sessions.
	levels []netaddr6.AggLevel
}

// Daemon is one serving process: a pipeline run plus the read-side
// surfaces. Create with NewDaemon, drive once with Run, expose with
// Handler.
type Daemon struct {
	cfg   Config
	reg   *metrics.Registry
	pm    *pipeline.Metrics
	sm    serveMetrics
	hub   *hub
	block *blocklist
	state atomic.Pointer[State]
	// progress is the stream position as of the last record run the
	// engine consumed, which State overlays on the published snapshot.
	progress progress
}

// progress is the stream-progress part of State. The pipeline's
// dispatching goroutine sets it after every record run (one uncontended
// lock, no allocation); readers copy it out under the same lock.
type progress struct {
	mu         sync.Mutex
	records    uint64
	streamTime time.Time
	tail       pipeline.TailStats
}

// set records the progress after a record run: the source's record
// count, the newest record time consumed and the tail's position.
func (p *progress) set(records uint64, last time.Time, tail pipeline.TailStats) {
	p.mu.Lock()
	p.records, p.tail = records, tail
	if last.After(p.streamTime) {
		p.streamTime = last
	}
	p.mu.Unlock()
}

// overlay copies the progress into s.
func (p *progress) overlay(s *State) {
	p.mu.Lock()
	s.Records, s.StreamTime, s.Tail = p.records, p.streamTime, p.tail
	p.mu.Unlock()
}

// serveMetrics are the daemon-level instruments (the pipeline-level
// ones live in pipeline.Metrics). candidates holds one gauge per level
// the engine runs, registered as it first appears.
type serveMetrics struct {
	alerts           *metrics.Counter
	candidates       map[netaddr6.AggLevel]*metrics.Gauge
	dropped          *metrics.Gauge
	droppedPerShard  []*metrics.Gauge
	queueDepth       *metrics.Gauge
	memoryBytes      *metrics.Gauge
	blocklistEntries *metrics.Gauge
}

// NewDaemon validates cfg and builds the serving surfaces. No
// goroutines start until Run.
func NewDaemon(cfg Config) (*Daemon, error) {
	if cfg.LogPath == "" {
		return nil, errors.New("serve: Config.LogPath is required")
	}
	if cfg.AdvanceEvery <= 0 {
		cfg.AdvanceEvery = time.Minute
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, errors.New("serve: Resume requires CheckpointDir")
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointDir == "" {
		return nil, errors.New("serve: CheckpointEvery requires CheckpointDir")
	}
	d := &Daemon{
		cfg: cfg,
		hub: newHub(cfg.AlertBacklog),
		reg: metrics.NewRegistry(),
	}
	if cfg.BlocklistPath != "" {
		d.block = newBlocklist(cfg.BlocklistPath)
		if cfg.Resume {
			if err := d.block.load(); err != nil {
				return nil, err
			}
		}
	}
	d.pm = pipeline.RegisterMetrics(d.reg)
	d.registerServeMetrics()
	if d.block != nil {
		d.sm.blocklistEntries.Set(float64(len(d.block.set)))
	}
	d.state.Store(&State{Candidates: map[string]int{}, UpdatedAt: time.Now()})
	return d, nil
}

// registerServeMetrics declares the v6scand_* families.
func (d *Daemon) registerServeMetrics() {
	reg := d.reg
	d.sm.alerts = reg.Counter("v6scand_alerts_total",
		"IDS alerts published to the hub.", nil)
	d.sm.dropped = reg.Gauge("v6scand_ids_dropped_candidates",
		"Candidates rejected by the MaxCandidates bound (as of the last tick).", nil)
	d.sm.queueDepth = reg.Gauge("v6scand_shard_queue_depth",
		"Batches buffered in the shard dispatcher (as of the last tick).", nil)
	d.sm.memoryBytes = reg.Gauge("v6scand_ids_memory_bytes",
		"Bytes held by the IDS candidates' destination sketches, sparse or dense (as of the last tick).", nil)
	d.sm.candidates = make(map[netaddr6.AggLevel]*metrics.Gauge)
	for i := range max(d.cfg.Shards, 1) {
		d.sm.droppedPerShard = append(d.sm.droppedPerShard, reg.Gauge(
			"v6scand_ids_dropped_candidates_shard",
			"Per-shard MaxCandidates drops (as of the last tick).",
			map[string]string{"shard": fmt.Sprint(i)}))
	}
	if d.block != nil {
		d.sm.blocklistEntries = reg.Gauge("v6scand_blocklist_entries",
			"Distinct prefixes in the exported blocklist.", nil)
	}
	reg.GaugeFunc("v6scand_sse_clients",
		"Connected SSE alert-stream clients.", nil,
		func() float64 { n, _ := d.hub.stats(); return float64(n) })
	reg.GaugeFunc("v6scand_sse_dropped_total",
		"Alerts the backlog ring evicted before a slow SSE client read them, across all clients.", nil,
		func() float64 { _, n := d.hub.stats(); return float64(n) })
}

// candidateGauge returns level l's working-set gauge, registering it
// on first use. Detection parameters travel in a checkpoint, so a
// resumed engine's levels need not be the configured ones. Runs on the
// pipeline's dispatching goroutine only.
func (d *Daemon) candidateGauge(l netaddr6.AggLevel) *metrics.Gauge {
	g := d.sm.candidates[l]
	if g == nil {
		g = d.reg.Gauge("v6scand_ids_candidates",
			"IDS candidate working set per aggregation level (as of the last tick).",
			map[string]string{"level": l.String()})
		d.sm.candidates[l] = g
	}
	return g
}

// State returns the latest published serving snapshot with the stream
// progress of the last record run the engine consumed. Safe from any
// goroutine; the value is the caller's.
func (d *Daemon) State() *State {
	s := *d.state.Load()
	d.progress.overlay(&s)
	return &s
}

// Run streams the log until ctx is cancelled (after a clean drain and
// final checkpoint) or a pipeline error. It blocks; start the HTTP
// server around it. When it returns, every SSE stream writes out what
// its client has not read yet and ends, so a server Shutdown need not
// wait for SSE clients to hang up.
func (d *Daemon) Run(ctx context.Context) error {
	defer d.hub.close()
	g, err := d.newGeneration()
	if err != nil {
		return err
	}
	// Cancelling ctx ends the tail once it has drained what is
	// durable; the pipeline then flushes and the sink cuts its final
	// checkpoint.
	g.tail = pipeline.NewTailSource(d.cfg.LogPath, pipeline.TailConfig{
		Poll:    d.cfg.Poll,
		Context: ctx,
	})
	g.start()
	b := pipeline.From(g.tail).Instrument(d.pm).
		AdvanceEvery(d.cfg.AdvanceEvery).
		CheckpointEvery(d.cfg.CheckpointEvery, d.cfg.CheckpointDir)
	if !g.restored.IsZero() {
		b = b.ResumeFrom(g.restored.Add(-time.Nanosecond))
	}
	return b.RunInto(context.Background(), g.sink)
}

// newGeneration builds the IDS sink — restored from the latest disk
// checkpoint (Config.Resume), else fresh — and attaches the generation
// as its hook.
func (d *Daemon) newGeneration() (*generation, error) {
	var res *pipeline.Resumed
	if d.cfg.Resume {
		var err error
		if res, err = pipeline.ResumeLatest(d.cfg.CheckpointDir, d.cfg.Shards); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	g := &generation{d: d}
	if res == nil {
		g.sink = pipeline.NewIDSSink(ids.NewSharded(d.cfg.IDS, d.cfg.Shards))
	} else {
		s, ok := res.Sink.(*pipeline.IDSSink)
		if !ok {
			res.Sink.Flush() // a detector restore has live workers
			return nil, errors.New("serve: checkpoint holds a detector snapshot, not IDS state")
		}
		g.sink, g.restored = s, res.Mark
	}
	g.sink.Attach(g)
	return g, nil
}

// start publishes the first running State and any alerts the
// restored state still held. Those exist only when resuming a
// checkpoint cut at a tick fire, before the fire's drain (the
// at-least-once crash-recovery path) — so the restored mark is both
// the last tick and the last checkpoint.
func (g *generation) start() {
	d := g.d
	cur := *d.state.Load()
	cur.Generation = 1
	cur.Running = true
	cur.levels = g.sink.E.Config().Levels
	for _, l := range cur.levels {
		d.candidateGauge(l)
	}
	cur.UpdatedAt = time.Now()
	d.state.Store(&cur)
	if pending := g.sink.E.Drain(); len(pending) > 0 {
		g.lastCkpt = g.restored
		d.publish(g, pending, g.restored)
	}
}

// publish is the tick-fire hook: hand alerts to the hub and the
// blocklist, refresh the engine-derived gauges and the full State.
// Runs on the dispatching goroutine only.
func (d *Daemon) publish(g *generation, alerts []ids.Alert, tick time.Time) {
	if len(alerts) > 0 {
		// Export before notifying: a consumer reacting to the SSE
		// event (a firewall reload hook, the smoke test) must find the
		// blocklist already rewritten.
		if d.block != nil && d.block.add(alerts) {
			if err := d.block.write(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			d.sm.blocklistEntries.Set(float64(len(d.block.set)))
		}
		d.hub.publish(alerts)
		d.sm.alerts.Add(len(alerts))
	}
	cur := *d.state.Load()
	cur.LastTick = tick
	cur.LastCheckpoint = g.lastCkpt
	eng := g.sink.E
	cur.Candidates = make(map[string]int, len(cur.levels))
	for _, l := range cur.levels {
		n := eng.Candidates(l)
		cur.Candidates[l.String()] = n
		d.candidateGauge(l).Set(float64(n))
	}
	cur.DroppedCandidates = eng.DroppedCandidates()
	d.sm.dropped.Set(float64(cur.DroppedCandidates))
	cur.MemoryBytes = eng.MemoryBytes()
	d.sm.memoryBytes.Set(float64(cur.MemoryBytes))
	cur.DroppedPerShard = eng.DroppedPerShard()
	for i, v := range cur.DroppedPerShard {
		d.sm.droppedPerShard[i].Set(float64(v))
	}
	cur.QueueDepth = eng.QueueDepth()
	d.sm.queueDepth.Set(float64(cur.QueueDepth))
	d.finishState(&cur)
}

// publishFinal marks the daemon stopped.
func (d *Daemon) publishFinal(g *generation) {
	cur := *d.state.Load()
	cur.Running = false
	cur.LastCheckpoint = g.lastCkpt
	d.finishState(&cur)
}

// finishState stamps the shared trailer fields and stores the new
// snapshot.
func (d *Daemon) finishState(s *State) {
	s.AlertsPublished = d.sm.alerts.Value()
	s.UpdatedAt = time.Now()
	d.state.Store(s)
}
