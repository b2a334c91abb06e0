// Package serve is the long-running daemon runtime behind cmd/v6scand:
// it tails a growing binary firewall log through pipeline.TailSource,
// runs the dynamic-aggregation IDS continuously with the standard
// eviction and checkpoint cadences, and serves the results — an HTTP
// state API, a Server-Sent-Events alert stream, a Prometheus-text
// metrics endpoint, and an atomically rewritten CIDR blocklist file.
//
// # Lifecycle
//
// A Daemon runs in generations. Each generation opens the tail, builds
// a pipeline into the pipeline's IDS sink — the terminal a batch
// `v6scan -ids` run uses, so the daemon ticks, splits batches and cuts
// checkpoints exactly where the batch run would — with the daemon
// attached as the sink's hook (see generation.go), and streams until
// the run context is cancelled (SIGTERM path: drain what is durable,
// cut a final checkpoint, exit) or a Reload is requested (SIGHUP path:
// same drain and final cut, then a new generation resumes from the
// just-cut state in place — the log is reopened, so a renamed or
// replaced path is picked up, and an OnReload hook may revise the
// serving configuration).
//
// Crash recovery is the batch CLI's resume story: start the daemon
// with Config.Resume and it restores the latest checkpoint, replays
// the log with the already-processed prefix skipped, and continues.
// Alerts of the exact fire a periodic checkpoint was cut at are
// re-published on such a resume (at-least-once delivery; see
// generation.go).
//
// # Concurrency
//
// The pipeline's dispatching goroutine owns all detection state; HTTP
// handlers never touch the engine. They read an immutable State
// snapshot through an atomic pointer, page alerts out of the hub's
// mutex-guarded ring, and scrape metrics whose instruments are atomic.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
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
	// Shards > 1 runs the sharded IDS engine; 0 or 1 the plain one.
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
	// ArtifactFilter applies the 5-duplicate artifact pre-filter.
	ArtifactFilter bool
	// BlocklistPath, when set, mirrors every alerted prefix into an
	// atomically rewritten one-CIDR-per-line rule file.
	BlocklistPath string
	// AlertBacklog bounds the paginable alert ring (default 4096);
	// SSEBuffer bounds each SSE client's buffer (default 64).
	AlertBacklog int
	SSEBuffer    int
	// Registry receives the daemon's instruments; a fresh registry is
	// created when nil. Pass a registry that does not already hold
	// v6scan_* families.
	Registry *metrics.Registry
	// OnReload, when set, is applied to the current config at each
	// Reload; the next generation serves with the result. Engine
	// parameters still come from the carried-over state.
	OnReload func(Config) Config
}

// State is the immutable serving snapshot behind /healthz, /api/state
// and /api/sessions. A new value is published on every batch (stream
// progress) and every tick fire (engine-derived fields); handlers
// only ever read whole snapshots.
type State struct {
	// Generation counts pipeline (re)starts: 1 on first run,
	// incremented by each reload.
	Generation int `json:"generation"`
	// Running is false once the final generation has flushed.
	Running bool `json:"running"`
	// StreamTime is the newest record timestamp consumed; Records the
	// total consumed across all generations.
	StreamTime time.Time `json:"stream_time"`
	Records    uint64    `json:"records"`
	// AlertsPublished counts alerts ever published (the SSE sequence
	// space).
	AlertsPublished uint64 `json:"alerts_published"`
	// Candidates is the IDS working set per aggregation level, as of
	// the last tick fire.
	Candidates map[string]int `json:"candidates"`
	// DroppedCandidates / DroppedPerShard report the MaxCandidates
	// admission drops (per-shard detail only on a sharded engine).
	DroppedCandidates uint64   `json:"dropped_candidates"`
	DroppedPerShard   []uint64 `json:"dropped_per_shard,omitempty"`
	// QueueDepth is the sharded dispatcher's buffered batch count.
	QueueDepth int `json:"queue_depth"`
	// MemoryBytes is the engine's sketch-memory estimate.
	MemoryBytes int `json:"memory_bytes"`
	// Tail is the follow-mode source's progress.
	Tail pipeline.TailStats `json:"tail"`
	// LastTick and LastCheckpoint are the most recent cadence marks.
	LastTick       time.Time `json:"last_tick"`
	LastCheckpoint time.Time `json:"last_checkpoint"`
	// UpdatedAt is the wall-clock publish instant.
	UpdatedAt time.Time `json:"updated_at"`
}

// Daemon is one serving process: a pipeline generation loop plus the
// read-side surfaces. Create with NewDaemon, drive with Run, expose
// with Handler.
type Daemon struct {
	cfg      Config
	reg      *metrics.Registry
	pm       *pipeline.Metrics
	sm       serveMetrics
	hub      *hub
	block    *blocklist
	state    atomic.Pointer[State]
	reloadCh chan struct{}
	levels   []netaddr6.AggLevel
}

// serveMetrics are the daemon-level instruments (the pipeline-level
// ones live in pipeline.Metrics).
type serveMetrics struct {
	alerts           *metrics.Counter
	candidates       map[netaddr6.AggLevel]*metrics.Gauge
	dropped          *metrics.Gauge
	droppedPerShard  []*metrics.Gauge
	queueDepth       *metrics.Gauge
	memoryBytes      *metrics.Gauge
	blocklistEntries *metrics.Gauge
	generation       *metrics.Gauge
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
		cfg:      cfg,
		hub:      newHub(cfg.AlertBacklog, cfg.SSEBuffer),
		reloadCh: make(chan struct{}, 1),
		levels:   ids.New(cfg.IDS).Config().Levels,
	}
	if cfg.BlocklistPath != "" {
		d.block = newBlocklist(cfg.BlocklistPath)
	}
	d.reg = cfg.Registry
	if d.reg == nil {
		d.reg = metrics.NewRegistry()
	}
	d.pm = pipeline.RegisterMetrics(d.reg)
	d.registerServeMetrics()
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
		"IDS sketch-memory estimate (as of the last tick).", nil)
	d.sm.generation = reg.Gauge("v6scand_generation",
		"Pipeline generation (increments on reload).", nil)
	d.sm.candidates = make(map[netaddr6.AggLevel]*metrics.Gauge, len(d.levels))
	for _, l := range d.levels {
		d.sm.candidates[l] = reg.Gauge("v6scand_ids_candidates",
			"IDS candidate working set per aggregation level (as of the last tick).",
			map[string]string{"level": l.String()})
	}
	for i := 0; i < d.shardCount(); i++ {
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
		"Alerts dropped across all slow SSE clients.", nil,
		func() float64 { _, n := d.hub.stats(); return float64(n) })
}

// shardCount normalizes Config.Shards.
func (d *Daemon) shardCount() int {
	if d.cfg.Shards > 1 {
		return d.cfg.Shards
	}
	return 1
}

// Registry returns the daemon's metrics registry (also served at
// /metrics).
func (d *Daemon) Registry() *metrics.Registry { return d.reg }

// State returns the latest published serving snapshot. Safe from any
// goroutine; the value is immutable.
func (d *Daemon) State() *State { return d.state.Load() }

// Reload requests a generation restart (the SIGHUP path): the current
// generation drains, snapshots, and a new one resumes from that
// snapshot in place. Coalesces when a reload is already pending.
func (d *Daemon) Reload() {
	select {
	case d.reloadCh <- struct{}{}:
	default:
	}
}

// Run drives the generation loop until ctx is cancelled (after a
// clean drain and final checkpoint) or a pipeline error. It blocks;
// start the HTTP server around it.
func (d *Daemon) Run(ctx context.Context) error {
	var carry *pipeline.Handoff
	for gen := 1; ; gen++ {
		d.sm.generation.Set(float64(gen))
		g, err := d.newGeneration(carry)
		if err != nil {
			return err
		}
		reloaded, err := d.runGeneration(ctx, gen, g)
		if err != nil {
			return err
		}
		if !reloaded {
			return nil
		}
		carry = g.final
		if d.cfg.OnReload != nil {
			d.cfg = d.cfg.OnReload(d.cfg)
		}
	}
}

// runGeneration streams one pipeline until stop or reload; reports
// which ended it.
func (d *Daemon) runGeneration(ctx context.Context, gen int, g *generation) (reloaded bool, err error) {
	genCtx, genCancel := context.WithCancel(context.Background())
	defer genCancel()
	g.tail = pipeline.NewTailSource(d.cfg.LogPath, pipeline.TailConfig{
		Poll:    d.cfg.Poll,
		Context: genCtx,
	})
	g.start(gen)

	stop := make(chan struct{})
	defer close(stop)
	var sawReload atomic.Bool
	go func() {
		select {
		case <-ctx.Done():
		case <-d.reloadCh:
			sawReload.Store(true)
		case <-stop:
		}
		genCancel() // the tail drains what is durable, then ends cleanly
	}()

	b := pipeline.From(g.tail).Instrument(d.pm).
		AdvanceEvery(d.cfg.AdvanceEvery).
		CheckpointEvery(d.cfg.CheckpointEvery, d.cfg.CheckpointDir)
	if d.cfg.ArtifactFilter {
		b = b.Artifact()
	}
	if !g.restored.IsZero() {
		b = b.ResumeFrom(g.restored.Add(-time.Nanosecond))
	}
	if err := b.RunInto(context.Background(), g.sink); err != nil {
		return false, err
	}
	return sawReload.Load(), nil
}

// newGeneration builds a generation's IDS sink: restored from the
// previous generation's final cut, else from the latest disk
// checkpoint (Config.Resume), else fresh — and attaches the generation
// as its hook.
func (d *Daemon) newGeneration(carry *pipeline.Handoff) (*generation, error) {
	var res *pipeline.Resumed
	var err error
	switch {
	case carry != nil:
		if res, err = carry.Resume(d.cfg.Shards); err != nil {
			return nil, fmt.Errorf("serve: reload handoff: %w", err)
		}
	case d.cfg.Resume:
		// Clear out temp files stranded by a crashed writer before
		// scanning the directory for the newest snapshot.
		if _, err := pipeline.SweepCheckpointTemps(d.cfg.CheckpointDir); err != nil {
			return nil, err
		}
		path, err := pipeline.LatestCheckpoint(d.cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		if path != "" {
			if res, err = pipeline.ResumeFile(path, d.cfg.Shards); err != nil {
				return nil, fmt.Errorf("serve: resuming %s: %w", path, err)
			}
		}
	}
	g := &generation{d: d}
	switch {
	case res != nil:
		s, ok := res.Sink.(idsTerminal)
		if !ok {
			return nil, errors.New("serve: checkpoint holds a detector snapshot, not IDS state")
		}
		g.sink, g.restored = s, res.Mark
	case d.cfg.Shards > 1:
		g.sink = pipeline.NewShardedIDSSink(ids.NewSharded(d.cfg.IDS, d.cfg.Shards))
	default:
		g.sink = pipeline.NewIDSSink(ids.New(d.cfg.IDS))
	}
	g.eng = g.sink.Attach(g)
	return g, nil
}

// start publishes the generation's first State and any alerts the
// restored state still held. Those exist only when resuming a
// checkpoint cut at a tick fire, before the fire's drain (the
// at-least-once crash-recovery path) — so the restored mark is both
// the last tick and the last checkpoint.
func (g *generation) start(gen int) {
	d := g.d
	cur := *d.state.Load()
	cur.Generation = gen
	cur.Running = true
	cur.UpdatedAt = time.Now()
	d.state.Store(&cur)
	if pending := g.eng.Drain(); len(pending) > 0 {
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
	cur.Candidates = make(map[string]int, len(d.levels))
	for _, l := range d.levels {
		n := g.eng.Candidates(l)
		cur.Candidates[l.String()] = n
		d.sm.candidates[l].Set(float64(n))
	}
	cur.DroppedCandidates = g.eng.DroppedCandidates()
	d.sm.dropped.Set(float64(cur.DroppedCandidates))
	cur.MemoryBytes = g.eng.MemoryBytes()
	d.sm.memoryBytes.Set(float64(cur.MemoryBytes))
	cur.DroppedPerShard, cur.QueueDepth = nil, 0
	if se, ok := g.eng.(shardedEngine); ok {
		cur.DroppedPerShard = se.DroppedPerShard()
		for i, v := range cur.DroppedPerShard {
			if i < len(d.sm.droppedPerShard) {
				d.sm.droppedPerShard[i].Set(float64(v))
			}
		}
		cur.QueueDepth = se.QueueDepth()
		d.sm.queueDepth.Set(float64(cur.QueueDepth))
	}
	d.finishState(&cur, g)
}

// publishLight refreshes only the stream-progress fields — cheap
// enough for every batch, so /api/state is current even between tick
// fires.
func (d *Daemon) publishLight(g *generation) {
	cur := *d.state.Load()
	d.finishState(&cur, g)
}

// publishFinal marks the daemon stopped (or the generation over).
func (d *Daemon) publishFinal(g *generation) {
	cur := *d.state.Load()
	cur.Running = false
	cur.LastCheckpoint = g.lastCkpt
	d.finishState(&cur, g)
}

// finishState stamps the shared trailer fields and stores the new
// snapshot.
func (d *Daemon) finishState(s *State, g *generation) {
	s.Records = d.pm.SourceRecords.Value()
	if g.lastSeen.After(s.StreamTime) {
		s.StreamTime = g.lastSeen
	}
	s.AlertsPublished = d.sm.alerts.Value()
	if g.tail != nil {
		s.Tail = g.tail.Stats()
	}
	s.UpdatedAt = time.Now()
	d.state.Store(s)
}
