package pipeline

// Pipeline observability: a Metrics bundle the builder threads through
// the source side (a batch-native meter stage) and the terminal sinks
// (eviction and checkpoint instrumentation via the cadence every
// detector and IDS sink embeds — the serve daemon's included), backed
// by the dependency-free internal/metrics registry.
//
// The hot-path budget is strict: every per-record or per-batch update
// is a single atomic add on a pre-registered instrument, and all
// instrument methods are nil-safe, so an uninstrumented pipeline pays
// only nil checks and the instrumented one allocates nothing per
// record (BenchmarkMetricsHotPath holds the pipeline allocation-flat
// with a registry attached).

import (
	"sync/atomic"
	"time"

	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
	"v6scan/internal/metrics"
)

// Metrics is the instrument bundle one pipeline reports into. Build
// one with RegisterMetrics (or populate fields selectively — nil
// instruments are no-ops) and attach it with Builder.Instrument.
//
// The advance/checkpoint fields are updated from the dispatching
// goroutine only; the instruments themselves are atomic, so scraping
// the registry concurrently is always safe.
type Metrics struct {
	// SourceRecords / SourceBatches / BatchOccupancy describe what the
	// source emits: total records, total batch deliveries, and the
	// per-batch record count distribution (occupancy of the 4096-record
	// default batch is the pipeline's effective batching efficiency).
	SourceRecords  *metrics.Counter
	SourceBatches  *metrics.Counter
	BatchOccupancy *metrics.Histogram

	// Advances counts eviction-cadence fires (detector Advance, IDS
	// Tick); EvictionLagSeconds is the stream-time gap between
	// consecutive fires — nominally AdvanceEvery, larger when the
	// stream jumps past several cadence marks at once.
	Advances           *metrics.Counter
	EvictionLagSeconds *metrics.Gauge

	// Checkpoint instrumentation: successful cuts, failed cuts, write
	// duration, and the wall-clock instant of the last successful cut
	// (exposed as an age gauge by RegisterMetrics).
	Checkpoints               *metrics.Counter
	CheckpointErrors          *metrics.Counter
	CheckpointDurationSeconds *metrics.Histogram

	// lastAdvance is the previous fire's stream time (dispatching
	// goroutine only); lastCkptWall is the UnixNano of the last
	// successful checkpoint write, atomic for the age GaugeFunc.
	lastAdvance  time.Time
	lastCkptWall atomic.Int64
}

// occupancyBounds covers batch sizes from near-empty to the 4096
// default; DefaultBatchSize lands in the last finite bucket.
var occupancyBounds = []float64{1, 8, 64, 256, 1024, 4096}

// durationBounds covers checkpoint writes from sub-millisecond (small
// state, page cache) to tens of seconds (large state, cold disk).
var durationBounds = []float64{0.001, 0.01, 0.1, 1, 10}

// RegisterMetrics creates a fully-populated Metrics bundle registered
// under canonical v6scan_pipeline_* names, plus the process-wide
// dispatch gauges (batch pool traffic and hit rate) that do not belong
// to any single pipeline. Call once per registry.
func RegisterMetrics(reg *metrics.Registry) *Metrics {
	m := &Metrics{
		SourceRecords: reg.Counter("v6scan_pipeline_records_total",
			"Records emitted by the pipeline source.", nil),
		SourceBatches: reg.Counter("v6scan_pipeline_batches_total",
			"Batches emitted by the pipeline source.", nil),
		BatchOccupancy: reg.Histogram("v6scan_pipeline_batch_occupancy",
			"Records per emitted batch.", nil, occupancyBounds),
		Advances: reg.Counter("v6scan_pipeline_advances_total",
			"Eviction-cadence fires (detector advances / IDS ticks).", nil),
		EvictionLagSeconds: reg.Gauge("v6scan_pipeline_eviction_lag_seconds",
			"Stream-time gap between the last two eviction fires.", nil),
		Checkpoints: reg.Counter("v6scan_pipeline_checkpoints_total",
			"Checkpoints written successfully.", nil),
		CheckpointErrors: reg.Counter("v6scan_pipeline_checkpoint_errors_total",
			"Checkpoint writes that failed.", nil),
		CheckpointDurationSeconds: reg.Histogram("v6scan_pipeline_checkpoint_duration_seconds",
			"Wall-clock duration of checkpoint writes.", nil, durationBounds),
	}
	reg.GaugeFunc("v6scan_pipeline_checkpoint_age_seconds",
		"Seconds since the last successful checkpoint write (-1 before the first).",
		nil, func() float64 {
			at := m.lastCkptWall.Load()
			if at == 0 {
				return -1
			}
			return time.Since(time.Unix(0, at)).Seconds()
		})
	registerDispatchMetrics(reg)
	return m
}

// registerDispatchMetrics exposes the process-wide batch-pool traffic
// and its hit rate.
func registerDispatchMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("v6scan_dispatch_pool_gets_total",
		"GetBatch calls against the process-wide batch pool.", nil,
		func() float64 { gets, _ := dispatch.PoolStats(); return float64(gets) })
	reg.GaugeFunc("v6scan_dispatch_pool_misses_total",
		"GetBatch calls that had to allocate.", nil,
		func() float64 { _, misses := dispatch.PoolStats(); return float64(misses) })
	reg.GaugeFunc("v6scan_dispatch_pool_hit_rate",
		"Fraction of GetBatch calls served from the pool.", nil,
		func() float64 {
			gets, misses := dispatch.PoolStats()
			if gets == 0 {
				return 1
			}
			return float64(gets-misses) / float64(gets)
		})
}

// recordBatch counts one batch delivery of n records.
func (m *Metrics) recordBatch(n int) {
	if m == nil {
		return
	}
	m.SourceRecords.Add(n)
	m.SourceBatches.Inc()
	m.BatchOccupancy.Observe(float64(n))
}

// advanceFired records an eviction fire at stream time t.
func (m *Metrics) advanceFired(t time.Time) {
	if m == nil {
		return
	}
	m.Advances.Inc()
	if !m.lastAdvance.IsZero() {
		m.EvictionLagSeconds.Set(t.Sub(m.lastAdvance).Seconds())
	}
	m.lastAdvance = t
}

// checkpointDone records the outcome of one checkpoint write.
func (m *Metrics) checkpointDone(dur time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.CheckpointErrors.Inc()
		return
	}
	m.Checkpoints.Inc()
	m.CheckpointDurationSeconds.Observe(dur.Seconds())
	m.lastCkptWall.Store(time.Now().UnixNano())
}

// meterStage counts source output. Builder.Instrument mounts it ahead
// of every other stage so its numbers describe the raw source, not a
// filtered residue.
type meterStage struct {
	m    *Metrics
	next RecordSink
}

// ConsumeBatch implements RecordSink.
func (s *meterStage) ConsumeBatch(recs []firewall.Record) error {
	s.m.recordBatch(len(recs))
	return s.next.ConsumeBatch(recs)
}

// Flush implements RecordSink.
func (s *meterStage) Flush() error { return s.next.Flush() }
