// Package v6scan is a library for detecting and characterizing
// large-scale IPv6 scanning, reproducing the methodology of Richter,
// Gasser & Berger, "Illuminating Large-Scale IPv6 Scanning in the
// Internet" (IMC 2022).
//
// The package is a facade over the internal subsystems:
//
//   - the streaming pipeline that every consumer plugs into — sources
//     (record slices, binary logs, pcap captures), stages (collection
//     policy, day sorter, artifact filter, tees) and terminal sinks, all behind one RecordSink interface, assembled left to
//     right with the fluent builder: From / Chain and the
//     New*Source / New*Sink constructors;
//   - scan detection with multi-level source aggregation (the paper's
//     central methodological contribution): every pipeline detects on
//     NewShardedDetector, whose output is byte-identical at any shard
//     count (one shard is one worker goroutine); NewDetector /
//     Detector is the single-goroutine engine each shard runs;
//   - the MAWI-style detector (extended Fukuda–Heidemann definition):
//     NewMAWIDetector;
//   - the CDN firewall-log record schema, binary codec, collection
//     policy and 5-duplicate artifact filter: Record, WriteLog,
//     NewArtifactFilter;
//   - classic pcap captures as a record source: NewPcapSource reads
//     each Ethernet or raw IPv6 frame's addresses, protocol, ports and
//     length, skipping frames it cannot decode (order it with the
//     builder's WindowSort);
//   - simulation of the paper's two vantage points and its scan-actor
//     census, for experimentation and regression of the published
//     results: RunCDNExperiment, NewMAWISimulator;
//   - analysis builders that regenerate every table and figure of the
//     paper: the Build* functions.
//
// Quickstart — compose the paper's processing chain left to right with
// the fluent builder and terminate it in a sharded detector:
//
//	det, err := v6scan.From(v6scan.NewLogSource(f)).
//	    Policy(v6scan.DefaultCollectPolicy()).
//	    Artifact().
//	    Detect(ctx, v6scan.DefaultDetectorConfig(), 8)
//	if err != nil { ... }
//	for _, scan := range det.Scans(v6scan.Agg64) {
//	    fmt.Println(scan.Source, scan.Packets, scan.Dsts)
//	}
//
// Multi-day workloads ingest through FromFiles: every log decodes in
// parallel record-aligned chunks and the files k-way merge into one
// time-ordered stream, byte-identical to a serial read of their
// concatenation:
//
//	det, err := v6scan.FromFiles("day1.log", "day2.log").
//	    DecodeWorkers(8).
//	    Artifact().
//	    Detect(ctx, v6scan.DefaultDetectorConfig(), 8)
//
// Records flow batch-to-batch end to end: every source emits batches
// (RecordSource.EmitBatch) and every stage and terminal consumes them
// (RecordSink.ConsumeBatch); a record-at-a-time producer joins through
// SourceFunc, a record-at-a-time consumer through SinkFunc. Ingestion
// is memory-bounded for
// larger-than-RAM inputs: the log and pcap sources decode
// incrementally through pooled chunk buffers, WindowSort repairs
// bounded timestamp disorder in flight (full-sort-equivalent output
// for window-bounded skew, buffering one window instead of a day),
// and the builder's AdvanceEvery forwards a stream-time eviction
// horizon to the detector/IDS terminals — sharded ones included — so
// idle per-source state is released continuously instead of
// accumulating until the end of input. The builder is the one place a
// terminal's cadence is set. Arbitrary terminals plug in through
// RunInto, the one way to run a pipeline; it owns the sink lifecycle
// (one Flush finalizes the terminal and every Tee branch and releases
// their resources; typed Result accessors read the outcome):
//
//	sink := v6scan.NewIDSSink(v6scan.NewShardedIDS(cfg, 8))
//	err := v6scan.From(src).Artifact().
//	    AdvanceEvery(time.Minute).
//	    RunInto(ctx, sink)
//	alerts := sink.Result()
//
// # Checkpoint and resume
//
// Long runs survive interruption through versioned snapshots of the
// terminal's state, cut at consistent stream-time points that ride
// the eviction cadence: every cut is an AdvanceEvery fire point, so a
// snapshot holds no state eviction has released (CheckpointEvery set
// alone is the AdvanceEvery cadence too). Enable them with
// CheckpointEvery; resume by restoring the latest snapshot and
// replaying the same input with the already-processed prefix skipped:
//
//	// Checkpointed run: a snapshot every 6h of stream time.
//	det, err := v6scan.FromFiles(logs...).
//	    Artifact().
//	    AdvanceEvery(time.Hour).
//	    CheckpointEvery(6*time.Hour, ckptDir).
//	    Detect(ctx, cfg, 8)
//
//	// After a crash: restore the sink and skip the replayed prefix.
//	res, err := v6scan.ResumeLatest(ckptDir, 8) // nil, nil: no checkpoint yet
//	err = v6scan.FromFiles(logs...).
//	    Artifact().
//	    AdvanceEvery(time.Hour).
//	    CheckpointEvery(6*time.Hour, ckptDir).
//	    ResumeFrom(res.Horizon).
//	    RunInto(ctx, res.Sink)
//
// The resumed run's results are byte-identical to the uninterrupted
// one, at any shard count — snapshots re-partition on restore, so a
// run checkpointed at 8 shards may resume at 2. Snapshots embed a
// format version and per-section checksums; corrupted or truncated
// files are rejected on restore.
//
// Outside a pipeline, a plain Detector fed record by record (Process /
// Finish / Scans) remains fully supported for single-goroutine use; it
// does not checkpoint — snapshots are taken through the sharded
// detector the pipeline terminals run, at any shard count.
package v6scan

import (
	"context"
	"io"

	"v6scan/internal/analysis"
	"v6scan/internal/bus"
	"v6scan/internal/core"
	"v6scan/internal/dispatch"
	"v6scan/internal/events"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/mawi"
	"v6scan/internal/metrics"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pipeline"
	"v6scan/internal/scanner"
	"v6scan/internal/serve"
	"v6scan/internal/sim"
	"v6scan/internal/telescope"
)

// Core detection types.
type (
	// DetectorConfig parameterizes scan detection (threshold, timeout,
	// aggregation levels).
	DetectorConfig = core.Config
	// Detector is the streaming multi-aggregation scan detector.
	Detector = core.Detector
	// Scan is one detected scan event.
	Scan = core.Scan
	// Totals is a Table-1 style per-level summary.
	Totals = core.Totals
	// PortClass buckets scans by targeted port count.
	PortClass = core.PortClass
	// MAWIConfig parameterizes the MAWI (Fukuda–Heidemann extended)
	// detector.
	MAWIConfig = core.MAWIConfig
	// MAWIDetector detects scans in one capture window.
	MAWIDetector = core.MAWIDetector
	// MAWIScan is one scan detected in a capture window.
	MAWIScan = core.MAWIScan
)

// Record & log types.
type (
	// Record is one unsolicited-packet log entry, the input unit of
	// all detectors.
	Record = firewall.Record
	// Service is a (protocol, destination port) pair.
	Service = firewall.Service
	// CollectPolicy is the logging policy (the CDN excludes TCP/80,
	// TCP/443 and ICMPv6).
	CollectPolicy = firewall.CollectPolicy
	// ArtifactFilter is the per-day 5-duplicate pre-filter.
	ArtifactFilter = firewall.ArtifactFilter
	// FilterStats reports what the artifact filter removed.
	FilterStats = firewall.FilterStats
)

// Aggregation levels.
type AggLevel = netaddr6.AggLevel

// Aggregation levels studied in the paper.
const (
	Agg128 = netaddr6.Agg128
	Agg64  = netaddr6.Agg64
	Agg48  = netaddr6.Agg48
	Agg32  = netaddr6.Agg32
)

// Port classes of Figures 4 and 8.
const (
	SinglePort   = core.SinglePort
	Ports2to10   = core.Ports2to10
	Ports10to100 = core.Ports10to100
	PortsOver100 = core.PortsOver100
)

// NewDetector returns a streaming scan detector.
func NewDetector(cfg DetectorConfig) *Detector { return core.NewDetector(cfg) }

// DefaultDetectorConfig returns the paper's parameters: 100
// destinations, 3600-second timeout, /128+/64+/48 aggregation.
func DefaultDetectorConfig() DetectorConfig { return core.DefaultConfig() }

// NewMAWIDetector returns a capture-window scan detector.
func NewMAWIDetector(cfg MAWIConfig) *MAWIDetector { return core.NewMAWIDetector(cfg) }

// DefaultMAWIConfig returns the Section-4 parameters.
func DefaultMAWIConfig() MAWIConfig { return core.DefaultMAWIConfig() }

// NewArtifactFilter returns the paper's 5-duplicate / 30% filter.
func NewArtifactFilter() *ArtifactFilter { return firewall.NewArtifactFilter() }

// DefaultCollectPolicy returns the CDN logging policy.
func DefaultCollectPolicy() CollectPolicy { return firewall.DefaultCollectPolicy() }

// Aggregate masks an address to an aggregation level.
var Aggregate = netaddr6.Aggregate

// LogWriter streams records to a binary log.
type LogWriter = firewall.Writer

// WriteLog returns a record writer producing the binary log format.
func WriteLog(w io.Writer) *LogWriter { return firewall.NewWriter(w) }

// Pipeline types: the composable streaming architecture every record
// consumer plugs into (see internal/pipeline).
type (
	// Builder assembles a pipeline fluently, left to right; see From
	// and Chain.
	Builder = pipeline.Builder
	// RecordSink is the one interface every stage and terminal
	// consumer implements. Its Flush is the one way to end a sink:
	// a terminal finalizes exactly once and releases its resources,
	// and typed Result accessors then read the outcome.
	RecordSink = pipeline.RecordSink
	// RecordSource produces a time-ordered record stream in batches.
	RecordSource = pipeline.Source
	// SourceFunc adapts a record-at-a-time producer to RecordSource,
	// staging its records into pooled batches.
	SourceFunc = pipeline.SourceFunc
	// SinkFunc adapts a function to RecordSink.
	SinkFunc = pipeline.SinkFunc
	// SliceSource emits an in-memory record slice.
	SliceSource = pipeline.SliceSource
	// LogSource streams records from a binary firewall log.
	LogSource = pipeline.LogSource
	// PcapSource streams the records of a classic pcap capture, one
	// per decodable IPv6 frame.
	PcapSource = pipeline.PcapSource
	// PipelineCounter counts records passing through a chain.
	PipelineCounter = pipeline.Counter
	// ErrLateRecord reports a record trailing the stream beyond the
	// WindowSort window, carrying the record time and the violated
	// horizon.
	ErrLateRecord = pipeline.ErrLateRecord
	// ArtifactStage runs the 5-duplicate pre-filter as a stage.
	ArtifactStage = pipeline.ArtifactStage
	// ShardedSink terminates a pipeline in the scan detector, run on
	// the sharded detector's workers (one worker at one shard).
	ShardedSink = pipeline.ShardedSink
	// IDSSink terminates a pipeline in the dynamic-aggregation engine
	// at any shard count.
	IDSSink = pipeline.IDSSink
	// LogSink writes the stream to a binary firewall log.
	LogSink = pipeline.LogSink
	// ShardedDetector runs multi-level detection across parallel
	// worker shards with byte-identical output at any shard count.
	ShardedDetector = core.ShardedDetector
)

// From starts a fluent pipeline builder reading from src — the
// entry point of the public pipeline API. Stages are appended left to
// right (Policy, DaySort, Artifact, Filter, Counter, Tee) and the
// chain is terminated by RunInto or by Detect, which returns the
// merged detector.
func From(src RecordSource) *Builder { return pipeline.From(src) }

// FromFiles starts a builder ingesting one or more binary firewall
// log files: each file decodes in parallel record-aligned chunks
// (tune with DecodeWorkers), and multiple files — day-logs, typically
// — k-way merge into a single time-ordered stream, so a month of logs
// is one pipeline run:
//
//	det, err := v6scan.FromFiles("day1.log", "day2.log").
//	    DecodeWorkers(8).
//	    Artifact().
//	    Detect(ctx, v6scan.DefaultDetectorConfig(), 8)
//
// Files are opened when the pipeline runs, so an unreadable path
// surfaces as the run error. Output is byte-identical to reading the
// concatenation of the files through a serial LogSource.
func FromFiles(paths ...string) *Builder { return pipeline.FromFiles(paths...) }

// Chain starts a source-less stage chain terminated with Into — for
// composing the sink side of a pipeline (simulation taps, Tee
// branches) with the same left-to-right syntax.
func Chain() *Builder { return pipeline.Chain() }

// NewShardedDetector returns a scan detector partitioning session
// state by aggregated source prefix across n parallel worker shards.
// Scans() output is identical to a single Detector's for any n.
func NewShardedDetector(cfg DetectorConfig, n int) *ShardedDetector {
	return core.NewShardedDetector(cfg, n)
}

// Pipeline source constructors.
func NewLogSource(r io.Reader) *LogSource      { return pipeline.NewLogSource(r) }
func NewPcapSource(r io.Reader) *PcapSource    { return pipeline.NewPcapSource(r) }
func NewSliceSource(recs []Record) SliceSource { return SliceSource(recs) }

// Pipeline sink constructors.
func NewShardedSink(d *ShardedDetector) *ShardedSink { return pipeline.NewShardedSink(d) }
func NewIDSSink(e *IDSEngine) *IDSSink               { return pipeline.NewIDSSink(e) }
func NewLogSink(w *LogWriter) *LogSink               { return pipeline.NewLogSink(w) }
func CollectorSink(add func(Record)) RecordSink      { return pipeline.Collector(add) }

// Durable-state facade: versioned checkpoint snapshots of terminal
// sink state and resume from them (see the package-doc "Checkpoint
// and resume" section).
type (
	// Checkpointer is implemented by terminal sinks that can snapshot
	// their state at a consistent stream-time cut — the built-in
	// detector and IDS sinks.
	Checkpointer = pipeline.Checkpointer
	// ResumedSink is a terminal rebuilt from a checkpoint: the
	// restored Sink plus the Horizon to skip the replayed input to.
	ResumedSink = pipeline.Resumed
)

// ResumeLatest rebuilds a terminal sink from the newest checkpoint in
// dir across shards workers (see ResumedSink.Sink) — the count need
// not match the one the snapshot was taken at — after removing temp
// files a crashed writer stranded there. It returns nil, nil when dir
// holds no checkpoint.
func ResumeLatest(dir string, shards int) (*ResumedSink, error) {
	return pipeline.ResumeLatest(dir, shards)
}

// Wire-layer facade: distributed pipeline endpoints — publishers
// shipping topic-partitioned event envelopes over a broker, and
// subscribers replaying them into a pipeline with byte-identical
// output (see the pipeline package doc's "Wire layer" section). Bus
// is the hermetic in-memory broker: bounded pull-based subscriptions
// with blocking publisher backpressure.
type Bus = bus.Bus

// NewBus returns an empty in-memory broker.
func NewBus() *Bus { return bus.New() }

// FromBus starts a builder consuming the given topics from b, k-way
// merged in timestamp order. List lower-indexed publishers' topics
// first: topic order is the merge tie-break order.
func FromBus(b *Bus, topics ...string) *Builder { return pipeline.FromBus(b, topics...) }

// FromBusContext is FromBus with a context bounding the blocking
// pulls.
func FromBusContext(ctx context.Context, b *Bus, topics ...string) *Builder {
	return pipeline.FromBusContext(ctx, b, topics...)
}

// RecordTopics names all parts partitions of a publisher's stream.
func RecordTopics(stream string, parts int) []string { return events.RecordTopics(stream, parts) }

// CoarsestLevel returns the coarsest (smallest prefix length) of the
// given aggregation levels — the partition level distributed
// publishers and sharded consumers route by.
func CoarsestLevel(levels []AggLevel) AggLevel { return dispatch.CoarsestLevel(levels) }

// LogChunk is one contiguous record-aligned byte span of a binary log.
type LogChunk = firewall.Chunk

// PlanLogChunks splits a binary log of size bytes into at most n
// contiguous record-aligned chunks covering it exactly — the
// splitting step of a distributed replay (one chunk per publisher).
func PlanLogChunks(size int64, n int) []LogChunk { return firewall.PlanChunks(size, n) }

// Simulation facade.
type (
	// ExperimentConfig assembles a CDN experiment (telescope, census,
	// artifacts, detector).
	ExperimentConfig = sim.Config
	// ExperimentResult carries a finished experiment.
	ExperimentResult = sim.Result
	// Telescope is the synthetic CDN vantage point.
	Telescope = telescope.Telescope
	// TelescopeConfig sizes the telescope.
	TelescopeConfig = telescope.Config
	// CensusConfig configures the Table-2 scan-actor population.
	CensusConfig = scanner.CensusConfig
	// MAWISimulator produces daily MAWI capture windows.
	MAWISimulator = mawi.Simulator
	// MAWISimConfig sizes the MAWI simulation.
	MAWISimConfig = mawi.Config
)

// DefaultExperimentConfig returns a full-window, laptop-scale CDN
// experiment.
func DefaultExperimentConfig() ExperimentConfig { return sim.DefaultConfig() }

// RunCDNExperiment executes a CDN experiment end to end.
func RunCDNExperiment(cfg ExperimentConfig) (*ExperimentResult, error) { return sim.Run(cfg) }

// NewMAWISimulator returns a MAWI vantage simulator.
func NewMAWISimulator(cfg MAWISimConfig) *MAWISimulator { return mawi.New(cfg) }

// DefaultMAWISimConfig covers the paper window.
func DefaultMAWISimConfig() MAWISimConfig { return mawi.DefaultConfig() }

// IDS facade: the Discussion-section dynamic-aggregation engine.
type (
	// IDSConfig parameterizes the inline engine.
	IDSConfig = ids.Config
	// IDSEngine is the memory-bounded multi-aggregation detector with
	// blocklist recommendations, inline or across parallel worker
	// shards with alerts byte-identical at any shard count.
	IDSEngine = ids.Engine
)

// NewShardedIDS returns an IDS engine partitioning candidate state by
// coarsest-level source prefix across n parallel worker shards; at
// n ≤ 1 it runs inline on the caller's goroutine.
func NewShardedIDS(cfg IDSConfig, n int) *IDSEngine { return ids.NewSharded(cfg, n) }

// DefaultIDSConfig returns production-oriented IDS defaults.
func DefaultIDSConfig() IDSConfig { return ids.DefaultConfig() }

// Analysis facade: table/figure builders.
type (
	// Table1 is the per-aggregation totals table.
	Table1 = analysis.Table1
	// Table2 is the top source-AS table.
	Table2 = analysis.Table2
	// Table3 is the top targeted-services table.
	Table3 = analysis.Table3
	// Heatmap is the Figure-1 per-/64 histogram.
	Heatmap = analysis.Heatmap
	// HeatmapCollector accumulates Figure-1 input from raw records.
	HeatmapCollector = analysis.HeatmapCollector
	// WeeklySources is Figure 2.
	WeeklySources = analysis.WeeklySources
	// Concentration is Figure 3.
	Concentration = analysis.Concentration
	// PortBreakdown is Figures 4 and 8.
	PortBreakdown = analysis.PortBreakdown
	// DNSReport is the Section-3.3 target-provenance analysis.
	DNSReport = analysis.DNSReport
	// DNSCollector accumulates provenance input from filtered records.
	DNSCollector = analysis.DNSCollector
	// CaseStudy32 is the Section-3.2 /32 aggregation exercise.
	CaseStudy32 = analysis.CaseStudy32
)

// Analysis builders (see internal/analysis for documentation).
var (
	BuildTable1         = analysis.BuildTable1
	BuildTable2         = analysis.BuildTable2
	BuildTable3         = analysis.BuildTable3
	BuildWeeklySources  = analysis.BuildWeeklySources
	BuildConcentration  = analysis.BuildConcentration
	BuildPortBreakdown  = analysis.BuildPortBreakdown
	BuildDurationStats  = analysis.BuildDurationStats
	BuildTwinReport     = analysis.BuildTwinReport
	BuildCaseStudy32    = analysis.BuildCaseStudy32
	NewHeatmapCollector = analysis.NewHeatmapCollector
	NewDNSCollector     = analysis.NewDNSCollector
)

// Serving facade: pipeline observability and the long-running daemon
// runtime behind cmd/v6scand, which follows a growing log. See the
// pipeline package doc's "Serving" section for the tailing and
// backpressure contracts.
type (
	// MetricsRegistry is the dependency-free counter/gauge/histogram
	// registry with Prometheus text exposition.
	MetricsRegistry = metrics.Registry
	// PipelineMetrics is the instrument bundle Builder.Instrument
	// threads through sources, dispatch, and terminals.
	PipelineMetrics = pipeline.Metrics
	// ServeConfig parameterizes the serving daemon.
	ServeConfig = serve.Config
	// ServeDaemon tails a log into the same IDS sink a batch run
	// terminates in, and serves state, alerts (paginated + SSE), and
	// metrics over HTTP.
	ServeDaemon = serve.Daemon
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// RegisterPipelineMetrics registers the pipeline instrument bundle on
// reg; pass the result to Builder.Instrument.
func RegisterPipelineMetrics(reg *MetricsRegistry) *PipelineMetrics {
	return pipeline.RegisterMetrics(reg)
}

// NewServeDaemon validates cfg and returns a daemon ready to Run.
func NewServeDaemon(cfg ServeConfig) (*ServeDaemon, error) { return serve.NewDaemon(cfg) }
