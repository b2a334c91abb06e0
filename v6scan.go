// Package v6scan is a library for detecting and characterizing
// large-scale IPv6 scanning, reproducing the methodology of Richter,
// Gasser & Berger, "Illuminating Large-Scale IPv6 Scanning in the
// Internet" (IMC 2022).
//
// The package is a facade over the internal subsystems:
//
//   - the streaming pipeline that every consumer plugs into — sources
//     (record slices, binary logs, pcap captures), stages (collection
//     policy, day sorter, artifact filter, taps, tees) and terminal
//     sinks, all behind one RecordSink interface, assembled left to
//     right with the fluent builder: From / Chain and the
//     New*Source / New*Sink constructors;
//   - scan detection with multi-level source aggregation (the paper's
//     central methodological contribution): NewDetector / Detector,
//     and the parallel sharded variant NewShardedDetector whose output
//     is byte-identical at any shard count;
//   - the MAWI-style detector (extended Fukuda–Heidemann definition):
//     NewMAWIDetector;
//   - the CDN firewall-log record schema, binary codec, collection
//     policy and 5-duplicate artifact filter: Record, ReadLog,
//     WriteLog, NewArtifactFilter;
//   - packet decoding and classic pcap I/O for feeding captures into
//     detection: RecordsFromPcap / NewPcapSource;
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
// accumulating until the end of input. AdvanceEvery is the one
// cadence name across all terminals. Arbitrary terminals plug in
// through RunInto, which owns the sink lifecycle (Flush to finalize,
// Close to release, typed Result accessors):
//
//	sink := v6scan.NewShardedIDSSink(v6scan.NewShardedIDS(cfg, 8))
//	sink.AdvanceEvery = time.Minute
//	err := v6scan.From(src).Artifact().RunInto(ctx, sink)
//	alerts := sink.Result()
//
// # Checkpoint and resume
//
// Long runs survive interruption through versioned snapshots of the
// terminal's state, cut at consistent stream-time points riding the
// AdvanceEvery cadence. Enable them with CheckpointEvery; resume by
// restoring the latest snapshot and replaying the same input with the
// already-processed prefix skipped:
//
//	// Checkpointed run: a snapshot every 6h of stream time.
//	det, err := v6scan.FromFiles(logs...).
//	    Artifact().
//	    AdvanceEvery(time.Hour).
//	    CheckpointEvery(6*time.Hour, ckptDir).
//	    Detect(ctx, cfg, 8)
//
//	// After a crash: restore the sink and skip the replayed prefix.
//	path, _ := v6scan.LatestCheckpoint(ckptDir)
//	res, err := v6scan.ResumeCheckpoint(path, 8)
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
// Finish / Scans) remains fully supported for single-goroutine use.
package v6scan

import (
	"context"
	"io"
	"time"

	"v6scan/internal/analysis"
	"v6scan/internal/artifacts"
	"v6scan/internal/asdb"
	"v6scan/internal/bus"
	"v6scan/internal/checkpoint"
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

// ClassifyPorts applies the Appendix A.3 f-rule to a per-service
// packet histogram.
func ClassifyPorts(ports map[Service]uint64) PortClass { return core.ClassifyPorts(ports) }

// Aggregate masks an address to an aggregation level.
var Aggregate = netaddr6.Aggregate

// LogReader streams records from a binary log.
type LogReader = firewall.Reader

// LogWriter streams records to a binary log.
type LogWriter = firewall.Writer

// ReadLog returns a record reader over a binary log stream.
func ReadLog(r io.Reader) *LogReader { return firewall.NewReader(r) }

// WriteLog returns a record writer producing the binary log format.
func WriteLog(w io.Writer) *LogWriter { return firewall.NewWriter(w) }

// RecordsFromPcap decodes a classic pcap stream (Ethernet or raw IPv6
// link types) into records, skipping undecodable packets. The second
// return value reports how many packets were skipped. Decoding rides
// the chunked EmitBatch path (one append per chunk instead of one
// callback per record); streaming consumers can use NewPcapSource
// directly instead of materializing the slice.
func RecordsFromPcap(r io.Reader) ([]Record, int, error) {
	src := pipeline.NewPcapSource(r)
	var out []Record
	err := src.EmitBatch(pipeline.DefaultBatchSize, func(recs []Record) error {
		out = append(out, recs...)
		return nil
	})
	return out, src.Skipped(), err
}

// SortRecordsByTime stably sorts records by timestamp in place,
// run-aware: already-ordered input (the normal case for captures and
// logs) is detected in one linear scan and costs no sort work, and
// mostly-ordered input pays only bounded merges of its disordered
// runs. Use it over sort.SliceStable wherever defensive re-sorting of
// probably-sorted record slices is needed (cmd/v6scan's pcap path
// does).
func SortRecordsByTime(recs []Record) { pipeline.SortByTime(recs) }

// Pipeline types: the composable streaming architecture every record
// consumer plugs into (see internal/pipeline).
type (
	// Builder assembles a pipeline fluently, left to right; see From
	// and Chain.
	Builder = pipeline.Builder
	// Pipeline couples a record source to a sink chain.
	Pipeline = pipeline.Pipeline
	// RecordSink is the one interface every stage and terminal
	// consumer implements.
	RecordSink = pipeline.RecordSink
	// TerminalSink is the unified terminal lifecycle every built-in
	// sink implements: Flush finalizes exactly once, Close releases
	// idempotently, typed Result accessors read the outcome.
	TerminalSink = pipeline.Sink
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
	// ParallelLogSource decodes a binary firewall log in parallel
	// record-aligned chunks, reassembled in file order — output is
	// byte-identical to LogSource at any worker count.
	ParallelLogSource = pipeline.ParallelLogSource
	// MergeSource k-way merges time-ordered sources (one per day-file)
	// into one time-ordered stream.
	MergeSource = pipeline.MergeSource
	// FilesSource ingests one or more binary log files with parallel
	// decode, merged in timestamp order; see FromFiles.
	FilesSource = pipeline.FilesSource
	// PcapSource streams decoded IPv6 frames from a classic pcap
	// capture.
	PcapSource = pipeline.PcapSource
	// PipelineCounter counts records passing through a chain.
	PipelineCounter = pipeline.Counter
	// DaySortStage buffers and sorts each UTC day of a per-actor
	// ordered stream.
	DaySortStage = pipeline.DaySort
	// WindowSortStage is the bounded-lateness streaming reorder
	// buffer: stable time order restored within a configurable skew
	// window, memory bounded by the window instead of the day.
	WindowSortStage = pipeline.WindowSort
	// ErrLateRecord reports a record trailing the stream beyond the
	// WindowSort window (and, with spill enabled, behind the emitted
	// prefix), carrying the record time and the violated horizon.
	ErrLateRecord = pipeline.ErrLateRecord
	// ArtifactStage runs the 5-duplicate pre-filter as a stage.
	ArtifactStage = pipeline.ArtifactStage
	// DetectorSink terminates a pipeline in the scan detector.
	DetectorSink = pipeline.DetectorSink
	// ShardedSink terminates a pipeline in the sharded detector.
	ShardedSink = pipeline.ShardedSink
	// MAWISink terminates a pipeline in a MAWI capture-window detector.
	MAWISink = pipeline.MAWISink
	// IDSSink terminates a pipeline in the dynamic-aggregation engine.
	IDSSink = pipeline.IDSSink
	// ShardedIDSSink terminates a pipeline in the sharded IDS engine.
	ShardedIDSSink = pipeline.ShardedIDSSink
	// LogSink writes the stream to a binary firewall log.
	LogSink = pipeline.LogSink
	// ShardedDetector runs multi-level detection across parallel
	// worker shards with byte-identical output at any shard count.
	ShardedDetector = core.ShardedDetector
)

// From starts a fluent pipeline builder reading from src — the
// entry point of the public pipeline API. Stages are appended left to
// right (Policy, DaySort, Artifact, Tap, Filter, Counter, Tee) and the
// chain is terminated by RunInto or one of the typed terminal helpers
// (Detect, IDS, MAWI).
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

// NewParallelLogSource returns a source decoding the byte range
// [0, size) of r across workers decode goroutines (non-positive means
// one per CPU); records come out in file order, byte-identical to the
// serial LogSource. FromFiles wires this up from paths directly.
func NewParallelLogSource(r io.ReaderAt, size int64, workers int) *ParallelLogSource {
	return pipeline.NewParallelLogSource(r, size, workers)
}

// NewMergeSource returns a source k-way merging time-ordered sources
// into one time-ordered stream; ties break toward the earlier source,
// so chronologically split day-files merge back to their
// concatenation.
func NewMergeSource(srcs ...RecordSource) *MergeSource { return pipeline.NewMergeSource(srcs...) }

// NewFilesSource returns the lazy multi-file log source FromFiles
// builds on.
func NewFilesSource(paths ...string) *FilesSource { return pipeline.NewFilesSource(paths...) }

// NewWindowSortStage returns the bounded-lateness streaming reorder
// stage outside a builder chain; prefer From(...).WindowSort(window)
// or Chain().WindowSort(window).Into(next). Call EnableSpill on the
// stage (or use the builder's WindowSortSpill) to absorb
// beyond-window disorder through sorted on-disk runs instead of
// aborting with *ErrLateRecord.
func NewWindowSortStage(window time.Duration, next RecordSink) *WindowSortStage {
	return pipeline.NewWindowSort(window, next)
}

// Pipeline sink constructors.
func NewDetectorSink(d *Detector) *DetectorSink      { return pipeline.NewDetectorSink(d) }
func NewShardedSink(d *ShardedDetector) *ShardedSink { return pipeline.NewShardedSink(d) }
func NewMAWISink(d *MAWIDetector) *MAWISink          { return pipeline.NewMAWISink(d) }
func NewIDSSink(e *IDSEngine) *IDSSink               { return pipeline.NewIDSSink(e) }
func NewShardedIDSSink(e *ShardedIDSEngine) *ShardedIDSSink {
	return pipeline.NewShardedIDSSink(e)
}
func NewLogSink(w *LogWriter) *LogSink          { return pipeline.NewLogSink(w) }
func CollectorSink(add func(Record)) RecordSink { return pipeline.Collector(add) }

// DiscardSink drops every record; useful as a tee-branch terminator.
var DiscardSink = pipeline.Discard

// Durable-state facade: versioned checkpoint snapshots of terminal
// sink state and resume from them (see the package-doc "Checkpoint
// and resume" section).
type (
	// Checkpointer is implemented by terminal sinks that can snapshot
	// their state at a consistent stream-time cut — all built-in
	// detector and IDS sinks, plain and sharded.
	Checkpointer = pipeline.Checkpointer
	// ResumedSink is a terminal rebuilt from a checkpoint: the
	// restored Sink plus the Horizon to skip the replayed input to.
	ResumedSink = pipeline.Resumed
)

// Snapshot kinds reported in ResumedSink.Kind.
const (
	CheckpointKindDetector = checkpoint.KindDetector
	CheckpointKindIDS      = checkpoint.KindIDS
)

// LatestCheckpoint returns the newest checkpoint file in dir, or ""
// when there is none.
func LatestCheckpoint(dir string) (string, error) { return pipeline.LatestCheckpoint(dir) }

// ResumeCheckpoint rebuilds a terminal sink from a checkpoint file,
// sharded across shards workers when shards > 1 — the count need not
// match the one the snapshot was taken at.
func ResumeCheckpoint(path string, shards int) (*ResumedSink, error) {
	return pipeline.ResumeFile(path, shards)
}

// WriteCheckpoint snapshots a checkpoint-capable sink into dir at the
// stream-time cut mark, atomically. Builder.CheckpointEvery does this
// on a cadence; WriteCheckpoint is the manual escape hatch for
// callers driving a sink directly.
func WriteCheckpoint(dir string, ck Checkpointer, mark time.Time) error {
	return pipeline.WriteCheckpoint(dir, ck, mark)
}

// SweepCheckpointTemps removes temp files stranded in a checkpoint
// directory by a crashed writer. Call it before resuming from dir.
func SweepCheckpointTemps(dir string) (int, error) {
	return pipeline.SweepCheckpointTemps(dir)
}

// Wire-layer facade: distributed pipeline endpoints — publishers
// shipping topic-partitioned event envelopes over a broker, and
// subscribers replaying them into a pipeline with byte-identical
// output (see the pipeline package doc's "Wire layer" section).
type (
	// Bus is the hermetic in-memory broker: bounded pull-based
	// subscriptions with blocking publisher backpressure.
	Bus = bus.Bus
	// BusSubscription is one bounded pull endpoint on a Bus.
	BusSubscription = bus.Subscription
	// BusMsg is one delivered broker message.
	BusMsg = bus.Msg
	// BusStats is a point-in-time copy of a Bus's counters.
	BusStats = bus.Stats
	// EventEnvelope is the versioned wire envelope framing a run of
	// records (or alerts) for one topic.
	EventEnvelope = events.Envelope
	// PublishSinkT is the terminal sink publishing a pipeline's record
	// stream onto a Bus, partitioned across topics by coarsest-level
	// source prefix.
	PublishSinkT = pipeline.PublishSink
	// SubscribeSourceT replays one topic's envelopes into a pipeline.
	SubscribeSourceT = pipeline.SubscribeSource
)

// Envelope kinds carried in EventEnvelope.Kind.
const (
	EventKindRecords = events.KindRecords
	EventKindAlerts  = events.KindAlerts
	EventKindEOS     = events.KindEOS
)

// NewBus returns an empty in-memory broker.
func NewBus() *Bus { return bus.New() }

// NewPublishSink returns a terminal sink publishing onto b across
// topics, partitioned by the source prefix at level (normally
// CoarsestLevel of the detector/IDS aggregation levels).
func NewPublishSink(ctx context.Context, b *Bus, level AggLevel, topics ...string) *PublishSinkT {
	return pipeline.NewPublishSink(ctx, b, level, topics...)
}

// NewSubscribeSource subscribes to topic on b and returns a source
// replaying its envelopes.
func NewSubscribeSource(ctx context.Context, b *Bus, topic string) *SubscribeSourceT {
	return pipeline.NewSubscribeSource(ctx, b, topic)
}

// FromBus starts a builder consuming the given topics from b, k-way
// merged in timestamp order. List lower-indexed publishers' topics
// first: topic order is the merge tie-break order.
func FromBus(b *Bus, topics ...string) *Builder { return pipeline.FromBus(b, topics...) }

// FromBusContext is FromBus with a context bounding the blocking
// pulls.
func FromBusContext(ctx context.Context, b *Bus, topics ...string) *Builder {
	return pipeline.FromBusContext(ctx, b, topics...)
}

// RecordTopic names one record-stream partition of a publisher's
// stream; RecordTopics names all parts of them, in partition order.
func RecordTopic(stream string, part int) string { return events.RecordTopic(stream, part) }

// RecordTopics names all parts partitions of a publisher's stream.
func RecordTopics(stream string, parts int) []string { return events.RecordTopics(stream, parts) }

// AlertTopic names the finished-alert topic of a stream.
func AlertTopic(stream string) string { return events.AlertTopic(stream) }

// CoarsestLevel returns the coarsest (smallest prefix length) of the
// given aggregation levels — the partition level distributed
// publishers and sharded consumers route by.
func CoarsestLevel(levels []AggLevel) AggLevel { return dispatch.CoarsestLevel(levels) }

// RecordWireSize is the fixed on-disk size of one binary log record —
// the alignment unit for splitting a log at record boundaries.
const RecordWireSize = firewall.RecordWireSize

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
	// ArtifactsConfig sizes the background-artifact population.
	ArtifactsConfig = artifacts.Config
	// MAWISimulator produces daily MAWI capture windows.
	MAWISimulator = mawi.Simulator
	// MAWISimConfig sizes the MAWI simulation.
	MAWISimConfig = mawi.Config
	// ASDB is the AS registry used for source attribution.
	ASDB = asdb.DB
	// AS describes an autonomous system.
	AS = asdb.AS
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
	// blocklist recommendations.
	IDSEngine = ids.Engine
	// ShardedIDSEngine runs the IDS across parallel worker shards with
	// alerts byte-identical to a single engine's at any shard count.
	ShardedIDSEngine = ids.ShardedEngine
	// IDSAlert is one detected entity with its recommended blocklist
	// prefix.
	IDSAlert = ids.Alert
)

// NewIDS returns a dynamic-aggregation IDS engine.
func NewIDS(cfg IDSConfig) *IDSEngine { return ids.New(cfg) }

// NewShardedIDS returns an IDS engine partitioning candidate state by
// coarsest-level source prefix across n parallel worker shards.
func NewShardedIDS(cfg IDSConfig, n int) *ShardedIDSEngine { return ids.NewSharded(cfg, n) }

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

// Serving facade: follow-mode ingestion, pipeline observability, and
// the long-running daemon runtime behind cmd/v6scand. See the
// pipeline package doc's "Serving" section for the tailing and
// backpressure contracts.
type (
	// TailSource is a follow-mode Source that reads a growing binary
	// firewall log, surviving partial trailing records, rotation, and
	// truncation. Single-use; drains pending bytes on cancellation.
	TailSource = pipeline.TailSource
	// TailConfig tunes a TailSource (poll interval, chunking,
	// parallel decode).
	TailConfig = pipeline.TailConfig
	// TailStats is a TailSource progress snapshot (offset, rotations,
	// truncations observed).
	TailStats = pipeline.TailStats
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
	// ServeState is the read-side serving snapshot (/api/state).
	ServeState = serve.State
)

// DefaultTailPoll is the TailSource growth-poll interval when
// TailConfig.Poll is zero.
const DefaultTailPoll = pipeline.DefaultTailPoll

// NewTailSource returns a follow-mode source for path; the file need
// not exist yet.
func NewTailSource(path string, cfg TailConfig) *TailSource {
	return pipeline.NewTailSource(path, cfg)
}

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// RegisterPipelineMetrics registers the pipeline instrument bundle on
// reg; pass the result to Builder.Instrument.
func RegisterPipelineMetrics(reg *MetricsRegistry) *PipelineMetrics {
	return pipeline.RegisterMetrics(reg)
}

// NewServeDaemon validates cfg and returns a daemon ready to Run.
func NewServeDaemon(cfg ServeConfig) (*ServeDaemon, error) { return serve.NewDaemon(cfg) }
