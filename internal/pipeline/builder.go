package pipeline

import (
	"context"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
)

// Builder assembles a pipeline fluently, left to right — the order
// stages are named is the order records traverse them, mirroring the
// paper's fixed processing chain (collection policy → per-day ordering
// → 5-duplicate artifact filter → detection):
//
//	det, err := pipeline.From(src).
//		Policy(firewall.DefaultCollectPolicy()).
//		DaySort().
//		Artifact().
//		Detect(ctx, core.DefaultConfig(), 8)
//
// Builder methods mutate and return the same builder, so conditional
// stages compose naturally (b := From(src); if filter { b.Artifact() }).
// A builder is single-use: exactly one of the terminal calls (Build,
// RunInto, Detect, IDS, MAWI — or Into for a source-less Chain) may be
// made, after which the builder is spent; a second terminal call
// panics.
//
// Records flow batch-to-batch from the source's EmitBatch through
// every stage to the terminal's ConsumeBatch. The terminal helpers own
// the sink lifecycle: they run the pipeline, Flush (finalize) and
// Close (release) the sink even on mid-stream errors, and return the
// sink's typed result.
type Builder struct {
	src    Source
	stages []func(next RecordSink) RecordSink
	// branches collects Tee side sinks so RunInto can extend the
	// terminal lifecycle (Close) to them.
	branches []RecordSink
	// advanceEvery is the stream-time eviction cadence the terminal
	// helpers apply by setting the sink's AdvanceEvery (the unified
	// name on every cadence-capable sink — detector Advance, IDS
	// Tick). Zero leaves eviction to Flush.
	advanceEvery time.Duration
	// ckptEvery/ckptDir is the checkpoint cadence RunInto applies to
	// terminals that can snapshot their state (the detector and IDS
	// sinks, plain and sharded).
	ckptEvery time.Duration
	ckptDir   string
	// met is the metrics bundle Instrument attached: Build mounts a
	// meter stage ahead of every other stage, and RunInto hands the
	// bundle to the terminal sink for cadence/checkpoint timing.
	met   *Metrics
	spent bool
}

// From starts a builder reading from src.
func From(src Source) *Builder { return &Builder{src: src} }

// FromFiles starts a builder ingesting one or more binary firewall
// log files: each file decodes in parallel chunks (see DecodeWorkers)
// and multiple files — day-logs, typically — merge into one
// time-ordered stream. Files are opened when the pipeline runs, so an
// unreadable path surfaces as the run error rather than breaking the
// fluent chain:
//
//	det, err := pipeline.FromFiles("day1.log", "day2.log").
//		DecodeWorkers(8).
//		Artifact().
//		Detect(ctx, core.DefaultConfig(), 8)
func FromFiles(paths ...string) *Builder { return From(NewFilesSource(paths...)) }

// DecodeWorkers sets the decode worker count on sources that shard
// their decode — the FromFiles source, a ParallelLogSource, or a
// MergeSource over them (which forwards the setting to its inputs).
// Non-positive (and the default) means one worker per CPU; sources
// without a parallel decode ignore the option.
func (b *Builder) DecodeWorkers(n int) *Builder {
	if s, ok := b.src.(interface{ SetDecodeWorkers(int) }); ok {
		s.SetDecodeWorkers(n)
	}
	return b
}

// Chain starts a source-less builder: a stage chain terminated with
// Into, for composing the sink side of a pipeline (simulation taps,
// Tee branches) with the same left-to-right syntax.
func Chain() *Builder { return &Builder{} }

func (b *Builder) stage(f func(next RecordSink) RecordSink) *Builder {
	b.stages = append(b.stages, f)
	return b
}

// Policy appends a collection-policy filter stage (the CDN's
// no-TCP/80, no-TCP/443, no-ICMPv6 rule).
func (b *Builder) Policy(p firewall.CollectPolicy) *Builder {
	return b.stage(func(next RecordSink) RecordSink { return Policy(p, next) })
}

// Filter appends a predicate filter stage.
func (b *Builder) Filter(pred func(r firewall.Record) bool) *Builder {
	return b.stage(func(next RecordSink) RecordSink { return Filter(pred, next) })
}

// Tap appends an observer stage invoking fn on every record.
func (b *Builder) Tap(fn func(r firewall.Record)) *Builder {
	return b.stage(func(next RecordSink) RecordSink { return Tap(fn, next) })
}

// Counter appends a counting stage and stores it in *out at build
// time, so the caller can read Count after the run:
//
//	var logged *pipeline.Counter
//	b.Counter(&logged)
func (b *Builder) Counter(out **Counter) *Builder {
	return b.stage(func(next RecordSink) RecordSink {
		c := NewCounter(next)
		*out = c
		return c
	})
}

// DaySort appends a per-UTC-day buffering sort stage.
func (b *Builder) DaySort() *Builder {
	return b.stage(func(next RecordSink) RecordSink { return NewDaySort(next) })
}

// WindowSort appends a bounded-lateness streaming reorder stage: a
// record is released, in stable timestamp order, once the stream has
// advanced window past it. The memory-bounded replacement for DaySort
// on near-sorted sources — whenever the input's disorder stays within
// the window, the emitted stream equals a full stable sort. Records
// later than the window abort the run with a *ErrLateRecord.
func (b *Builder) WindowSort(window time.Duration) *Builder {
	return b.stage(func(next RecordSink) RecordSink { return NewWindowSort(window, next) })
}

// WindowSortSpill appends a WindowSort stage with the spill-to-disk
// path enabled: disorder beyond the window switches the stage to
// buffering sorted runs in dir (the OS temp dir when empty) instead of
// aborting, and Flush merges them back into one stable
// timestamp-ordered stream. Output is identical to a full stable sort
// of the input regardless of how far the disorder exceeds the window.
func (b *Builder) WindowSortSpill(window time.Duration, dir string) *Builder {
	return b.stage(func(next RecordSink) RecordSink {
		w := NewWindowSort(window, next)
		w.EnableSpill(dir, 0)
		return w
	})
}

// AdvanceEvery sets the stream-time eviction cadence RunInto — and so
// every terminal helper — applies to a cadence-capable terminal sink:
// the detector sinks forward Detector.Advance (scan output is
// unchanged — only peak memory is bounded), the IDS sinks forward
// Engine.Tick (the inline deployment's timer, which does determine
// when idle candidates close). On the sharded terminals the horizon
// travels to every shard through the dispatcher's marks, ordered with
// the record stream, so output stays byte-identical at any shard
// count. Zero (the default) leaves all eviction to Flush and never
// touches the sink, so a cadence configured on the sink directly is
// preserved; a non-zero builder cadence wins over one set on the
// sink. Terminals without an eviction cadence ignore it — MAWI
// detectors are bounded by construction (one capture window), and
// arbitrary RunInto sinks opt in by implementing
// setCadence(time.Duration) (all built-in detector/IDS sinks do).
func (b *Builder) AdvanceEvery(every time.Duration) *Builder {
	b.advanceEvery = every
	return b
}

// CheckpointEvery sets a stream-time checkpoint cadence on the
// terminal: RunInto's sink snapshots its state into dir (one file per
// cut, atomically renamed into place; see LatestCheckpoint and
// Resume). Every snapshot is a consistent prefix of the stream — all
// records strictly before the cut applied, none at or after it. When
// an AdvanceEvery cadence is configured, checkpoints ride it: the
// snapshot is cut at the first eviction fire at least every past the
// previous snapshot, right after the advance/tick runs, which keeps
// the eviction schedule untouched by checkpointing and lets a
// resumed run pick the schedule up exactly in phase. Without
// AdvanceEvery the checkpoint cadence fires on its own. Terminals
// that cannot snapshot (MAWI, arbitrary sinks) ignore the cadence;
// the built-in detector and IDS sinks opt in by implementing
// setCheckpoint(time.Duration, string). A zero every with a dir cuts
// no periodic checkpoints but gives a hooked IDS sink (see IDSHook)
// the directory for its final cut.
func (b *Builder) CheckpointEvery(every time.Duration, dir string) *Builder {
	b.ckptEvery = every
	b.ckptDir = dir
	return b
}

// Instrument attaches a metrics bundle (RegisterMetrics) to the
// pipeline: a batch-native meter stage mounted ahead of every other
// stage counts raw source output (records, batches, occupancy), and
// the terminal sink — any of the four built-ins — reports eviction
// fires and checkpoint outcomes into the same bundle. Instrumentation
// is allocation-free per record, so an instrumented pipeline's
// allocs/op match the uninstrumented one (BenchmarkMetricsHotPath).
func (b *Builder) Instrument(m *Metrics) *Builder {
	b.met = m
	return b
}

// ResumeFrom appends a filter dropping every record at or before
// horizon — the replay-skip half of checkpoint resume. Feed the same
// input the interrupted run saw, restore its sink (Resume), and the
// combination reconstructs the uninterrupted run byte-exactly:
//
//	res, _ := pipeline.ResumeFile(path, shards)
//	err := pipeline.FromFiles(logs...).
//		ResumeFrom(res.Horizon).
//		RunInto(ctx, res.Sink)
//
// Place it where the terminal's view is cut — after any reordering
// stage (DaySort, WindowSort), so the skip applies to the ordered
// stream the snapshot was cut from, not the raw arrival order.
func (b *Builder) ResumeFrom(horizon time.Time) *Builder {
	return b.Filter(func(r firewall.Record) bool { return r.Time.After(horizon) })
}

// Artifact appends the 5-duplicate artifact pre-filter. With no
// argument a fresh filter with the paper's parameters is created at
// build time; pass your own (at most one) to configure it or to read
// its Stats after the run.
func (b *Builder) Artifact(filter ...*firewall.ArtifactFilter) *Builder {
	return b.stage(func(next RecordSink) RecordSink {
		f := firewall.NewArtifactFilter()
		if len(filter) > 0 {
			f = filter[0]
		}
		return NewArtifactStage(f, next)
	})
}

// Tee appends a fan-out stage: every branch sees each record (side
// branches first, in argument order), and the stream continues down
// the main chain. Branches are flushed when the pipeline flushes, and
// RunInto closes branches implementing Sink along with the terminal.
// Every branch but the main chain receives a copy of each batch, so a
// compacting branch cannot corrupt its siblings' view.
func (b *Builder) Tee(branches ...RecordSink) *Builder {
	b.branches = append(b.branches, branches...)
	return b.stage(func(next RecordSink) RecordSink {
		sinks := make([]RecordSink, 0, len(branches)+1)
		sinks = append(sinks, branches...)
		sinks = append(sinks, next)
		return &teeStage{sinks: sinks}
	})
}

// mark enforces single use: stage factories hold out-pointers and
// build-time state (the Artifact filter), so folding them twice would
// silently share state between runs.
func (b *Builder) mark() {
	if b.spent {
		panic("pipeline: builder reused after Build/Into/RunInto (builders are single-use)")
	}
	b.spent = true
}

// Into folds the stages around sink and returns the head of the
// resulting chain — the terminal for source-less Chain builders.
func (b *Builder) Into(sink RecordSink) RecordSink {
	b.mark()
	head := sink
	for i := len(b.stages) - 1; i >= 0; i-- {
		head = b.stages[i](head)
	}
	return head
}

// Build folds the stages around sink and couples the source to the
// chain.
func (b *Builder) Build(sink RecordSink) *Pipeline {
	if b.src == nil {
		panic("pipeline: Build on a source-less Chain builder (use Into)")
	}
	head := b.Into(sink)
	if b.met != nil {
		head = &meterStage{m: b.met, next: head}
	}
	return New(b.src, head)
}

// RunInto builds the pipeline into sink and runs it under ctx, owning
// the sink lifecycle: the chain is flushed even on a mid-stream error,
// and afterwards the terminal — and every Tee branch sink — that
// implements Sink is closed. The run error wins over any teardown
// error; otherwise the first teardown error is returned.
func (b *Builder) RunInto(ctx context.Context, sink RecordSink) error {
	if b.advanceEvery > 0 {
		if cs, ok := sink.(interface{ setCadence(time.Duration) }); ok {
			cs.setCadence(b.advanceEvery)
		}
	}
	if b.ckptDir != "" {
		if cs, ok := sink.(interface{ setCheckpoint(time.Duration, string) }); ok {
			cs.setCheckpoint(b.ckptEvery, b.ckptDir)
		}
	}
	if b.met != nil {
		if ms, ok := sink.(interface{ setMetrics(*Metrics) }); ok {
			ms.setMetrics(b.met)
		}
	}
	branches := b.branches
	err := b.Build(sink).RunContext(ctx)
	for _, s := range append([]RecordSink{sink}, branches...) {
		if c, ok := s.(Sink); ok {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Detect terminates the pipeline in the multi-aggregation scan
// detector — sharded across shards worker goroutines when shards > 1,
// plain otherwise — runs it, and returns the finished detector (for
// the sharded path, the deterministically merged view; output is
// identical at any shard count).
func (b *Builder) Detect(ctx context.Context, cfg core.Config, shards int) (*core.Detector, error) {
	if shards > 1 {
		sink := NewShardedSink(core.NewShardedDetector(cfg, shards))
		if err := b.RunInto(ctx, sink); err != nil {
			return nil, err
		}
		return sink.Result(), nil
	}
	sink := NewDetectorSink(core.NewDetector(cfg))
	if err := b.RunInto(ctx, sink); err != nil {
		return nil, err
	}
	return sink.Result(), nil
}

// IDS terminates the pipeline in the dynamic-aggregation IDS engine —
// sharded when shards > 1 — runs it, and returns the accumulated
// alerts (byte-identical at any shard count). AdvanceEvery sets the
// inline Tick cadence; for engine introspection (dropped-candidate
// counts, memory estimates), construct an IDSSink / ShardedIDSSink
// directly and use RunInto.
func (b *Builder) IDS(ctx context.Context, cfg ids.Config, shards int) ([]ids.Alert, error) {
	if shards > 1 {
		sink := NewShardedIDSSink(ids.NewSharded(cfg, shards))
		if err := b.RunInto(ctx, sink); err != nil {
			return nil, err
		}
		return sink.Result(), nil
	}
	sink := NewIDSSink(ids.New(cfg))
	if err := b.RunInto(ctx, sink); err != nil {
		return nil, err
	}
	return sink.Result(), nil
}

// MAWI terminates the pipeline in a capture-window MAWI detector
// (extended Fukuda–Heidemann definition), runs it, and returns the
// window's scans.
func (b *Builder) MAWI(ctx context.Context, cfg core.MAWIConfig) ([]core.MAWIScan, error) {
	sink := NewMAWISink(core.NewMAWIDetector(cfg))
	if err := b.RunInto(ctx, sink); err != nil {
		return nil, err
	}
	return sink.Result(), nil
}
