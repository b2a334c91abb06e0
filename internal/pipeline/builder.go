package pipeline

import (
	"context"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
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
// A builder is single-use: exactly one of the terminal calls (RunInto,
// Detect — or Into for a source-less Chain) may be made, after which
// the builder is spent; a second terminal call panics.
//
// Records flow batch-to-batch from the source's EmitBatch through
// every stage to the terminal's ConsumeBatch. RunInto — and Detect,
// which calls it — is the one way to run a pipeline: it owns the
// sink lifecycle and flushes the chain, even on a mid-stream error.
type Builder struct {
	src    Source
	stages []func(next RecordSink) RecordSink
	// advanceEvery is the stream-time eviction cadence RunInto gives
	// a cadence-capable sink (detector Advance, IDS Tick). Zero leaves
	// eviction to Flush.
	advanceEvery time.Duration
	// ckptEvery/ckptDir is the checkpoint cadence RunInto applies to
	// terminals that can snapshot their state (the detector and IDS
	// sinks).
	ckptEvery time.Duration
	ckptDir   string
	// met is the metrics bundle Instrument attached: RunInto mounts a
	// meter stage ahead of every other stage and hands the bundle to
	// the terminal sink for cadence/checkpoint timing.
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

// DecodeWorkers sets the total decode worker budget of a FromFiles
// source (a FilesSource), divided across its files. Non-positive (and
// the default) means one worker per CPU. Other sources ignore the
// option: a ParallelLogSource takes its worker count at construction.
func (b *Builder) DecodeWorkers(n int) *Builder {
	if s, ok := b.src.(*FilesSource); ok {
		s.workers = n
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

// AdvanceEvery sets the stream-time eviction cadence RunInto — and so
// Detect — applies to a cadence-capable terminal sink:
// the detector sink forwards ShardedDetector.Advance (scan output is
// unchanged — only peak memory is bounded), the IDS sink forwards
// Engine.Tick (the inline deployment's timer, which does determine
// when idle candidates close). Across worker shards the horizon
// travels to every shard through the dispatcher's marks, ordered with
// the record stream, so output stays byte-identical at any shard
// count. Zero (the default) leaves all eviction to Flush, unless a
// CheckpointEvery cadence is set, which then is the eviction cadence
// too. The builder is the one place a sink's cadence is set: RunInto
// applies it to the built-in detector and IDS sinks; other terminals
// ignore it.
func (b *Builder) AdvanceEvery(every time.Duration) *Builder {
	b.advanceEvery = every
	return b
}

// CheckpointEvery sets a stream-time checkpoint cadence on the
// terminal: RunInto's sink snapshots its state into dir (one file per
// cut, atomically renamed into place; see ResumeLatest and
// ResumeFile). Every snapshot is a consistent prefix of the stream — all
// records strictly before the cut applied, none at or after it.
// Checkpoints ride the AdvanceEvery cadence: the snapshot is cut at
// the first eviction fire at least every past the previous snapshot,
// right after the advance/tick runs, so it holds no state eviction
// has released, the eviction schedule is untouched by checkpointing, and
// a resumed run picks the schedule up exactly in phase. Without
// AdvanceEvery, every is the eviction cadence as well (an IDS then
// ticks at every); the first fire arms the checkpoint mark, so the
// first snapshot comes one cadence after the first record's. Only the
// built-in detector and IDS sinks can snapshot; other terminals
// ignore the cadence. A zero every with a dir cuts no periodic
// checkpoints but gives a hooked IDS sink (see IDSHook) the directory
// for its final cut.
func (b *Builder) CheckpointEvery(every time.Duration, dir string) *Builder {
	b.ckptEvery = every
	b.ckptDir = dir
	return b
}

// Instrument attaches a metrics bundle (RegisterMetrics) to the
// pipeline: a batch-native meter stage mounted ahead of every other
// stage counts raw source output (records, batches, occupancy), and
// the terminal sink — the detector or IDS sink — reports eviction
// fires and checkpoint outcomes into the same bundle. Instrumentation
// is allocation-free per record, so an instrumented pipeline's
// allocs/op match the uninstrumented one (BenchmarkMetricsHotPath).
func (b *Builder) Instrument(m *Metrics) *Builder {
	b.met = m
	return b
}

// ResumeFrom appends a filter dropping every record at or before
// horizon — the replay-skip half of checkpoint resume. Feed the same
// input the interrupted run saw, restore its sink (ResumeFile), and the
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
// the main chain. Branches are flushed when the pipeline flushes —
// exactly once, even when a stage upstream fails its drain. Every
// branch but the main chain receives a copy of each batch, so a
// compacting branch cannot corrupt its siblings' view.
func (b *Builder) Tee(branches ...RecordSink) *Builder {
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
		panic("pipeline: builder reused after Into/RunInto (builders are single-use)")
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

// RunInto builds the pipeline into sink and runs it under ctx: the
// source's batches flow through every stage to sink, the first error
// — from the source, a stage, the sink, or ctx being cancelled
// (checked per batch) — aborts the stream, and the chain is flushed
// either way, so the terminal and every Tee branch finalize and
// release their resources exactly once. The run error wins over the
// flush error. A detector or IDS terminal first takes the builder's
// AdvanceEvery, CheckpointEvery and Instrument settings, zero values
// included.
func (b *Builder) RunInto(ctx context.Context, sink RecordSink) error {
	if b.src == nil {
		panic("pipeline: RunInto on a source-less Chain builder (use Into)")
	}
	if c, ok := sink.(interface {
		setCadence(time.Duration, time.Duration, string, *Metrics)
	}); ok {
		c.setCadence(b.advanceEvery, b.ckptEvery, b.ckptDir, b.met)
	}
	head := b.Into(sink)
	if b.met != nil {
		head = &meterStage{m: b.met, next: head}
	}
	emit := head.ConsumeBatch
	if ctx.Done() != nil {
		emit = func(recs []firewall.Record) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return head.ConsumeBatch(recs)
		}
	}
	err := b.src.EmitBatch(DefaultBatchSize, emit)
	if ferr := head.Flush(); err == nil {
		err = ferr
	}
	return err
}

// Detect terminates the pipeline in the multi-aggregation scan
// detector, run on a ShardedSink across shards worker goroutines (one
// worker when shards ≤ 1), and returns the deterministically merged
// detector. Output is identical at any shard count. Like RunInto, it
// flushes the sink — stopping its workers — whether or not the run
// fails.
func (b *Builder) Detect(ctx context.Context, cfg core.Config, shards int) (*core.Detector, error) {
	sink := NewShardedSink(core.NewShardedDetector(cfg, shards))
	if err := b.RunInto(ctx, sink); err != nil {
		return nil, err
	}
	return sink.Result(), nil
}
