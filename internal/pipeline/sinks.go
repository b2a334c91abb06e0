package pipeline

import (
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
)

// Flush is the one way to end every built-in terminal sink: it
// finalizes results exactly once (repeat calls are no-ops) and
// releases held resources (worker goroutines, buffered writers), so
// the builder's RunInto ends any terminal uniformly, even after a
// mid-stream error, and a restored sink that is never run is released
// the same way. Results are read through each sink's typed Result
// accessor, valid after Flush.

// SinkFunc adapts a record function to RecordSink: ConsumeBatch calls
// it on every record of the batch in order; Flush is a no-op.
type SinkFunc func(r firewall.Record) error

// ConsumeBatch implements RecordSink.
func (f SinkFunc) ConsumeBatch(recs []firewall.Record) error {
	for i := range recs {
		if err := f(recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements RecordSink.
func (f SinkFunc) Flush() error { return nil }

// Collector adapts an error-free accumulator (the analysis package's
// HeatmapCollector.Add, DNSCollector.Add, …) to RecordSink.
func Collector(add func(r firewall.Record)) RecordSink {
	return SinkFunc(func(r firewall.Record) error {
		add(r)
		return nil
	})
}

// ShardedSink terminates a pipeline in the multi-aggregation scan
// detector, run on the sharded detector's worker goroutines (one per
// shard; the output is the same at any shard count). Flush calls
// Finish, which merges the shards and surfaces any worker error.
//
// Builder.AdvanceEvery, when positive, forwards a stream-time
// eviction horizon on a cadence checked per record, so sessions idle
// past the timeout close mid-stream and the working set stays
// proportional to one timeout of stream. The horizon reaches every shard through the
// dispatcher's mark channel, ordered with the record stream. Advancing
// never changes the detected scans — a session closed early is exactly
// the session Finish would have closed — so it only bounds memory.
//
// Builder.CheckpointEvery snapshots the detector to disk at
// consistent stream-time cuts, each at an advance fire point (set
// alone, its cadence is the advance cadence too). The advance runs
// first, so a snapshot holds no session the advance closed.
type ShardedSink struct {
	D *core.ShardedDetector
	cadence
}

// NewShardedSink wraps a sharded detector.
func NewShardedSink(d *core.ShardedDetector) *ShardedSink { return &ShardedSink{D: d} }

// ConsumeBatch implements RecordSink, splitting the batch at every
// cadence point. The cadence fires before the record at that point is
// ingested, as on the IDS sinks: a record that jumped past the cadence
// first advances the eviction horizon, then contributes its own
// activity.
func (s *ShardedSink) ConsumeBatch(recs []firewall.Record) error { return s.split(s, recs) }

func (s *ShardedSink) advance(t time.Time) error            { return s.D.Advance(t) }
func (s *ShardedSink) fired(time.Time) error                { return nil }
func (s *ShardedSink) process(recs []firewall.Record) error { return s.D.ProcessBatch(recs) }

// Flush implements RecordSink, stopping the worker shards. The
// detector's Finish is idempotent, so repeat flushes only re-report
// the first worker error.
func (s *ShardedSink) Flush() error { return s.D.Finish() }

// Result returns the merged single-detector view of all shards — the
// same object the analysis builders consume. Valid after Flush.
func (s *ShardedSink) Result() *core.Detector { return s.D.Merged() }

// IDSHook lets a long-running consumer — the v6scand daemon — act
// inside an IDS sink at the points a batch run has no use for. Every
// call runs on the pipeline's dispatching goroutine.
type IDSHook interface {
	// Fired runs at every fire point t of the sink's cadence, after its
	// Tick and any checkpoint cut, before the record at t reaches the
	// engine: the moment to Drain what the tick alerted on. lastCkpt
	// is the newest checkpoint's mark. The cut precedes the drain, so a
	// run resumed from a cut at t reports t's alerts again — delivery
	// is at least once, never lossy.
	Fired(t, lastCkpt time.Time) error
	// Consumed runs after each record run reaches the engine; last is
	// the newest record time consumed.
	Consumed(last time.Time)
	// Stopped runs once when Flush begins, before the engine's final
	// sweep. When the builder set a checkpoint dir and the sink holds a
	// stream position, the sink has just published its state there,
	// cut off the cadence at the newest consumed record's time + 1ns,
	// with its phase sidecar; lastCkpt (as in Fired) is then that
	// cut's mark.
	Stopped(lastCkpt time.Time) error
}

// IDSSink terminates a pipeline in the dynamic-aggregation IDS engine,
// at any shard count; Flush stores the accumulated alerts — merged
// deterministically across shards — for Result.
//
// Builder.AdvanceEvery, when positive, forwards Engine.Tick on a
// stream-time cadence (checked per record) so idle candidates
// are evicted mid-stream as in an inline deployment; zero leaves all
// eviction to Flush unless a checkpoint cadence is set, which then
// sets the tick cadence too. Checkpoints ride the cadence as on
// ShardedSink: the tick fires before the snapshot at every cut. A
// hook (Attach) turns the batch terminal into the serving one.
type IDSSink struct {
	E *ids.Engine
	cadence
	alerts []ids.Alert
	// hook is the serving seam Attach installs; nil in a batch run.
	hook IDSHook
	// lastSeen is the newest record time the engine consumed — the
	// stream position a stopping hooked sink cuts its final state at.
	lastSeen time.Time
	flushed  bool
}

// NewIDSSink wraps an IDS engine.
func NewIDSSink(e *ids.Engine) *IDSSink { return &IDSSink{E: e} }

// Attach installs h as the sink's hook.
func (s *IDSSink) Attach(h IDSHook) { s.hook = h }

// ConsumeBatch implements RecordSink. The batch is split at every
// cadence point, and the cadence fires before the record at that
// point is ingested: a record whose timestamp jumped past the cadence
// first advances the engine clock (evicting candidates that went idle
// during the gap, as an inline deployment's timer would) and only
// then contributes its own activity. Batch size therefore never
// changes which sessions merge.
func (s *IDSSink) ConsumeBatch(recs []firewall.Record) error {
	if err := s.split(s, recs); err != nil {
		return err
	}
	if s.hook != nil && len(recs) > 0 {
		s.hook.Consumed(s.lastSeen)
	}
	return nil
}

func (s *IDSSink) advance(t time.Time) error { return s.E.Tick(t) }

func (s *IDSSink) fired(t time.Time) error {
	if s.hook == nil {
		return nil
	}
	return s.hook.Fired(t, s.lastCkpt)
}

func (s *IDSSink) process(recs []firewall.Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.lastSeen = recs[len(recs)-1].Time
	return s.E.ProcessBatch(recs)
}

// Flush implements RecordSink, draining the engine exactly once (a
// second Flush would return an empty alert set, so repeats are
// no-ops). A hooked sink first cuts its final state into the
// checkpoint dir, when there is one, then calls the hook's Stopped.
func (s *IDSSink) Flush() error {
	if s.flushed {
		return nil
	}
	s.flushed = true
	var err error
	if s.hook != nil {
		if s.checkpointDir != "" && !s.lastSeen.IsZero() {
			err = s.cutFinal(s, s.lastSeen.Add(time.Nanosecond))
		}
		if err == nil {
			err = s.hook.Stopped(s.lastCkpt)
		}
	}
	s.alerts = s.E.Flush()
	return err
}

// Result returns the accumulated alerts. Valid after Flush.
func (s *IDSSink) Result() []ids.Alert { return s.alerts }

// LogSink writes every record to a binary firewall log; Flush drains
// the writer's buffer.
type LogSink struct {
	W *firewall.Writer
}

// NewLogSink wraps a log writer.
func NewLogSink(w *firewall.Writer) *LogSink { return &LogSink{W: w} }

// ConsumeBatch implements RecordSink.
func (s *LogSink) ConsumeBatch(recs []firewall.Record) error {
	for i := range recs {
		if err := s.W.Write(recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements RecordSink; draining the writer's buffer is
// naturally idempotent.
func (s *LogSink) Flush() error { return s.W.Flush() }
