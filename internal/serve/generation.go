package serve

// A generation is one pipeline run of the daemon: the tail feeding
// the pipeline's own IDS sink — the terminal a batch `v6scan -ids` run
// uses, with the same cadence, batch splitting and checkpoint firing —
// plus the sink's hook, through which the daemon acts where a batch
// run has nothing to do: at each tick fire it drains and publishes the
// fresh alerts, after each record run it refreshes the stream
// progress, and when the generation stops it keeps the sink's final
// cut for the next one.
//
// The sink fires Tick → checkpoint → hook at a cadence point, so the
// snapshot is cut after eviction but before the fired alerts leave the
// engine: a crash-recovered daemon re-publishes the alerts of the fire
// it was cut at — at-least-once delivery, never silent loss.

import (
	"time"

	"v6scan/internal/pipeline"
)

// idsTerminal is either pipeline IDS sink, plain or sharded.
type idsTerminal interface {
	pipeline.RecordSink
	Attach(pipeline.IDSHook) pipeline.IDSEngine
}

// shardedEngine is the extra observability a sharded engine offers.
type shardedEngine interface {
	DroppedPerShard() []uint64
	QueueDepth() int
}

// generation implements pipeline.IDSHook. Single-goroutine, like
// every terminal sink: all fields are touched only by the pipeline's
// dispatching goroutine (and by Daemon.Run once the run has returned).
type generation struct {
	d    *Daemon
	sink idsTerminal
	eng  pipeline.IDSEngine
	tail *pipeline.TailSource
	// restored is the mark of the state the generation resumed from
	// (zero when fresh); the replay skips everything before it.
	restored time.Time

	lastCkpt time.Time
	lastSeen time.Time
	lastPub  time.Time // wall clock of the last light State publish

	// final is the sink's parting cut, the next generation's start.
	final *pipeline.Handoff
}

// statePublishInterval throttles the stream-progress State refresh:
// often enough that /api/state tracks a live tail, rare enough that
// a tail delivering many small batches stays allocation-light.
const statePublishInterval = 100 * time.Millisecond

// Fired implements pipeline.IDSHook: publish what the tick alerted on.
func (g *generation) Fired(t, lastCkpt time.Time) error {
	g.lastCkpt = lastCkpt
	g.d.publish(g, g.eng.Drain(), t)
	return nil
}

// Consumed implements pipeline.IDSHook, tracking stream progress.
func (g *generation) Consumed(last time.Time) {
	g.lastSeen = last
	if now := time.Now(); now.Sub(g.lastPub) >= statePublishInterval {
		g.lastPub = now
		g.d.publishLight(g)
	}
}

// Stopped implements pipeline.IDSHook at the end of a generation
// (shutdown or reload). The sink has cut its state at lastSeen+1ns —
// a valid cut that is not a cadence fire point, so no tick is forced
// and the cadence phase travels with the cut. The alerts the engine's
// final sweep then emits are deliberately not published: they are the
// premature eviction of still-open candidates, which the cut
// preserves; a resumed daemon (or the same process after reload)
// re-grows them and alerts at the stream time an uninterrupted run
// would have.
func (g *generation) Stopped(final *pipeline.Handoff, lastCkpt time.Time) error {
	g.final, g.lastCkpt = final, lastCkpt
	g.d.publishFinal(g)
	return nil
}
