package serve

// A generation is the daemon's pipeline run: the tail feeding the
// pipeline's own IDS sink — the terminal a batch `v6scan -ids` run
// uses, with the same cadence, batch splitting and checkpoint firing —
// plus the sink's hook, through which the daemon acts where a batch
// run has nothing to do: at each tick fire it drains and publishes the
// fresh alerts, after each record run it records the stream progress
// (which every State read overlays), and when the run stops it
// publishes the final State.
//
// The sink fires Tick → checkpoint → hook at a cadence point, so the
// snapshot is cut after eviction but before the fired alerts leave the
// engine: a crash-recovered daemon re-publishes the alerts of the fire
// it was cut at — at-least-once delivery, never silent loss.

import (
	"time"

	"v6scan/internal/pipeline"
)

// generation implements pipeline.IDSHook. Single-goroutine, like
// every terminal sink: all fields are touched only by the pipeline's
// dispatching goroutine (and by Daemon.Run before the run starts).
type generation struct {
	d    *Daemon
	sink *pipeline.IDSSink
	tail *pipeline.TailSource
	// restored is the mark of the state the run resumed from (zero
	// when fresh); the replay skips everything before it.
	restored time.Time

	lastCkpt time.Time
}

// Fired implements pipeline.IDSHook: publish what the tick alerted on.
func (g *generation) Fired(t, lastCkpt time.Time) error {
	g.lastCkpt = lastCkpt
	g.d.publish(g, g.sink.E.Drain(), t)
	return nil
}

// Consumed implements pipeline.IDSHook, recording the stream progress
// after every record run, so a State read right after the log goes
// quiet already counts its last records.
func (g *generation) Consumed(last time.Time) {
	g.d.progress.set(g.d.pm.SourceRecords.Value(), last, g.tail.Stats())
}

// Stopped implements pipeline.IDSHook at shutdown. With a checkpoint
// dir the sink has cut its state at lastSeen+1ns — a valid cut that is
// not a cadence fire point, so no tick is forced and the cadence phase
// travels in the cut's sidecar. The alerts the engine's final sweep
// then emits are deliberately not published: they are the premature
// eviction of still-open candidates, which the cut preserves; a
// resumed daemon re-grows them and alerts at the stream time an
// uninterrupted run would have.
func (g *generation) Stopped(lastCkpt time.Time) error {
	g.lastCkpt = lastCkpt
	g.d.publishFinal(g)
	return nil
}
