package core

import (
	"time"

	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
)

// ShardedDetector runs the multi-aggregation scan definition over a
// dispatch.Group of Detector shards, partitioned by the source
// aggregated to the *coarsest* configured level: every session key at
// every level lives in exactly one shard, so the merged output is a
// single Detector's at any shard count (TestShardedParity). The group
// owns the workers (one even at one shard: dispatch.DetectorInline),
// the horizon, barrier-synced reads and shutdown; the detector keeps
// the merge (Finish) and its snapshot codec. The first shard error (a
// time-order violation) surfaces at the next call. After Finish,
// ProcessBatch, Advance and Snapshot return dispatch.ErrClosed.
type ShardedDetector struct {
	cfg    Config
	g      *dispatch.Group[*Detector]
	merged *Detector
}

// NewShardedDetector returns a detector running the configuration's
// aggregation levels across n parallel shards (n < 1 is 1), each on
// its own worker goroutine.
func NewShardedDetector(cfg Config, n int) *ShardedDetector {
	cfg = NewDetector(cfg).Config() // the defaults, applied once
	return &ShardedDetector{cfg: cfg, g: dispatch.NewGroup(n, cfg.Levels, dispatch.DetectorInline,
		func() *Detector { return NewDetector(cfg) })}
}

// Config returns the (normalized) detector configuration.
func (sd *ShardedDetector) Config() Config { return sd.cfg }

// NumShards returns the worker count.
func (sd *ShardedDetector) NumShards() int { return len(sd.g.Shards()) }

// ProcessBatch partitions a time-ordered run of records across the
// shards and dispatches it. Records must be in non-decreasing time
// order, as for Detector. The slice is not retained.
func (sd *ShardedDetector) ProcessBatch(recs []firewall.Record) error {
	return sd.g.ProcessBatch(recs)
}

// Advance closes every session idle past the timeout as of now, like
// Detector.Advance. The horizon travels to every shard ordered with
// the records dispatched before it, so eviction sees them.
func (sd *ShardedDetector) Advance(now time.Time) error { return sd.g.Advance(now) }

// Finish drains all shards, closes every open session, and merges the
// per-shard results. It returns the first per-shard processing error,
// if any (repeat calls re-report it). Call once after the final
// record; Merged is valid afterwards.
func (sd *ShardedDetector) Finish() error {
	err := sd.g.Close()
	if sd.merged != nil {
		return err
	}
	// Deterministic merge: concatenate each level's scans and sum the
	// drop counters into a fresh Detector, whose Scans() ordering
	// (start time, then source) is independent of shard interleaving.
	sd.merged = NewDetector(sd.cfg)
	for _, det := range sd.g.Shards() {
		det.Finish()
		for li, ls := range sd.merged.levels {
			ls.scans = append(ls.scans, det.levels[li].scans...)
			ls.dropped += det.levels[li].dropped
		}
	}
	return err
}

// Merged returns the combined detector view — the same object the
// analysis builders consume for a single Detector. Valid after Finish.
func (sd *ShardedDetector) Merged() *Detector {
	if sd.merged == nil {
		panic("core: ShardedDetector.Merged before Finish")
	}
	return sd.merged
}
