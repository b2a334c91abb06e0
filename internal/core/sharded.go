package core

import (
	"time"

	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

// ShardedDetector runs the multi-aggregation scan definition across N
// worker shards in parallel. Records are partitioned by their source
// aggregated to the *coarsest* configured level, so every session key
// at every level — finer prefixes nest inside the coarsest — lives in
// exactly one shard and the combined output is identical to a single
// Detector's, independent of shard count (see TestShardedParity).
//
// Each shard owns a private Detector; partitioning, the worker
// goroutines and their pooled batch buffers are the shared
// dispatch.Dispatcher's (see that package's doc for the ownership
// model). Finish drains the workers and merges per-level results
// deterministically (scans ordered by start time, then source);
// detector workers can fail on time-order violations, and the
// dispatcher surfaces the first such error at the next call.
type ShardedDetector struct {
	cfg      Config
	shards   []*Detector
	disp     *dispatch.Dispatcher
	finished bool
	merged   *Detector
}

// NewShardedDetector returns a detector running the configuration's
// aggregation levels across n parallel shards. n < 1 is treated as 1:
// one shard processes on one worker goroutine, byte-identical to a
// plain Detector.
func NewShardedDetector(cfg Config, n int) *ShardedDetector {
	if n < 1 {
		n = 1
	}
	// Normalize the config once so every shard and the merged view
	// agree (NewDetector applies the same defaults).
	probe := NewDetector(cfg)
	cfg = probe.Config()

	sd := &ShardedDetector{cfg: cfg, shards: make([]*Detector, n)}
	for i := range sd.shards {
		if i == 0 {
			sd.shards[i] = probe
		} else {
			sd.shards[i] = NewDetector(cfg)
		}
	}
	// Shard by the coarsest level: the smallest prefix length contains
	// every finer aggregate of the same source.
	sd.disp = dispatch.New(dispatch.Config{
		Shards: n,
		Level:  dispatch.CoarsestLevel(cfg.Levels),
	}, func(shard int, recs []firewall.Record, mark time.Time) error {
		det := sd.shards[shard]
		if !mark.IsZero() {
			det.Advance(mark)
		}
		return det.ProcessBatch(recs)
	})
	return sd
}

// Config returns the (normalized) detector configuration.
func (sd *ShardedDetector) Config() Config { return sd.cfg }

// NumShards returns the worker count.
func (sd *ShardedDetector) NumShards() int { return len(sd.shards) }

// ProcessBatch partitions a time-ordered run of records across the
// shards and dispatches it. Records must be in non-decreasing time
// order, as for Detector. The slice is not retained.
func (sd *ShardedDetector) ProcessBatch(recs []firewall.Record) error {
	return sd.disp.ProcessBatch(recs)
}

// Advance closes every session idle past the timeout as of now, like
// Detector.Advance. The horizon travels to every shard ordered with
// the records dispatched before it, so eviction sees them.
func (sd *ShardedDetector) Advance(now time.Time) error {
	return sd.disp.Mark(now)
}

// Finish drains all shards, closes every open session, and merges the
// per-shard results. It returns the first per-shard processing error,
// if any (repeat calls re-report it). Call once after the final
// record; the scan accessors are valid afterwards.
func (sd *ShardedDetector) Finish() error {
	err := sd.disp.Close()
	if sd.finished {
		return err
	}
	sd.finished = true
	for _, det := range sd.shards {
		det.Finish()
	}
	// Deterministic merge: concatenate each level's scans and sum the
	// drop counters into a fresh Detector, whose Scans() ordering
	// (start time, then source) is independent of shard interleaving.
	merged := NewDetector(sd.cfg)
	for li := range merged.levels {
		for _, det := range sd.shards {
			merged.levels[li].scans = append(merged.levels[li].scans, det.levels[li].scans...)
			merged.levels[li].dropped += det.levels[li].dropped
		}
	}
	sd.merged = merged
	return err
}

// Merged returns the combined detector view — the same object the
// analysis builders consume for a single Detector. Valid after Finish.
func (sd *ShardedDetector) Merged() *Detector {
	if !sd.finished {
		panic("core: ShardedDetector.Merged before Finish")
	}
	return sd.merged
}

// Scans returns the detected scans at one aggregation level, ordered by
// start time. Valid after Finish.
func (sd *ShardedDetector) Scans(level netaddr6.AggLevel) []Scan {
	return sd.Merged().Scans(level)
}

// Dropped returns the below-threshold session count at a level across
// all shards. Valid after Finish.
func (sd *ShardedDetector) Dropped(level netaddr6.AggLevel) uint64 {
	return sd.Merged().Dropped(level)
}

// TotalsFor computes the Table-1 row for a level. Valid after Finish.
func (sd *ShardedDetector) TotalsFor(level netaddr6.AggLevel) Totals {
	return sd.Merged().TotalsFor(level)
}
