// Package ids implements the operational recommendation of the paper's
// Discussion section: an inline intrusion-detection component that
// tracks scan candidates at several source-aggregation levels
// *simultaneously*, with bounded per-source memory, and recommends per
// scanning entity the most specific blocklist prefix that captures its
// activity.
//
// The paper shows that any fixed aggregation mask fails: too specific
// (/128) misses actors that spread sources across a prefix (AS #9,
// AS #18), too coarse (/32) merges distinct tenants of a cloud provider
// and causes collateral damage when blocklisting (AS #6). The engine
// here resolves this by:
//
//  1. maintaining per-level candidate tables keyed by aggregated source
//     prefix, using HyperLogLog destination sketches (constant memory
//     per candidate, unlike the exact sets of the offline detector);
//  2. alerting at the *most specific* level whose estimated destination
//     cardinality crosses the threshold;
//  3. suppressing redundant coarser alerts when a more specific prefix
//     already accounts for the bulk of the coarser aggregate's
//     destinations — and escalating to the coarser prefix when it does
//     not (the spread-source case).
//
// Engine is allocation-light: each level's candidates live in a
// u128idx.Table (the detector's session table), and candidates hold
// their first destination inline, materializing the sketch only on the
// second distinct destination — at fine aggregation levels the
// overwhelming majority of candidates are short-lived background
// sources that never need one. A materialized sketch starts in its
// exact sparse form, which holds the few registers a churn candidate
// sets inside the sketch's own struct, and turns dense (2^precision
// register bytes) only past m/8 nonzero registers (core.DstSketch);
// the checkpoint writes each sketch in the form it is held in. A
// minute Tick is the table's Expire sweep, whose timing wheel visits
// only the candidates that may be due (u128idx.Table). A due candidate
// below the threshold is decided from the nonzero-register count it
// keeps beside its sketch pointer (core.Threshold) and recycled
// without touching the sketch. ProcessBatch additionally groups adjacent
// same-source records so a burst of N records to one candidate costs
// one table probe, at the most specific level: each candidate keeps
// the handle of the next coarser level's candidate for its source, so
// a run reaches the coarser candidates it has reached before without
// probing their tables, and probes only where that hint is missing or
// stale (shard.ingestRun). The state is split into shards (this file)
// that an Engine runs in a dispatch.Group (sharded.go).
package ids

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
	"v6scan/internal/u128idx"
)

// Config parameterizes the engine.
type Config struct {
	// MinDsts is the destination-cardinality alert threshold
	// (default 100, the paper's large-scale scan bar).
	MinDsts int
	// Timeout evicts idle candidates (default 1 hour, the scan
	// definition's inter-arrival bound).
	Timeout time.Duration
	// Levels are the aggregation levels tracked, most specific first
	// (default /128, /64, /48, /32). New accepts any order and does not
	// modify the slice.
	Levels []netaddr6.AggLevel
	// SketchPrecision sets HyperLogLog register count = 2^precision
	// per candidate (default 10 → 1 KiB once dense, ≈3% error).
	SketchPrecision uint8
	// CoverageShare is the fraction of a coarser aggregate's
	// destinations a more specific alert must explain to suppress the
	// coarser alert (default 0.9).
	CoverageShare float64
	// MaxCandidates bounds each level's table; when full, new
	// candidates are dropped (deployments would shard or sample).
	// Default 1<<20.
	MaxCandidates int
}

// DefaultConfig returns production-oriented defaults.
func DefaultConfig() Config {
	return Config{
		MinDsts:         100,
		Timeout:         time.Hour,
		Levels:          []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48, netaddr6.Agg32},
		SketchPrecision: 10,
		CoverageShare:   0.9,
		MaxCandidates:   1 << 20,
	}
}

// Alert is one detected scanning entity with a blocklist
// recommendation.
type Alert struct {
	// Prefix is the recommended blocklist entry: the most specific
	// aggregation that captures the entity's activity.
	Prefix netip.Prefix
	// Level is the aggregation level of Prefix.
	Level netaddr6.AggLevel
	// EstimatedDsts is the sketched destination cardinality.
	EstimatedDsts uint64
	// Packets counts packets attributed to the entity.
	Packets uint64
	// First and Last bound the observed activity.
	First, Last time.Time
	// Escalated reports that a coarser prefix was chosen because no
	// more specific candidate explained the activity (the AS #18
	// spread-source pattern).
	Escalated bool
}

// String renders a log line.
func (a Alert) String() string {
	esc := ""
	if a.Escalated {
		esc = " (escalated: spread-source entity)"
	}
	return fmt.Sprintf("scan from %v [%v]: ≈%d dsts, %d packets, %v–%v%s",
		a.Prefix, a.Level, a.EstimatedDsts, a.Packets,
		a.First.Format(time.RFC3339), a.Last.Format(time.RFC3339), esc)
}

// sortAlerts orders alerts by first activity, then address, then
// prefix length, then the remaining fields (compareAlerts). The
// comparator is a total order, so the result is deterministic
// regardless of accumulation order — the property the merge across
// shards and a restored engine (whose pending alerts come back in this
// order) rely on for byte-identical output. The tie-breaking fields matter only
// when one prefix alerts twice with the same first activity between
// drains, which takes out-of-order input.
func sortAlerts(alerts []Alert) {
	slices.SortFunc(alerts, func(a, b Alert) int { return compareAlerts(&a, &b) })
}

// compareAlerts is a full total order over alerts: first activity,
// address and prefix length, then every remaining field (an
// unescalated alert before an escalated one).
func compareAlerts(a, b *Alert) int {
	if c := a.First.Compare(b.First); c != 0 {
		return c
	}
	if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Prefix.Bits(), b.Prefix.Bits()); c != 0 {
		return c
	}
	if c := a.Last.Compare(b.Last); c != 0 {
		return c
	}
	if c := cmp.Compare(a.EstimatedDsts, b.EstimatedDsts); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Packets, b.Packets); c != 0 {
		return c
	}
	switch {
	case a.Escalated == b.Escalated:
		return 0
	case b.Escalated:
		return -1
	default:
		return 1
	}
}

// candidate is the in-flight state for one aggregated source prefix.
// The sketch is materialized lazily: until a second distinct
// destination arrives, the single destination lives inline and the
// candidate costs no sketch memory. HyperLogLog insertion is
// idempotent per address, so the late-materialized sketch is
// byte-identical to one fed every record. A materialized sketch is
// sparse — its struct plus, past four registers, a short sorted list
// — until it passes the densify cutoff (core.DstSketch), so a
// candidate that saw a handful of destinations holds no register
// array.
//
// Candidates are the values of a per-level u128idx.Table, whose
// handles are reused on eviction, with the sketches reset and pooled
// alongside (recycle below): steady-state ingest otherwise allocates
// one candidate per source per level, which dominates the engine's
// allocation rate on million-record days. A candidate's key and last
// activity are the table's.
//
// A candidate also keeps its sketch's nonzero-register count (regs)
// and held bytes (bytes), so the sweep decides a due candidate below
// the threshold, pools its sparse sketch and takes its bytes off the
// level's total from the candidate's own slot without touching the
// sketch (reaches, recycle). Its first activity is an int64 on the
// checkpoint time axis, like the table's last, and up is a hint to
// the next coarser level's candidate for the same source (ingestRun).
// The struct is 56 bytes, under a 64-byte cache line's size.
type candidate struct {
	firstDst netaddr6.U128
	sketch   *core.DstSketch
	packets  uint64
	// first is the earliest record time seen (checkpoint.EncodeTime).
	first int64
	// regs is sketch.Nonzero() as of the last insert or restore: −1
	// while unknown (a restored dense sketch), 0 without a sketch.
	regs int32
	// bytes is sketch.MemoryBytes(), kept as the sketch changes; 0
	// without a sketch.
	bytes int32
	// up is the handle + 1 of the candidate this source reached at the
	// next coarser level, 0 for none. It is only a cache: the handle
	// may since have been released, or reused by another key, so
	// ingestRun checks it before use. It is never written to a
	// checkpoint, and recycle and restore leave it 0.
	up uint32
}

// estimate returns the candidate's destination cardinality: exactly 1
// on the inline fast path, the sketch estimate otherwise.
func (c *candidate) estimate() uint64 {
	if c.sketch == nil {
		return 1
	}
	return c.sketch.Estimate()
}

// reaches reports estimate() >= MinDsts: from the cached count when
// the threshold can decide it (always for a sparse sketch), else from
// the sketch's estimate.
func (c *candidate) reaches(th *core.Threshold, minDsts uint64) bool {
	if c.sketch == nil {
		return 1 >= minDsts
	}
	if reached, ok := th.Decide(int(c.regs)); ok {
		return reached
	}
	return c.sketch.Estimate() >= minDsts
}

// level is one aggregation level's candidate table, keyed by the
// masked 128-bit source (the prefix length is the level itself), with
// last activity on the checkpoint time axis (checkpoint.EncodeTime),
// plus the pool of sketches for the next candidates that need one. The
// pool holds no dense memory: recycle resets a sketch that may be
// dense at once, and pools a sparse one as it is (its list's capacity
// is all it holds) for observeDst to reset when it takes it out, when
// the sketch is about to be written anyway.
//
// bytes is the running total of the live candidates' sketch bytes
// (candidate.bytes): observeDst and the restore add to it as sketches
// are attached and grow, and recycle takes a candidate's bytes off it,
// so reading it never walks the table. Pooled sketches are not in it.
type level struct {
	agg        netaddr6.AggLevel
	tab        u128idx.Table[candidate]
	freeSketch []*core.DstSketch
	bytes      int
}

// recycle empties an evicted candidate, takes its sketch bytes off the
// level's total, pools its sketch and releases its handle. Callers
// must be done reading it.
func (lv *level) recycle(h uint32, th *core.Threshold) {
	c := lv.tab.At(h)
	if c.sketch != nil {
		lv.bytes -= int(c.bytes)
		if th.MayBeDense(int(c.regs)) {
			c.sketch.Reset()
		}
		lv.freeSketch = append(lv.freeSketch, c.sketch)
	}
	*c = candidate{}
	lv.tab.Release(h)
}

// observeDst records one destination for a candidate, materializing
// the sketch (pooled when available) on the second distinct address,
// and refreshes the candidate's register count while the sketch is in
// cache. It adds an attached sketch's bytes, and any growth an insert
// reports, to the candidate's and the level's totals. HyperLogLog
// insertion is idempotent per address, so the late-materialized sketch
// is byte-identical to one fed every record.
func (lv *level) observeDst(c *candidate, d netaddr6.U128, precision uint8) {
	if c.sketch == nil {
		if d == c.firstDst {
			return
		}
		if n := len(lv.freeSketch) - 1; n >= 0 {
			c.sketch = lv.freeSketch[n]
			lv.freeSketch = lv.freeSketch[:n]
			c.sketch.Reset()
		} else {
			c.sketch = core.NewDstSketch(precision)
		}
		c.sketch.AddU128(c.firstDst)
		c.bytes = int32(c.sketch.MemoryBytes())
		lv.bytes += int(c.bytes)
	}
	if grown := c.sketch.AddU128(d); grown != 0 {
		c.bytes += int32(grown)
		lv.bytes += grown
	}
	c.regs = int32(c.sketch.Nonzero())
}

// hinted reports whether handle h, which a finer candidate's up hint
// names, still holds key's live candidate.
func (lv *level) hinted(h uint32, key netaddr6.U128) bool {
	if lv.tab.Key(h) != key {
		return false // released, and reused by another key
	}
	if lv.tab.At(h).packets == 0 {
		return false // released (recycle zeroed it), key not yet reused
	}
	return true
}

// shard is one partition of an Engine's candidate state: every level's
// table for the sources that partition to it, the shard's clock and
// its pending alerts; a dispatch.Shard. Single-goroutine: an Engine
// runs its one shard inline, or each of its shards on its own worker.
type shard struct {
	cfg    Config
	th     core.Threshold // MinDsts at the sketch precision, the engine's
	levels []*level       // most specific first, as ordered by normalize
	now    time.Time

	// alerts accumulated since the last Drain.
	alerts []Alert
	// dropped counts candidates rejected by MaxCandidates. Atomic so
	// observability surfaces (the metrics registry, a serving daemon's
	// state endpoint) can read it from any goroutine while the shard
	// processes on its own — the only shard field with that property.
	dropped atomic.Uint64

	// scrDst is the per-run destination scratch for process.
	scrDst []netaddr6.U128
	// closed holds sweep's due handles at or above the threshold, and
	// keyCounts its key-sort counters (netaddr6.SortByKey).
	closed    []uint32
	keyCounts []uint32
}

// normalize applies the defaults to cfg's zero fields and orders a
// copy of its levels most specific first, once: alerting prefers
// specificity and sweep relies on this ordering every call. Callers'
// Levels slices are not modified.
func normalize(cfg Config) Config {
	def := DefaultConfig()
	if cfg.MinDsts <= 0 {
		cfg.MinDsts = def.MinDsts
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = def.Timeout
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = def.Levels
	}
	if cfg.SketchPrecision == 0 {
		cfg.SketchPrecision = def.SketchPrecision
	}
	if cfg.CoverageShare <= 0 || cfg.CoverageShare > 1 {
		cfg.CoverageShare = def.CoverageShare
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = def.MaxCandidates
	}
	levels := append([]netaddr6.AggLevel(nil), cfg.Levels...)
	slices.SortFunc(levels, func(a, b netaddr6.AggLevel) int { return cmp.Compare(b, a) })
	cfg.Levels = levels
	return cfg
}

// newShard returns an empty shard over a normalized configuration and
// its threshold (core.NewThreshold of MinDsts at SketchPrecision).
func newShard(cfg Config, th core.Threshold) *shard {
	s := &shard{cfg: cfg, th: th}
	for _, l := range cfg.Levels {
		s.levels = append(s.levels, &level{agg: l})
	}
	return s
}

// ProcessBatch ingests a run of records; it never fails.
//
// Adjacent records with the same source (the shape dispatch staging
// and real scan bursts produce) are grouped into runs, so N records to
// one candidate cost at most one table probe per aggregation level
// instead of N map lookups (ingestRun).
func (s *shard) ProcessBatch(recs []firewall.Record) error {
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Src == recs[i].Src {
			j++
		}
		s.ingestRun(recs[i:j])
		i = j
	}
	return nil
}

// ingestRun applies one same-source run: the candidate of each level
// is resolved once, each record's destination then updates it through
// the value pointer, and the run's activity bounds apply once.
//
// The most specific level is probed: below the MaxCandidates bound one
// Ref resolves or creates the candidate, at the bound a Get finds it
// or the run is dropped at that level. Each coarser level is first
// tried through the finer candidate's up hint, which is used only
// while the handle still holds this level's key and its candidate is
// live (recycle zeroes packets, and a live candidate has at least one
// packet): then the candidate exists and no probe runs. Otherwise the
// level is probed as the most specific one is, and the handle found is
// stored in the finer candidate's hint. The check cannot be replaced
// by an invariant: with drops at the bound and late records, a coarser
// candidate admitted after its finer one can carry an older last
// activity, close first and have its handle reused.
//
// A candidate's activity bounds are the earliest and latest record
// times seen, not the first and last to arrive: without a sorting
// window a late record must neither pull Last backwards nor make the
// candidate look idle early.
func (s *shard) ingestRun(rs []firewall.Record) {
	s.scrDst = s.scrDst[:0]
	lo, hi := 0, 0 // the run's earliest and latest records
	for k, r := range rs {
		if r.Time.After(s.now) {
			s.now = r.Time
		}
		if r.Time.Before(rs[lo].Time) {
			lo = k
		}
		if r.Time.After(rs[hi].Time) {
			hi = k
		}
		s.scrDst = append(s.scrDst, netaddr6.ToU128(r.Dst))
	}
	first, last := checkpoint.EncodeTime(rs[lo].Time), checkpoint.EncodeTime(rs[hi].Time)
	src := netaddr6.ToU128(rs[0].Src)
	var up *uint32 // the finer level's candidate's hint to this level
	for _, lv := range s.levels {
		key := src.Mask(int(lv.agg))
		var (
			h       uint32
			existed bool
		)
		if up != nil && *up != 0 && lv.hinted(*up-1, key) {
			h, existed = *up-1, true
		} else if lv.tab.Len() < s.cfg.MaxCandidates {
			// Below the bound, lookup and admission are one probe.
			h, existed = lv.tab.Ref(key, last)
		} else if h, existed = lv.tab.Get(key); !existed {
			// At the bound only existing candidates admit records; a
			// missing key drops every record of the run, as the
			// per-record path did.
			s.dropped.Add(uint64(len(rs)))
			up = nil
			continue
		}
		if up != nil {
			*up = h + 1
		}
		c := lv.tab.At(h)
		dsts := s.scrDst
		if !existed {
			c.firstDst, c.first = dsts[0], first
			dsts = dsts[1:]
		}
		for _, d := range dsts {
			lv.observeDst(c, d, s.cfg.SketchPrecision)
		}
		c.packets += uint64(len(rs))
		c.first = min(c.first, first)
		lv.tab.Touch(h, last)
		up = &c.up
	}
}

// Advance moves the shard's clock to now if later and evicts the
// candidates idle past Timeout at it.
func (s *shard) Advance(now time.Time) {
	if now.After(s.now) {
		s.now = now
	}
	s.sweep(u128idx.Cutoff(checkpoint.EncodeTime(s.now), int64(s.cfg.Timeout)))
}

// candidates returns the shard's working-set size at a level.
func (s *shard) candidates(l netaddr6.AggLevel) int {
	for _, lv := range s.levels {
		if lv.agg == l {
			return lv.tab.Len()
		}
	}
	return 0
}

// memoryBytes sums the sketch bytes the shard's candidates hold across
// all levels (core.DstSketch.MemoryBytes), from each level's running
// total. Candidates on the inline single-dst fast path hold none;
// pooled sketches are not counted.
func (s *shard) memoryBytes() int {
	total := 0
	for _, lv := range s.levels {
		total += lv.bytes
	}
	return total
}

// sweep evicts the candidates the level tables' Expire finds due at
// cutoff (u128idx.ExpireAll at Flush), level by level, most specific
// first, applying the suppression/escalation logic. Expire visits only
// the due candidates, and one below the threshold is decided and
// recycled from its own slot (candidate.reaches, level.recycle). The
// level order was fixed by normalize; within a level, closed
// candidates are visited in address order (netaddr6.SortByKey on their
// keys, which are unique within a level), so the alerts depend neither
// on the table's slot order nor on the order Expire visits them.
func (s *shard) sweep(cutoff int64) {
	minDsts := uint64(s.cfg.MinDsts)
	swept := len(s.alerts) // this sweep's alerts are s.alerts[swept:]
	for _, lv := range s.levels {
		s.closed = s.closed[:0]
		lv.tab.Expire(cutoff, func(h uint32) {
			if lv.tab.At(h).reaches(&s.th, minDsts) {
				s.closed = append(s.closed, h)
			} else {
				lv.recycle(h, &s.th)
			}
		})
		if len(s.closed) == 0 {
			continue
		}
		netaddr6.SortByKey(s.closed, lv.tab.Key, &s.keyCounts)
		// Suppression: a coarser candidate is redundant if
		// already-emitted more specific alerts cover CoverageShare of
		// its destinations (approximated by cardinality sums — sketches
		// cannot intersect, and scan destination sets at different
		// levels of one entity nest).
		for _, h := range s.closed {
			c := lv.tab.At(h)
			prefix := netip.PrefixFrom(lv.tab.Key(h).ToAddr(), int(lv.agg))
			var coveredDsts uint64
			for _, a := range s.alerts[swept:] {
				if netaddr6.PrefixContains(prefix, a.Prefix) {
					coveredDsts += a.EstimatedDsts
				}
			}
			est := c.estimate()
			if float64(coveredDsts) >= s.cfg.CoverageShare*float64(est) {
				continue // explained by finer alerts
			}
			s.alerts = append(s.alerts, Alert{
				Prefix:        prefix,
				Level:         lv.agg,
				EstimatedDsts: est,
				Packets:       c.packets,
				First:         checkpoint.DecodeTime(c.first),
				Last:          checkpoint.DecodeTime(lv.tab.Last(h)),
				Escalated:     coveredDsts > 0 || lv.agg != s.levels[0].agg,
			})
		}
		// Alerts hold copies of everything they need; the closed
		// candidates (and their sketches) can re-enter the table.
		for _, h := range s.closed {
			lv.recycle(h, &s.th)
		}
	}
}
