package ids

// Versioned snapshot/restore for the IDS engine (checkpoint format
// kind 2), mirroring the detector's (see internal/core/snapshot.go for
// the cut semantics and canonical-encoding invariants). Candidate
// tables serialize per level as checkpoint.WriteBody's one global
// key-sorted sequence across shards; restore re-partitions
// deterministically, so shard count may change between save and load.
//
// A candidate's sketch is written in the form the engine holds it in
// (core.DstSketch.Encode: flag 1 dense, flag 2 sparse). A version 1
// checkpoint holds only dense sketches; restoring one makes each
// sketch the densify cutoff holds sparse straight from its register
// bytes (core.SketchDecoder), so its next cut is canonical version 2.
//
// The engine clock (now) serializes once, globally, as the maximum
// over shards, and restores into every shard. Ticks forward a global
// horizon (max of now and the latest record time) and the final sweep
// ignores now entirely, so a shard whose private clock lagged the
// global one behaves identically after restore.

import (
	"fmt"
	"io"
	"net/netip"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/core"
	"v6scan/internal/netaddr6"
)

// Snapshot writes a consistent checkpoint of the engine at the given
// stream-time mark. The caller guarantees every record with timestamp
// before mark has been processed and none at or after it has. Above
// one shard the group's barrier first drains in-flight batches; the
// shards serialize as one canonical global snapshot, byte-identical at
// any shard count. The engine keeps its encoder buffers across cuts
// (checkpoint.Buffers), so cuts must not run concurrently.
func (e *Engine) Snapshot(w io.Writer, mark time.Time) error {
	if err := e.g.Sync(); err != nil {
		return err
	}
	e.body.cfg, e.body.shards = e.cfg, e.g.Shards()
	return checkpoint.WriteBody(w, checkpoint.KindIDS, mark, &e.body, &e.bodyBuf)
}

// RestoreEngine rebuilds an engine from a snapshot opened with
// checkpoint.NewReader across n shards (n ≤ 1 inline, as New),
// re-partitioning every candidate deterministically — n need not match
// the shard count the snapshot was taken at.
func RestoreEngine(cr *checkpoint.Reader, n int) (*Engine, error) {
	r := &idsRestore{n: n, sketches: core.SketchDecoder{V1: cr.Header().Version == 1}}
	if err := checkpoint.ReadBody(cr, checkpoint.KindIDS, r); err != nil {
		if r.e != nil {
			r.e.g.Close()
		}
		return nil, err
	}
	return r.e, nil
}

// idsBody is the engine's side of checkpoint.WriteBody over its
// shards. The Engine keeps one across its cuts.
type idsBody struct {
	cfg    Config
	shards []*shard
	// alerts is Results' merge buffer, grown to the largest once.
	alerts []Alert
}

// liveCandidate is a gathered candidate and its last activity.
type liveCandidate struct {
	c    *candidate
	last int64
}

func (b *idsBody) Levels() []netaddr6.AggLevel { return b.cfg.Levels }

func (b *idsBody) Config(e *checkpoint.Enc) {
	cfg := b.cfg
	e.Uvarint(uint64(cfg.MinDsts))
	e.Varint(int64(cfg.Timeout))
	e.U8(cfg.SketchPrecision)
	e.F64(cfg.CoverageShare)
	e.Uvarint(uint64(cfg.MaxCandidates))
	e.Uvarint(uint64(len(cfg.Levels)))
	for _, l := range cfg.Levels {
		e.Varint(int64(l))
	}
}

func (b *idsBody) Gather(dst []checkpoint.Keyed[liveCandidate], li int) []checkpoint.Keyed[liveCandidate] {
	for _, s := range b.shards {
		tab := &s.levels[li].tab
		tab.Range(func(key netaddr6.U128, h uint32) bool {
			dst = append(dst, checkpoint.Keyed[liveCandidate]{Key: key, Val: liveCandidate{tab.At(h), tab.Last(h)}})
			return true
		})
	}
	return dst
}

// Entry writes one candidate's logical state. The inline
// single-destination fast path (flag 0) and the materialized sketch
// (its Encode form: flag 1 dense, 2 sparse) encode as distinct shapes
// (the sketch's registers are its complete state; the inline
// destination is the whole state before materialization), so restore
// reproduces the exact representation and a re-snapshot the exact
// bytes. Last activity is already on Enc.Time's axis.
func (b *idsBody) Entry(e *checkpoint.Enc, lc liveCandidate) {
	c := lc.c
	e.Uvarint(c.packets)
	e.Time(c.first)
	e.U64(uint64(lc.last))
	if c.sketch == nil {
		e.U8(0)
		e.U64(c.firstDst.Hi)
		e.U64(c.firstDst.Lo)
		return
	}
	c.sketch.Encode(e)
}

// Results writes the global engine state: the clock (max over shards),
// the drop counter sum, and the pending alerts in a full total order
// (every field is a tie-breaker, so the encoding is deterministic even
// if two alerts collide on the sort keys Drain uses).
func (b *idsBody) Results(e *checkpoint.Enc) {
	var now time.Time
	var dropped uint64
	alerts := b.alerts[:0]
	for _, s := range b.shards {
		if s.now.After(now) {
			now = s.now
		}
		dropped += s.dropped.Load()
		alerts = append(alerts, s.alerts...)
	}
	sortAlerts(alerts)
	e.Time(now)
	e.Uvarint(dropped)
	e.Uvarint(uint64(len(alerts)))
	for i := range alerts {
		encodeAlert(e, &alerts[i])
	}
	clear(alerts) // the buffer outlives the cut; the alerts need not
	b.alerts = alerts[:0]
}

// idsRestore is the engine's side of checkpoint.ReadBody: it builds
// the restored engine across n shards from the decoded config.
type idsRestore struct {
	n        int
	e        *Engine
	sketches core.SketchDecoder
}

func (r *idsRestore) Config(d *checkpoint.Dec) ([]netaddr6.AggLevel, error) {
	cfg := Config{
		MinDsts:         int(d.Uvarint()),
		Timeout:         time.Duration(d.Varint()),
		SketchPrecision: d.U8(),
		CoverageShare:   d.F64(),
		MaxCandidates:   int(d.Uvarint()),
	}
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		cfg.Levels = append(cfg.Levels, netaddr6.AggLevel(d.Varint()))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	r.e = NewSharded(cfg, r.n)
	// NewSharded normalizes the config, which re-sorts levels; use the
	// normalized levels so level sections resolve identically.
	return r.e.cfg.Levels, nil
}

// Entry rebuilds one candidate into the shard the group routes its
// records to.
func (r *idsRestore) Entry(d *checkpoint.Dec, li int, key netaddr6.U128) error {
	shard := r.e.g.Shards()[r.e.g.ShardFor(key)]
	lv := shard.levels[li]
	var c candidate
	c.packets = d.Uvarint()
	c.first = d.Time()
	last := int64(d.U64()) // Dec.Time's axis, kept as the table stores it
	var err error
	switch flag := d.U8(); flag {
	case 0:
		c.firstDst = netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
	case core.SketchDense, core.SketchSparse:
		c.sketch, err = r.sketches.Decode(d, flag)
	default:
		err = fmt.Errorf("%w: candidate sketch flag %d", checkpoint.ErrFormat, flag)
	}
	if err == nil {
		err = d.Err()
	}
	if err != nil {
		return err
	}
	if c.sketch != nil {
		// The sweep reads the cached count against the engine's
		// threshold, which holds for its own precision only.
		if p := shard.th.Precision(); c.sketch.Precision() != p {
			return fmt.Errorf("%w: candidate sketch precision %d, engine %d", checkpoint.ErrFormat, c.sketch.Precision(), p)
		}
		c.regs = int32(c.sketch.Nonzero())
	}
	h, _ := lv.tab.Ref(key, last) // keys arrive strictly ascending
	*lv.tab.At(h) = c
	return nil
}

func (r *idsRestore) Results(d *checkpoint.Dec) error {
	now := d.Time()
	shards := r.e.g.Shards()
	for _, s := range shards {
		s.now = now
	}
	shards[0].dropped.Store(d.Uvarint())
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		shards[0].alerts = append(shards[0].alerts, decodeAlert(d))
	}
	return nil
}

func encodeAlert(e *checkpoint.Enc, a *Alert) {
	addr := netaddr6.ToU128(a.Prefix.Addr())
	e.U64(addr.Hi)
	e.U64(addr.Lo)
	e.Varint(int64(a.Prefix.Bits()))
	e.Varint(int64(a.Level))
	e.Uvarint(a.EstimatedDsts)
	e.Uvarint(a.Packets)
	e.Time(a.First)
	e.Time(a.Last)
	if a.Escalated {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func decodeAlert(d *checkpoint.Dec) Alert {
	addr := netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
	bits := int(d.Varint())
	return Alert{
		Prefix:        netip.PrefixFrom(addr.ToAddr(), bits),
		Level:         netaddr6.AggLevel(d.Varint()),
		EstimatedDsts: d.Uvarint(),
		Packets:       d.Uvarint(),
		First:         d.Time(),
		Last:          d.Time(),
		Escalated:     d.U8() != 0,
	}
}
