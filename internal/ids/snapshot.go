package ids

// Versioned snapshot/restore for the IDS engine (checkpoint format
// kind 2), mirroring the detector's (see internal/core/snapshot.go for
// the cut semantics and canonical-encoding invariants). Candidate
// tables serialize per level as one global key-sorted sequence across
// shards; restore re-partitions deterministically, so shard count may
// change between save and load.
//
// Two pieces of engine state need care:
//
//   - the engine clock (now) serializes once, globally, as the maximum
//     over shards, and restores into every shard. Ticks forward a
//     global horizon (max of now and the latest record time) and the
//     final sweep ignores now entirely, so a shard whose private clock
//     lagged the global one behaves identically after restore;
//   - each level's oldest-activity bound is recomputed tight (the
//     minimum restored last activity) rather than serialized: the
//     bound only gates a skip-the-column-scan fast path, and a tighter
//     bound provably never changes which candidates close or what
//     alerts emit. Last activity encodes straight from the level's
//     last column, which is on the checkpoint time axis
//     (checkpoint.EncodeTime), so those bytes equal Enc.Time of the
//     decoded instant.

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/core"
	"v6scan/internal/dispatch"
	"v6scan/internal/netaddr6"
)

// Snapshot writes a consistent checkpoint of the engine at the given
// stream-time mark. The caller guarantees every record with timestamp
// before mark has been processed and none at or after it has.
func (e *Engine) Snapshot(w io.Writer, mark time.Time) error {
	return snapshotEngines(w, e.cfg, []*Engine{e}, mark)
}

// Snapshot writes a consistent checkpoint of the sharded engine: a
// dispatcher barrier drains in-flight batches, then all shards
// serialize as one canonical global snapshot — byte-identical to the
// snapshot an unsharded engine would write at the same cut.
func (se *ShardedEngine) Snapshot(w io.Writer, mark time.Time) error {
	if se.flushed {
		return fmt.Errorf("ids: ShardedEngine.Snapshot after Flush")
	}
	if err := se.disp.Barrier(); err != nil {
		return err
	}
	return snapshotEngines(w, se.cfg, se.shards, mark)
}

// RestoreEngine rebuilds an engine from a snapshot opened with
// checkpoint.NewReader.
func RestoreEngine(cr *checkpoint.Reader) (*Engine, error) {
	engines, err := restoreEngines(cr, 1, func(cfg Config) []*Engine {
		return []*Engine{New(cfg)}
	})
	if err != nil {
		return nil, err
	}
	return engines[0], nil
}

// RestoreShardedEngine rebuilds a sharded engine from a snapshot,
// re-partitioning every candidate deterministically across n shards —
// n need not match the shard count the snapshot was taken at.
func RestoreShardedEngine(cr *checkpoint.Reader, n int) (*ShardedEngine, error) {
	if n < 1 {
		n = 1
	}
	var se *ShardedEngine
	_, err := restoreEngines(cr, n, func(cfg Config) []*Engine {
		se = NewSharded(cfg, n)
		return se.shards
	})
	if err != nil {
		if se != nil {
			se.disp.Close()
		}
		return nil, err
	}
	se.lastSeen = cr.Header().Horizon
	return se, nil
}

func snapshotEngines(w io.Writer, cfg Config, engines []*Engine, mark time.Time) error {
	cw, err := checkpoint.NewWriter(w, checkpoint.KindIDS, mark)
	if err != nil {
		return err
	}
	var e checkpoint.Enc
	encodeIDSConfig(&e, cfg)
	if err := cw.Section(checkpoint.SecConfig, e.B); err != nil {
		return err
	}
	// One global section per level: candidates from every shard, sorted
	// by key, independent of shard count and map iteration order. The
	// one encoder buffer serves every section (Section does not retain
	// it).
	type live struct {
		c    *candidate
		last int64
	}
	var cands []live
	for li := range cfg.Levels {
		cands = cands[:0]
		for _, eng := range engines {
			lv := eng.levels[li]
			lv.idx.Range(func(_ netaddr6.U128, h uint32) bool {
				cands = append(cands, live{lv.candidate(h), lv.last[h]})
				return true
			})
		}
		slices.SortFunc(cands, func(a, b live) int { return a.c.key.Cmp(b.c.key) })
		e.B = e.B[:0]
		e.Varint(int64(cfg.Levels[li]))
		e.Uvarint(uint64(len(cands)))
		for _, lc := range cands {
			encodeCandidate(&e, lc.c, lc.last)
		}
		if err := cw.Section(checkpoint.SecLevel, e.B); err != nil {
			return err
		}
	}
	// Global engine state: the clock (max over shards), the drop
	// counter sum, and the pending alerts in a full total order (every
	// field is a tie-breaker, so the encoding is deterministic even if
	// two alerts collide on the sort keys Drain uses).
	e.B = e.B[:0]
	var now time.Time
	var dropped uint64
	var alerts []Alert
	for _, eng := range engines {
		if eng.now.After(now) {
			now = eng.now
		}
		dropped += eng.dropped.Load()
		alerts = append(alerts, eng.alerts...)
	}
	sortAlerts(alerts)
	e.Time(now)
	e.Uvarint(dropped)
	e.Uvarint(uint64(len(alerts)))
	for i := range alerts {
		encodeAlert(&e, &alerts[i])
	}
	if err := cw.Section(checkpoint.SecResults, e.B); err != nil {
		return err
	}
	return cw.Close()
}

func restoreEngines(cr *checkpoint.Reader, n int, mk func(cfg Config) []*Engine) ([]*Engine, error) {
	hdr := cr.Header()
	if hdr.Kind != checkpoint.KindIDS {
		return nil, fmt.Errorf("%w: snapshot kind %d, want ids (%d)",
			checkpoint.ErrFormat, hdr.Kind, checkpoint.KindIDS)
	}
	var (
		engines    []*Engine
		cfg        Config
		coarsest   netaddr6.AggLevel
		sawResults bool
	)
	for {
		kind, payload, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		dec := checkpoint.NewDec(payload)
		switch kind {
		case checkpoint.SecConfig:
			if engines != nil {
				return nil, fmt.Errorf("%w: duplicate config section", checkpoint.ErrFormat)
			}
			cfg = decodeIDSConfig(dec)
			if err := dec.Err(); err != nil {
				return nil, err
			}
			engines = mk(cfg)
			// mk normalizes through New, which re-sorts levels; use the
			// normalized config so section levels resolve identically.
			cfg = engines[0].cfg
			coarsest = core.CoarsestLevel(cfg.Levels)
		case checkpoint.SecLevel:
			if engines == nil {
				return nil, fmt.Errorf("%w: level section before config", checkpoint.ErrFormat)
			}
			li, err := idsLevelIndex(cfg.Levels, netaddr6.AggLevel(dec.Varint()))
			if err != nil {
				return nil, err
			}
			count := dec.Uvarint()
			for i := uint64(0); i < count && dec.Err() == nil; i++ {
				if err := decodeCandidate(dec, engines, li, coarsest, n); err != nil {
					return nil, err
				}
			}
			if err := dec.Err(); err != nil {
				return nil, err
			}
		case checkpoint.SecResults:
			if engines == nil {
				return nil, fmt.Errorf("%w: results section before config", checkpoint.ErrFormat)
			}
			if sawResults {
				return nil, fmt.Errorf("%w: duplicate results section", checkpoint.ErrFormat)
			}
			sawResults = true
			now := dec.Time()
			for _, eng := range engines {
				eng.now = now
			}
			engines[0].dropped.Store(dec.Uvarint())
			alertN := dec.Uvarint()
			for i := uint64(0); i < alertN && dec.Err() == nil; i++ {
				engines[0].alerts = append(engines[0].alerts, decodeAlert(dec))
			}
			if err := dec.Err(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unknown section kind %d", checkpoint.ErrFormat, kind)
		}
	}
	if engines == nil {
		return nil, fmt.Errorf("%w: missing config section", checkpoint.ErrFormat)
	}
	return engines, nil
}

func encodeIDSConfig(e *checkpoint.Enc, cfg Config) {
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

func decodeIDSConfig(d *checkpoint.Dec) Config {
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
	return cfg
}

func idsLevelIndex(levels []netaddr6.AggLevel, l netaddr6.AggLevel) (int, error) {
	for i, have := range levels {
		if have == l {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: level %v not in configuration", checkpoint.ErrFormat, l)
}

// encodeCandidate writes one candidate's logical state. The inline
// single-destination fast path and the materialized sketch encode as
// distinct shapes (the sketch's registers are its complete state; the
// inline destination is the whole state before materialization), so
// restore reproduces the exact representation and a re-snapshot the
// exact bytes. last is the candidate's last-column entry, already on
// Enc.Time's axis.
func encodeCandidate(e *checkpoint.Enc, c *candidate, last int64) {
	e.U64(c.key.Hi)
	e.U64(c.key.Lo)
	e.Uvarint(c.packets)
	e.Time(c.first)
	e.U64(uint64(last))
	if c.sketch == nil {
		e.U8(0)
		e.U64(c.firstDst.Hi)
		e.U64(c.firstDst.Lo)
		return
	}
	e.U8(1)
	e.U8(c.sketch.Precision())
	e.Raw(c.sketch.Registers())
}

// decodeCandidate rebuilds one candidate into its deterministic shard.
func decodeCandidate(d *checkpoint.Dec, engines []*Engine, li int, coarsest netaddr6.AggLevel, n int) error {
	key := netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
	shard := 0
	if n > 1 {
		shard = dispatch.Partition(key.ToAddr(), coarsest, n)
	}
	lv := engines[shard].levels[li]
	h, c := lv.alloc(key)
	c.packets = d.Uvarint()
	c.first = d.Time()
	last := int64(d.U64()) // Dec.Time's axis, kept as the column stores it
	switch flag := d.U8(); flag {
	case 0:
		c.firstDst = netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
	case 1:
		precision := d.U8()
		var regs []uint8
		if precision >= 4 && precision <= 16 {
			regs = d.Raw(1 << precision)
		}
		if err := d.Err(); err != nil {
			lv.recycle(h, c)
			return err
		}
		sketch, err := core.RestoreDstSketch(precision, regs)
		if err != nil {
			lv.recycle(h, c)
			return fmt.Errorf("%w: %v", checkpoint.ErrFormat, err)
		}
		c.sketch = sketch
	default:
		lv.recycle(h, c)
		return fmt.Errorf("%w: candidate sketch flag %d", checkpoint.ErrFormat, flag)
	}
	if err := d.Err(); err != nil {
		lv.recycle(h, c)
		return err
	}
	lv.idx.Put(key, h)
	lv.last[h] = last
	// Recompute the oldest-activity bound tight: the minimum restored
	// last activity (see the comment at the top of this file for why
	// tight vs the live engine's conservative bound cannot change
	// output).
	lv.oldest = min(lv.oldest, last)
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
