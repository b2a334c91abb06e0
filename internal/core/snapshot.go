package core

// Versioned snapshot/restore for the scan detector (checkpoint format
// kind 1). A snapshot is a consistent stream-time cut: it captures the
// detector exactly as it stood after processing every record with
// timestamp strictly before the mark — open sessions, accumulated
// scans, and drop counters. Restoring and replaying the records at or
// after the mark reconstructs the uninterrupted run byte-exactly.
//
// The sections are checkpoint.WriteBody's: per level, the sessions of
// every shard merged into one key-sorted sequence. Scans are written in
// Scans order, and every count list and address list in ascending key
// order — the order the counters and a Scan's slices already hold, so
// the encoder sorts nothing but the merged sessions and scans, and the
// decoder keeps what it reads, rejecting a list out of that order. So
// Snapshot∘Restore∘Snapshot is byte-identity (FuzzSnapshotRoundtrip),
// and a snapshot taken at N shards restores at any M ≥ 1: restore
// re-partitions each session deterministically (dispatch.Group's
// ShardFor, the routing the group applies to records).

import (
	"fmt"
	"io"
	"math"
	"net/netip"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/u128idx"
)

// preallocCap bounds slice/map preallocation hints taken from decoded
// counts, so a malformed length cannot demand gigabytes up front (the
// CRC makes this unreachable for accidental corruption; crafted inputs
// still only grow as real data arrives).
const preallocCap = 1 << 16

func preallocHint(n uint64) int { return int(min(n, preallocCap)) }

// Snapshot writes a consistent checkpoint of the detector at the given
// stream-time mark. The caller guarantees every record with timestamp
// before mark has been processed and none at or after it has (the
// pipeline checkpoint cadence arranges exactly this). The group's
// barrier drains in-flight batches first, which makes shard state
// readable; the bytes are the same at any shard count. The detector
// keeps its encoder buffers across cuts (checkpoint.Buffers), so cuts
// must not run concurrently.
//
// A snapshot holds every scan emitted since the run began, not only
// the open sessions, so each cut re-encodes all of them: a cut's size
// and time grow with the run, and a run cut every k records does work
// quadratic in its length.
func (sd *ShardedDetector) Snapshot(w io.Writer, mark time.Time) error {
	if err := sd.g.Sync(); err != nil {
		return err
	}
	sd.body.sd = sd
	return checkpoint.WriteBody(w, checkpoint.KindDetector, mark, &sd.body, &sd.bodyBuf)
}

// RestoreShardedDetector rebuilds a sharded detector from a snapshot
// opened with checkpoint.NewReader, re-partitioning every session
// deterministically across n shards — n need not match the shard count
// the snapshot was taken at.
func RestoreShardedDetector(cr *checkpoint.Reader, n int) (*ShardedDetector, error) {
	r := &detectorRestore{n: n, horizon: cr.Header().Horizon}
	if err := checkpoint.ReadBody(cr, checkpoint.KindDetector, r); err != nil {
		if r.sd != nil {
			r.sd.g.Close()
		}
		return nil, err
	}
	return r.sd, nil
}

// detectorBody is the detector's side of checkpoint.WriteBody. The
// ShardedDetector keeps one across its cuts.
type detectorBody struct {
	sd *ShardedDetector
	// scratch (with keyCounts, its sort's counters) and counts are the
	// reused sort buffers for every encoded address set and spilled
	// counter in the snapshot; each grows to the largest once and keeps
	// the encode loop allocation-free (TestEncodeSessionNoAllocs).
	scratch   []netaddr6.U128
	keyCounts []uint32
	counts    []countSlot
	// scans is Results' merge buffer, grown to the largest level once.
	scans []Scan
}

// liveSession is a gathered session and its last activity.
type liveSession struct {
	s    *session
	last int64
}

func (b *detectorBody) Levels() []netaddr6.AggLevel { return b.sd.cfg.Levels }

func (b *detectorBody) Config(e *checkpoint.Enc) {
	cfg := b.sd.cfg
	e.Uvarint(uint64(cfg.MinDsts))
	e.Varint(int64(cfg.Timeout))
	if cfg.TrackDsts {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.Time(cfg.WeekEpoch)
	e.Uvarint(uint64(len(cfg.Levels)))
	for _, l := range cfg.Levels {
		e.Varint(int64(l))
	}
}

func (b *detectorBody) Gather(dst []checkpoint.Keyed[liveSession], li int) []checkpoint.Keyed[liveSession] {
	for _, det := range b.sd.g.Shards() {
		tab := &det.levels[li].tab
		tab.Range(func(key netaddr6.U128, h uint32) bool {
			dst = append(dst, checkpoint.Keyed[liveSession]{Key: key, Val: liveSession{tab.At(h), tab.Last(h)}})
			return true
		})
	}
	return dst
}

// Entry writes one session's logical state: each inline-or-set pair is
// encoded as its sorted logical contents, so the in-memory
// representation (inline fast path vs materialized set, inline vs
// spilled counter) never reaches the wire. The counters are written in
// ascending key order: (proto, port) order, signed week order and
// length order, the order a Scan's slices hold. Last activity is
// already on Enc.Time's axis.
func (b *detectorBody) Entry(e *checkpoint.Enc, ls liveSession) {
	s := ls.s
	e.Time(s.start)
	e.U64(uint64(ls.last))
	e.Uvarint(s.packets)
	encodeU128Set(e, &b.scratch, &b.keyCounts, &s.dsts, s.firstDst)
	encodeU128Set(e, &b.scratch, &b.keyCounts, &s.srcs, s.firstSrc)
	e.Uvarint(uint64(s.ports.len()))
	s.ports.eachSorted(&b.counts, func(k uint32, n uint64) { encodeService(e, keyService(k), n) })
	e.Uvarint(uint64(s.weeks.len()))
	s.weeks.eachSorted(&b.counts, func(k uint32, n uint64) { encodeWeek(e, keyWeek(k), n) })
	e.Uvarint(uint64(s.lens.len()))
	s.lens.eachSorted(&b.counts, func(k uint32, n uint64) {
		e.Uvarint(uint64(k))
		e.Uvarint(n)
	})
}

// Results writes the accumulated results, merged across shards: per
// level the drop counter sum and the scans in their deterministic
// (start, source) order.
func (b *detectorBody) Results(e *checkpoint.Enc) {
	scans := b.scans
	for li, l := range b.sd.cfg.Levels {
		var dropped uint64
		scans = scans[:0]
		for _, det := range b.sd.g.Shards() {
			scans = append(scans, det.levels[li].scans...)
			dropped += det.levels[li].dropped
		}
		sortScans(scans)
		e.Varint(int64(l))
		e.Uvarint(dropped)
		e.Uvarint(uint64(len(scans)))
		for i := range scans {
			encodeScan(e, &scans[i])
		}
		clear(scans) // the buffer outlives the cut; the scans need not
	}
	b.scans = scans[:0]
}

// detectorRestore is the detector's side of checkpoint.ReadBody.
type detectorRestore struct {
	sd *ShardedDetector
	n  int
	// horizon is the replay horizon every shard's time-order guard
	// starts from.
	horizon time.Time
}

func (r *detectorRestore) Config(d *checkpoint.Dec) ([]netaddr6.AggLevel, error) {
	cfg := Config{
		MinDsts:   int(d.Uvarint()),
		Timeout:   time.Duration(d.Varint()),
		TrackDsts: d.U8() != 0,
		WeekEpoch: d.Time(),
	}
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		cfg.Levels = append(cfg.Levels, netaddr6.AggLevel(d.Varint()))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	r.sd = NewShardedDetector(cfg, r.n)
	for _, det := range r.sd.g.Shards() {
		det.lastTime = r.horizon
	}
	return r.sd.cfg.Levels, nil
}

// Entry rebuilds one session into the shard the group routes its
// records to.
func (r *detectorRestore) Entry(d *checkpoint.Dec, li int, key netaddr6.U128) error {
	ls := r.sd.g.Shards()[r.sd.g.ShardFor(key)].levels[li]
	var s session
	s.start = d.Time()
	last := int64(d.U64()) // Dec.Time's axis, kept as the table stores it
	s.packets = d.Uvarint()
	var err error
	if s.firstDst, err = decodeU128Set(d, &s.dsts); err != nil {
		return err
	}
	if s.firstSrc, err = decodeU128Set(d, &s.srcs); err != nil {
		return err
	}
	if err := decodeCounts(d, decodeSvcKey, s.ports.add); err != nil {
		return err
	}
	if err := decodeCounts(d, decodeWeekKey, func(k uint32, n uint64) { s.weekCounts().add(k, n) }); err != nil {
		return err
	}
	if err := decodeCounts(d, decodeLenKey, s.lens.add); err != nil {
		return err
	}
	h, _ := ls.tab.Ref(key, last) // keys arrive strictly ascending
	*ls.tab.At(h) = s
	return nil
}

// Results restores the accumulated results into shard 0: the
// deterministic merge at Finish makes their placement invisible.
func (r *detectorRestore) Results(d *checkpoint.Dec) error {
	for d.Len() > 0 {
		li, err := d.Level(r.sd.cfg.Levels)
		if err != nil {
			return err
		}
		ls := r.sd.g.Shards()[0].levels[li]
		ls.dropped = d.Uvarint()
		n := d.Uvarint()
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			s, err := decodeScan(d)
			if err != nil {
				return err
			}
			ls.scans = append(ls.scans, s)
		}
	}
	return nil
}

// encodeU128Set writes the logical address set of an inline-or-set
// pair: the set's canonical (sorted) members when materialized (always
// ≥ 2 entries, including the first value), the single inline value
// otherwise. scratch and keyCounts are the reused sort buffers
// (u128idx.Set.AppendSorted) threaded through the encoder so repeated
// sections don't allocate.
func encodeU128Set(e *checkpoint.Enc, scratch *[]netaddr6.U128, keyCounts *[]uint32, set *u128idx.Set, first netaddr6.U128) {
	if set.Len() == 0 {
		e.Uvarint(1)
		e.U64(first.Hi)
		e.U64(first.Lo)
		return
	}
	keys := set.AppendSorted((*scratch)[:0], keyCounts)
	*scratch = keys
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.U64(k.Hi)
		e.U64(k.Lo)
	}
}

// decodeU128Set fills set (assumed empty) with the encoded members and
// returns the first value; a single-member set stays on the inline
// fast path (set left empty), exactly as live ingestion would leave it.
// Members must be strictly ascending, the order encodeU128Set writes;
// anything else fails with checkpoint.ErrFormat.
func decodeU128Set(d *checkpoint.Dec, set *u128idx.Set) (netaddr6.U128, error) {
	n := d.Uvarint()
	if n == 0 || d.Err() != nil {
		return netaddr6.U128{}, fmt.Errorf("%w: empty address set", checkpoint.ErrFormat)
	}
	first := netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
	if n == 1 {
		return first, nil
	}
	set.Add(first)
	for i, prev := uint64(1), first; i < n && d.Err() == nil; i++ {
		a := netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
		if d.Err() == nil && a.Cmp(prev) <= 0 {
			return first, fmt.Errorf("%w: address set not ascending", checkpoint.ErrFormat)
		}
		set.Add(a)
		prev = a
	}
	return first, d.Err()
}

func encodeService(e *checkpoint.Enc, s firewall.Service, n uint64) {
	e.U8(uint8(s.Proto))
	e.Uvarint(uint64(s.Port))
	e.Uvarint(n)
}

func encodeWeek(e *checkpoint.Enc, w int, n uint64) {
	e.Varint(int64(w))
	e.Uvarint(n)
}

// decodeCounts reads a count list: its length, then per entry a key,
// decoded by key, and its count, handed to add. Keys must be in range
// and strictly ascending, the order every count list is written in;
// anything else fails with checkpoint.ErrFormat.
func decodeCounts(d *checkpoint.Dec, key func(*checkpoint.Dec) (uint32, bool), add func(k uint32, n uint64)) error {
	var prev uint32
	for i, n := uint64(0), d.Uvarint(); i < n && d.Err() == nil; i++ {
		k, ok := key(d)
		switch {
		case d.Err() != nil:
			return d.Err()
		case !ok:
			return fmt.Errorf("%w: count key out of range", checkpoint.ErrFormat)
		case i > 0 && k <= prev:
			return fmt.Errorf("%w: count keys not ascending", checkpoint.ErrFormat)
		}
		prev = k
		add(k, d.Uvarint())
	}
	return d.Err()
}

// decodeSvcKey reads an encodeService service as its svcKey.
func decodeSvcKey(d *checkpoint.Dec) (uint32, bool) {
	proto, port := d.U8(), d.Uvarint()
	return svcKey(firewall.Service{Proto: layers.IPProtocol(proto), Port: uint16(port)}), port <= math.MaxUint16
}

// decodeWeekKey reads an encodeWeek week as its weekKey.
func decodeWeekKey(d *checkpoint.Dec) (uint32, bool) {
	w := d.Varint()
	return weekKey(int32(w)), w == int64(int32(w))
}

// decodeLenKey reads a packet length, a uint16 on the wire's uvarint.
func decodeLenKey(d *checkpoint.Dec) (uint32, bool) {
	v := d.Uvarint()
	return uint32(v), v <= math.MaxUint16
}

func encodeScan(e *checkpoint.Enc, s *Scan) {
	src := netaddr6.ToU128(s.Source.Addr())
	e.U64(src.Hi)
	e.U64(src.Lo)
	e.Varint(int64(s.Source.Bits()))
	e.Time(s.Start)
	e.Time(s.End)
	e.Uvarint(s.Packets)
	e.Uvarint(uint64(s.Dsts))
	e.Uvarint(uint64(s.SrcAddrs))
	e.F64(s.LenEntropy)
	e.Uvarint(uint64(len(s.DstAddrs)))
	for _, a := range s.DstAddrs {
		u := netaddr6.ToU128(a)
		e.U64(u.Hi)
		e.U64(u.Lo)
	}
	e.Uvarint(uint64(len(s.Ports)))
	for _, p := range s.Ports {
		encodeService(e, p.Service, p.Packets)
	}
	e.Uvarint(uint64(len(s.WeekPackets)))
	for _, w := range s.WeekPackets {
		encodeWeek(e, w.Week, w.Packets)
	}
}

// decodeScan reads an encodeScan scan, keeping its lists in the order
// read, which must be ascending as Scan's fields promise.
func decodeScan(d *checkpoint.Dec) (Scan, error) {
	src := netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
	bits := int(d.Varint())
	s := Scan{
		Source:     netip.PrefixFrom(src.ToAddr(), bits),
		Level:      netaddr6.AggLevel(bits),
		Start:      d.Time(),
		End:        d.Time(),
		Packets:    d.Uvarint(),
		Dsts:       int(d.Uvarint()),
		SrcAddrs:   int(d.Uvarint()),
		LenEntropy: d.F64(),
	}
	if n := d.Uvarint(); n > 0 {
		s.DstAddrs = make([]netip.Addr, 0, preallocHint(n))
		var prev netaddr6.U128
		for i := uint64(0); i < n; i++ {
			a := netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
			if err := d.Err(); err != nil {
				return s, err
			}
			if i > 0 && a.Cmp(prev) <= 0 {
				return s, fmt.Errorf("%w: scan destinations not ascending", checkpoint.ErrFormat)
			}
			prev = a
			s.DstAddrs = append(s.DstAddrs, a.ToAddr())
		}
	}
	if err := decodeCounts(d, decodeSvcKey, func(k uint32, n uint64) {
		s.Ports = append(s.Ports, PortCount{keyService(k), n})
	}); err != nil {
		return s, err
	}
	err := decodeCounts(d, decodeWeekKey, func(k uint32, n uint64) {
		s.WeekPackets = append(s.WeekPackets, WeekCount{keyWeek(k), n})
	})
	return s, err
}
