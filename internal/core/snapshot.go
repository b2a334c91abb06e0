package core

// Versioned snapshot/restore for the scan detector (checkpoint format
// kind 1). A snapshot is a consistent stream-time cut: it captures the
// detector exactly as it stood after processing every record with
// timestamp strictly before the mark — open sessions, accumulated
// scans, and drop counters. Restoring and replaying the records at or
// after the mark reconstructs the uninterrupted run byte-exactly.
//
// The sections are checkpoint.WriteBody's: per level, the sessions of
// every shard merged into one key-sorted sequence. Scans and map
// entries are written in canonical order too. So
// Snapshot∘Restore∘Snapshot is byte-identity (FuzzSnapshotRoundtrip),
// and a snapshot taken at N shards restores at any M ≥ 1: restore
// re-partitions each session deterministically (dispatch.Partition
// over the coarsest level, the routing the dispatcher applies to
// records).

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/dispatch"
	"v6scan/internal/entropy"
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
// pipeline checkpoint cadence arranges exactly this). A dispatcher
// barrier drains in-flight batches first, which makes shard state
// readable; the bytes are the same at any shard count.
func (sd *ShardedDetector) Snapshot(w io.Writer, mark time.Time) error {
	if sd.finished {
		return fmt.Errorf("core: ShardedDetector.Snapshot after Finish")
	}
	if err := sd.disp.Barrier(); err != nil {
		return err
	}
	return checkpoint.WriteBody(w, checkpoint.KindDetector, mark, &detectorBody{sd: sd})
}

// RestoreShardedDetector rebuilds a sharded detector from a snapshot
// opened with checkpoint.NewReader, re-partitioning every session
// deterministically across n shards — n need not match the shard count
// the snapshot was taken at.
func RestoreShardedDetector(cr *checkpoint.Reader, n int) (*ShardedDetector, error) {
	r := &detectorRestore{n: n, horizon: cr.Header().Horizon}
	if err := checkpoint.ReadBody(cr, checkpoint.KindDetector, r); err != nil {
		if r.sd != nil {
			r.sd.disp.Close()
		}
		return nil, err
	}
	return r.sd, nil
}

// detectorBody is the detector's side of checkpoint.WriteBody.
type detectorBody struct {
	sd *ShardedDetector
	// scratch is the reused sort buffer for every encoded address set
	// in the snapshot; it grows to the largest set once and keeps the
	// encode loop allocation-free (pinned by an allocs test).
	scratch []netaddr6.U128
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
	for _, det := range b.sd.shards {
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
// representation (inline fast path vs materialized set) never reaches
// the wire. Last activity is already on Enc.Time's axis.
func (b *detectorBody) Entry(e *checkpoint.Enc, ls liveSession) {
	s := ls.s
	e.Time(s.start)
	e.U64(uint64(ls.last))
	e.Uvarint(s.packets)
	encodeU128Set(e, &b.scratch, &s.dsts, s.firstDst)
	encodeU128Set(e, &b.scratch, &s.srcs, s.firstSrc)
	encodePorts(e, s.ports, s.firstSvc, s.svcN)
	encodeWeeks(e, s.weeks, int(s.firstWeek), s.weekN)
	encodeCounter(e, &s.lenCounter)
}

// Results writes the accumulated results, merged across shards: per
// level the drop counter sum and the scans in their deterministic
// (start, source) order.
func (b *detectorBody) Results(e *checkpoint.Enc) {
	var scans []Scan
	for li, l := range b.sd.cfg.Levels {
		var dropped uint64
		scans = scans[:0]
		for _, det := range b.sd.shards {
			scans = append(scans, det.levels[li].scans...)
			dropped += det.levels[li].dropped
		}
		sort.Slice(scans, func(i, j int) bool {
			if !scans[i].Start.Equal(scans[j].Start) {
				return scans[i].Start.Before(scans[j].Start)
			}
			return scans[i].Source.Addr().Compare(scans[j].Source.Addr()) < 0
		})
		e.Varint(int64(l))
		e.Uvarint(dropped)
		e.Uvarint(uint64(len(scans)))
		for i := range scans {
			encodeScan(e, &scans[i])
		}
	}
}

// detectorRestore is the detector's side of checkpoint.ReadBody.
type detectorRestore struct {
	sd *ShardedDetector
	n  int
	// coarsest is the level sessions are routed to shards by.
	coarsest netaddr6.AggLevel
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
	r.coarsest = dispatch.CoarsestLevel(r.sd.cfg.Levels)
	for _, det := range r.sd.shards {
		det.lastTime = r.horizon
	}
	return r.sd.cfg.Levels, nil
}

// Entry rebuilds one session into its deterministic shard
// (dispatch.Partition over the coarsest level — the same routing the
// dispatcher applies to the session's records).
func (r *detectorRestore) Entry(d *checkpoint.Dec, li int, key netaddr6.U128) error {
	ls := r.sd.shards[dispatch.Partition(key.ToAddr(), r.coarsest, len(r.sd.shards))].levels[li]
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
	s.ports, s.firstSvc, s.svcN = decodePorts(d)
	var week int
	s.weeks, week, s.weekN = decodeWeeks(d)
	s.firstWeek = int32(week)
	decodeCounter(d, &s.lenCounter)
	if err := d.Err(); err != nil {
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
		ls := r.sd.shards[0].levels[li]
		ls.dropped = d.Uvarint()
		n := d.Uvarint()
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			ls.scans = append(ls.scans, decodeScan(d))
		}
	}
	return nil
}

// encodeU128Set writes the logical address set of an inline-or-set
// pair: the set's canonical (sorted) members when materialized (always
// ≥ 2 entries, including the first value), the single inline value
// otherwise. scratch is a reused sort buffer threaded through the
// encoder so repeated sections don't allocate.
func encodeU128Set(e *checkpoint.Enc, scratch *[]netaddr6.U128, set *u128idx.Set, first netaddr6.U128) {
	if set.Len() == 0 {
		e.Uvarint(1)
		e.U64(first.Hi)
		e.U64(first.Lo)
		return
	}
	keys := set.AppendSorted((*scratch)[:0])
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
	for i := uint64(1); i < n && d.Err() == nil; i++ {
		set.Add(netaddr6.U128{Hi: d.U64(), Lo: d.U64()})
	}
	return first, d.Err()
}

// encodePorts writes an inline-or-map service count pair as its
// logical contents: the map's entries in (proto, port) order when
// materialized, the single inline pair otherwise.
func encodePorts(e *checkpoint.Enc, m map[firewall.Service]uint64, first firewall.Service, firstN uint64) {
	if len(m) == 0 {
		e.Uvarint(1)
		encodeService(e, first, firstN)
		return
	}
	encodePortMap(e, m)
}

// encodePortMap writes a service count map in (proto, port) order.
func encodePortMap(e *checkpoint.Enc, m map[firewall.Service]uint64) {
	svcs := make([]firewall.Service, 0, len(m))
	for s := range m {
		svcs = append(svcs, s)
	}
	sort.Slice(svcs, func(i, j int) bool {
		if svcs[i].Proto != svcs[j].Proto {
			return svcs[i].Proto < svcs[j].Proto
		}
		return svcs[i].Port < svcs[j].Port
	})
	e.Uvarint(uint64(len(svcs)))
	for _, s := range svcs {
		encodeService(e, s, m[s])
	}
}

func encodeService(e *checkpoint.Enc, s firewall.Service, n uint64) {
	e.U8(uint8(s.Proto))
	e.Uvarint(uint64(s.Port))
	e.Uvarint(n)
}

// decodePorts reads what encodePorts wrote; a single entry stays on
// the inline pair, exactly as live ingestion would leave it.
func decodePorts(d *checkpoint.Dec) (map[firewall.Service]uint64, firewall.Service, uint64) {
	switch n := d.Uvarint(); n {
	case 0:
		return nil, firewall.Service{}, 0
	case 1:
		return nil, decodeService(d), d.Uvarint()
	default:
		// The inline pair is never consulted once the map is
		// materialized; leave it zero.
		return decodePortMap(d, n, inlineMapHint), firewall.Service{}, 0
	}
}

func decodeService(d *checkpoint.Dec) firewall.Service {
	return firewall.Service{Proto: layers.IPProtocol(d.U8()), Port: uint16(d.Uvarint())}
}

// decodePortMap reads n encodeService entries into a map sized by hint.
func decodePortMap(d *checkpoint.Dec, n uint64, hint int) map[firewall.Service]uint64 {
	m := make(map[firewall.Service]uint64, hint)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		s := decodeService(d)
		m[s] = d.Uvarint()
	}
	return m
}

func encodeWeeks(e *checkpoint.Enc, m map[int]uint64, first int, firstN uint64) {
	if len(m) == 0 {
		if firstN == 0 {
			e.Uvarint(0)
			return
		}
		e.Uvarint(1)
		e.Varint(int64(first))
		e.Uvarint(firstN)
		return
	}
	weeks := make([]int, 0, len(m))
	for w := range m {
		weeks = append(weeks, w)
	}
	sort.Ints(weeks)
	e.Uvarint(uint64(len(weeks)))
	for _, w := range weeks {
		e.Varint(int64(w))
		e.Uvarint(m[w])
	}
}

// decodeWeeks reads what encodeWeeks wrote; a single entry stays on
// the inline pair, exactly as live ingestion would leave it.
func decodeWeeks(d *checkpoint.Dec) (map[int]uint64, int, uint64) {
	switch n := d.Uvarint(); n {
	case 0:
		return nil, 0, 0
	case 1:
		return nil, int(d.Varint()), d.Uvarint()
	default:
		return decodeWeekMap(d, n, inlineMapHint), 0, 0
	}
}

// decodeWeekMap reads n (week, count) entries into a map sized by hint.
func decodeWeekMap(d *checkpoint.Dec, n uint64, hint int) map[int]uint64 {
	m := make(map[int]uint64, hint)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		w := int(d.Varint())
		m[w] = d.Uvarint()
	}
	return m
}

// encodeCounter writes an entropy counter's (value, count) pairs in
// value order.
func encodeCounter(e *checkpoint.Enc, c *entropy.Counter) {
	type vc struct{ v, n uint64 }
	var pairs []vc
	c.Each(func(v, n uint64) { pairs = append(pairs, vc{v, n}) })
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	e.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		e.Uvarint(p.v)
		e.Uvarint(p.n)
	}
}

// decodeCounter rebuilds a counter by replaying its observations in
// value order; a single distinct value lands on the inline fast path,
// exactly as live ingestion would leave it.
func decodeCounter(d *checkpoint.Dec, c *entropy.Counter) {
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		v := d.Uvarint()
		c.ObserveN(v, d.Uvarint())
	}
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
	addrs := append([]netip.Addr(nil), s.DstAddrs...)
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
	e.Uvarint(uint64(len(addrs)))
	for _, a := range addrs {
		u := netaddr6.ToU128(a)
		e.U64(u.Hi)
		e.U64(u.Lo)
	}
	encodePortMap(e, s.Ports)
	encodeWeeks(e, s.WeekPackets, 0, 0)
}

func decodeScan(d *checkpoint.Dec) Scan {
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
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			s.DstAddrs = append(s.DstAddrs, netaddr6.U128{Hi: d.U64(), Lo: d.U64()}.ToAddr())
		}
	}
	// Scan results hold real maps, never the inline pairs.
	pn := d.Uvarint()
	s.Ports = decodePortMap(d, pn, preallocHint(pn))
	if wn := d.Uvarint(); wn > 0 {
		s.WeekPackets = decodeWeekMap(d, wn, preallocHint(wn))
	}
	return s
}
