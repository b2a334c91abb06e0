// Package core implements the paper's scan-detection methodology:
//
//   - the large-scale scan definition of Section 2.2 — a source
//     targeting at least 100 distinct destination IPv6 addresses with a
//     maximum packet inter-arrival time of 3,600 seconds;
//   - multi-level source aggregation (/128, /64, /48, and arbitrary
//     prefixes such as the /32 case study), applied *before* the scan
//     definition, which the paper shows changes results dramatically;
//   - the ports-per-scan classifier of Appendix A.3 (the f-rule);
//   - the MAWI detector of Section 4, an extended Fukuda–Heidemann
//     definition adding a destination threshold and a packet-length
//     entropy criterion (mawi.go).
//
// The detector is a single-pass streaming algorithm: records arrive in
// time order, per-source sessions close when the timeout elapses, and
// closed sessions that meet the destination threshold are emitted as
// scans. Memory is proportional to concurrently active sources, which
// is what an inline IDS deployment would consume.
//
// # State table and small-set cutoffs
//
// Each level's sessions live in a u128idx.Table keyed by masked
// source, which also files every session by its last activity in a
// timing wheel, so Advance is one Expire sweep that visits only the
// sessions that may be due — the IDS engine's candidates live in the
// same table. Expire's visit order is the wheel's; Scans and the
// checkpoint sort the scans (sortScans). Per-session
// destination/source sets are u128idx.Set values with an inline
// sorted-array fast path (cutoff u128idx.SmallSetSpill = 16) before
// spilling to an index. Sessions additionally keep their very first
// destination and source inline and materialize a set only on the
// second distinct value, because at fine aggregation levels most
// sessions close after a handful of packets.
//
// Packets per service, per week and per packet length are counted by
// keyCounts, the one per-key counter, over packed uint32 keys whose
// arrays hold no pointers: up to countsInline = 4 keys in a sorted
// array inside the session, an open-addressed table past that. Keys
// per session are bimodal — most sessions count one service and one
// week, the port sweepers count dozens to hundreds of services — so
// the common session counts with a short scan of one cache line and no
// hashing, the sweepers hash into a table their handle keeps for its
// next session, and no session holds a Go map. The week counter is
// allocated on a session's first weekly add, so a detector without
// weekly tracking carries a nil pointer. The MAWI detector counts its
// flows' packet lengths with the same counter.
//
// A counter's ascending key order is the only order a scan's counts
// have: a qualifying session's counters become the Scan's Ports and
// WeekPackets slices at emit, in that order, its length counter gives
// LenEntropy summed in that order, and the checkpoint writes sessions
// and scans in that order and keeps it as read.
package core

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
	"v6scan/internal/u128idx"
)

// Config parameterizes scan detection.
type Config struct {
	// MinDsts is the minimum number of distinct destination addresses
	// for a session to qualify as a scan (paper: 100; sensitivity
	// analysis also uses 50; related work used 25 and 5).
	MinDsts int
	// Timeout is the maximum packet inter-arrival time within one scan
	// session (paper: 3600 s; sensitivity: 1800 s, 900 s).
	Timeout time.Duration
	// Levels are the source-aggregation levels to track simultaneously.
	Levels []netaddr6.AggLevel
	// TrackDsts retains each scan's distinct destination addresses,
	// needed for the DNS-provenance and targeting analyses. Costs
	// memory proportional to distinct (scan, destination) pairs.
	TrackDsts bool
	// WeekEpoch anchors per-scan weekly packet attribution (Figures 2
	// and 3). Zero disables weekly tracking.
	WeekEpoch time.Time
}

// DefaultConfig returns the paper's parameters at the three tabulated
// aggregation levels.
func DefaultConfig() Config {
	return Config{
		MinDsts: 100,
		Timeout: 3600 * time.Second,
		Levels:  netaddr6.Levels(),
	}
}

// Scan is one detected scan event: a maximal session of packets from
// one aggregated source with inter-arrival gaps below the timeout and
// at least MinDsts distinct destinations.
type Scan struct {
	Source netip.Prefix      // aggregated source prefix
	Level  netaddr6.AggLevel // aggregation level the scan was detected at
	Start  time.Time         // first packet
	End    time.Time         // last packet

	Packets uint64
	// Dsts is the number of distinct destination addresses.
	Dsts int
	// DstAddrs holds the distinct destinations in ascending order when
	// Config.TrackDsts is set.
	DstAddrs []netip.Addr
	// SrcAddrs is the number of distinct /128 source addresses the
	// aggregate emitted from during the session.
	SrcAddrs int
	// Ports counts packets per targeted service, one entry per
	// service, ascending by (protocol, port).
	Ports []PortCount
	// WeekPackets counts packets per week index relative to
	// Config.WeekEpoch, one entry per week, ascending by week; nil
	// when weekly tracking is disabled.
	WeekPackets []WeekCount
	// LenEntropy is the normalized packet-length entropy of the
	// session (scan traffic is near 0).
	LenEntropy float64
}

// PortCount is a scan's packet count on one service.
type PortCount struct {
	Service firewall.Service
	Packets uint64
}

// WeekCount is a scan's packet count in one week.
type WeekCount struct {
	Week    int
	Packets uint64
}

// Duration returns the scan's wall-clock span.
func (s *Scan) Duration() time.Duration { return s.End.Sub(s.Start) }

// NumPorts returns the number of distinct services targeted.
func (s *Scan) NumPorts() int { return len(s.Ports) }

// session is the in-flight state for one aggregated source. The
// address sets are u128idx.Set values — pointer-free U128 keys with an
// inline sorted-array fast path — rather than netip.Addr maps: the
// detector's working set is dominated by these sets, and flat value
// storage keeps the garbage collector from tracing millions of
// interned-zone pointers on every cycle. Ports, weeks and packet
// lengths are keyCounts over svcKey, weekKey and uint32(Record.Length)
// keys, for the same reason and to spare the per-packet map hashing.
// A session is 456 bytes, 64 each for its port and length counters.
//
// Sessions additionally hold their first destination and source inline
// and materialize the sets only on the second distinct value: at fine
// aggregation levels the overwhelming majority of sessions are
// short-lived background sources that close below the threshold, and
// the fast path spares the set work entirely.
//
// Sessions themselves are the values of a per-level u128idx.Table,
// whose handles are reused when sessions close: the detector's
// steady-state ingest otherwise allocates one session per source per
// level, which dominates the allocation rate on million-record days.
// The table also holds each session's source key and last activity. A
// closed session keeps its emptied sets and counters (reset), so the
// "materialized" state is Len() > 0, not non-nil.
type session struct {
	start   time.Time
	packets uint64

	firstDst, firstSrc netaddr6.U128

	dsts  u128idx.Set
	srcs  u128idx.Set
	ports keyCounts  // by svcKey
	weeks *keyCounts // by weekKey; nil until the first weekly add
	lens  keyCounts  // by uint32(Record.Length)
}

func (s *session) addDst(d netaddr6.U128) {
	if s.dsts.Len() == 0 {
		if d == s.firstDst {
			return
		}
		s.dsts.Add(s.firstDst)
	}
	s.dsts.Add(d)
}

func (s *session) addSrc(a netaddr6.U128) {
	if s.srcs.Len() == 0 {
		if a == s.firstSrc {
			return
		}
		s.srcs.Add(s.firstSrc)
	}
	s.srcs.Add(a)
}

// weekCounts returns the session's week counter, allocating it on the
// first weekly add: a detector without Config.WeekEpoch never counts
// weeks, so its sessions carry a nil pointer instead of a counter.
// reset keeps the counter for the handle's next session.
func (s *session) weekCounts() *keyCounts {
	if s.weeks == nil {
		s.weeks = new(keyCounts)
	}
	return s.weeks
}

func (s *session) numDsts() int {
	if n := s.dsts.Len(); n > 0 {
		return n
	}
	return 1
}

func (s *session) numSrcs() int {
	if n := s.srcs.Len(); n > 0 {
		return n
	}
	return 1
}

// reset empties a closed session for its handle's next use, keeping
// its sets' and counters' storage, so reopened sessions skip
// re-materialization.
func (s *session) reset() {
	s.start, s.packets = time.Time{}, 0
	s.firstDst, s.firstSrc = netaddr6.U128{}, netaddr6.U128{}
	s.dsts.Reset()
	s.srcs.Reset()
	s.ports.reset()
	s.weeks.reset()
	s.lens.reset()
}

// levelState tracks all sessions at one aggregation level, keyed by
// the masked 128-bit source (the prefix length is the level itself),
// with last activity on the checkpoint time axis
// (checkpoint.EncodeTime).
type levelState struct {
	level netaddr6.AggLevel
	tab   u128idx.Table[session]
	scans []Scan
	// dropped counts sessions that closed below the destination
	// threshold (useful for diagnostics and the Figure 1 discussion).
	dropped uint64
}

// Detector runs the scan definition at several aggregation levels in a
// single pass over a time-ordered record stream.
type Detector struct {
	cfg    Config
	levels []*levelState
	// lastTime guards the time-ordering contract.
	lastTime time.Time

	// Per-batch scratch: ProcessBatch converts each record's
	// time/destination/service/week once up front (the last two as
	// keyCounts keys), then replays them across all levels, so the
	// per-level loop touches only flat arrays.
	scrAt   []int64
	scrDst  []netaddr6.U128
	scrSvc  []uint32
	scrWeek []uint32
	// dstOut is the canonical-order scratch for TrackDsts emission and
	// dstCounts its sort's counters; counts is the sort buffer for
	// emitting spilled counters.
	dstOut    []netaddr6.U128
	dstCounts []uint32
	counts    []countSlot
	// one backs the Process single-record wrapper.
	one [1]firewall.Record
}

// NewDetector returns a detector for the given configuration.
func NewDetector(cfg Config) *Detector {
	if cfg.MinDsts <= 0 {
		cfg.MinDsts = 100
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Hour
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = netaddr6.Levels()
	}
	d := &Detector{cfg: cfg}
	for _, l := range cfg.Levels {
		d.levels = append(d.levels, &levelState{level: l})
	}
	return d
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Process ingests one record. Records must be in non-decreasing time
// order; out-of-order input returns an error (small reorderings should
// be sorted by the caller — the simulator sorts per day).
func (d *Detector) Process(r firewall.Record) error {
	d.one[0] = r
	return d.ProcessBatch(d.one[:])
}

// ProcessBatch ingests records in order, with the same time-ordering
// contract as Process: on an out-of-order record it processes the
// in-order prefix and returns the same error Process would.
//
// Batches are where the detector earns its keep: adjacent records from
// the same source (the shape dispatch staging and real scan traffic
// produce) are grouped into runs, so N records to one source cost one
// index probe per aggregation level instead of N map lookups.
func (d *Detector) ProcessBatch(recs []firewall.Record) error {
	for i := 0; i < len(recs); {
		r0 := recs[i]
		if r0.Time.Before(d.lastTime) {
			return fmt.Errorf("core: record at %v before previous %v; detector requires time order", r0.Time, d.lastTime)
		}
		if !netaddr6.IsIPv6(r0.Src) {
			d.lastTime = r0.Time
			panic("core: Process on non-IPv6 source " + r0.Src.String())
		}
		// A run is a maximal span of same-source records in time order;
		// a time violation breaks the run so the prefix is processed
		// before the next iteration reports the error.
		j := i + 1
		for j < len(recs) && recs[j].Src == r0.Src && !recs[j].Time.Before(recs[j-1].Time) {
			j++
		}
		d.ingestRun(recs[i:j])
		d.lastTime = recs[j-1].Time
		i = j
	}
	return nil
}

// ingestRun applies one same-source run of in-order records: a single
// table probe per level resolves (or creates) the session, and each
// record then updates it through the cached pointer. A mid-run timeout
// gap closes the session and reopens it under the same handle.
func (d *Detector) ingestRun(rs []firewall.Record) {
	weekly := !d.cfg.WeekEpoch.IsZero()
	d.scrAt = d.scrAt[:0]
	d.scrDst = d.scrDst[:0]
	d.scrSvc = d.scrSvc[:0]
	if weekly {
		d.scrWeek = d.scrWeek[:0]
	}
	for _, r := range rs {
		d.scrAt = append(d.scrAt, checkpoint.EncodeTime(r.Time))
		d.scrDst = append(d.scrDst, netaddr6.ToU128(r.Dst))
		d.scrSvc = append(d.scrSvc, svcKey(r.Service()))
		if weekly {
			d.scrWeek = append(d.scrWeek, weekKey(int32(weekIndex(d.cfg.WeekEpoch, r.Time))))
		}
	}
	src := netaddr6.ToU128(rs[0].Src)
	timeout := int64(d.cfg.Timeout)
	for _, ls := range d.levels {
		h, open := ls.tab.Ref(src.Mask(int(ls.level)), d.scrAt[0])
		s := ls.tab.At(h)
		for k, r := range rs {
			at := d.scrAt[k]
			if open && ls.tab.Last(h) < u128idx.Cutoff(at, timeout) {
				d.emitOrDrop(ls, h)
				open = false
			}
			ls.tab.Touch(h, at)
			if open {
				s.addDst(d.scrDst[k])
				s.addSrc(src)
			} else {
				open = true
				s.start = r.Time
				s.firstDst, s.firstSrc = d.scrDst[k], src
			}
			s.packets++
			s.ports.add(d.scrSvc[k], 1)
			if weekly {
				s.weekCounts().add(d.scrWeek[k], 1)
			}
			s.lens.add(uint32(r.Length), 1)
		}
	}
}

// Advance closes every session whose timeout has elapsed as of now.
// Callers streaming bounded-memory deployments call this periodically;
// batch analyses can skip it and rely on Finish.
func (d *Detector) Advance(now time.Time) {
	d.expire(u128idx.Cutoff(checkpoint.EncodeTime(now), int64(d.cfg.Timeout)))
}

// Finish closes all open sessions and returns the detector to a clean
// state. Call once after the final record.
func (d *Detector) Finish() { d.expire(u128idx.ExpireAll) }

// expire closes every session at every level that the table's Expire
// finds due at cutoff.
func (d *Detector) expire(cutoff int64) {
	for _, ls := range d.levels {
		ls.tab.Expire(cutoff, func(h uint32) {
			d.emitOrDrop(ls, h)
			ls.tab.Release(h)
		})
	}
}

// emitOrDrop evaluates the closing session at handle h against the
// scan definition, emits it as a Scan when it qualifies, and resets it.
// The caller owns the table entry: ingestRun reopens it when a
// timed-out session is replaced, expire releases it.
func (d *Detector) emitOrDrop(ls *levelState, h uint32) {
	s := ls.tab.At(h)
	defer s.reset()
	if s.numDsts() < d.cfg.MinDsts {
		ls.dropped++
		return
	}
	// Qualifying sessions are the rare case, and the only place the
	// counters become slices, in the counters' ascending key order.
	scan := Scan{
		Source:     netip.PrefixFrom(ls.tab.Key(h).ToAddr(), int(ls.level)),
		Level:      ls.level,
		Start:      s.start,
		End:        checkpoint.DecodeTime(ls.tab.Last(h)),
		Packets:    s.packets,
		Dsts:       s.numDsts(),
		SrcAddrs:   s.numSrcs(),
		Ports:      make([]PortCount, 0, s.ports.len()),
		LenEntropy: s.lens.normalizedEntropy(&d.counts),
	}
	s.ports.eachSorted(&d.counts, func(k uint32, n uint64) {
		scan.Ports = append(scan.Ports, PortCount{keyService(k), n})
	})
	if s.weeks.len() > 0 {
		scan.WeekPackets = make([]WeekCount, 0, s.weeks.len())
		s.weeks.eachSorted(&d.counts, func(k uint32, n uint64) {
			scan.WeekPackets = append(scan.WeekPackets, WeekCount{keyWeek(k), n})
		})
	}
	if d.cfg.TrackDsts {
		scan.DstAddrs = make([]netip.Addr, 0, s.numDsts())
		if s.dsts.Len() == 0 {
			scan.DstAddrs = append(scan.DstAddrs, s.firstDst.ToAddr())
		} else {
			// Set iteration is canonical (ascending U128), which for
			// 16-byte addresses is exactly netip.Addr.Compare order:
			// the ascending order DstAddrs promises.
			d.dstOut = s.dsts.AppendSorted(d.dstOut[:0], &d.dstCounts)
			for _, a := range d.dstOut {
				scan.DstAddrs = append(scan.DstAddrs, a.ToAddr())
			}
		}
	}
	ls.scans = append(ls.scans, scan)
}

// Scans returns the detected scans at one aggregation level, ordered by
// start time. Valid after Finish.
func (d *Detector) Scans(level netaddr6.AggLevel) []Scan {
	for _, ls := range d.levels {
		if ls.level == level {
			sortScans(ls.scans)
			return ls.scans
		}
	}
	return nil
}

// sortScans puts scans in their deterministic order, the order of
// Scans and of a checkpoint's results: by start time, then by source
// (compareScans). The comparator is a total order, so the result does
// not depend on the order sessions closed in — even for scans that tie
// on start and source, a session reopened at the instant an Advance
// closed it.
func sortScans(scans []Scan) {
	slices.SortFunc(scans, func(a, b Scan) int { return compareScans(&a, &b) })
}

// compareScans is a total order over scans: start, source address and
// prefix length, then every remaining field.
func compareScans(a, b *Scan) int {
	if c := a.Start.Compare(b.Start); c != 0 {
		return c
	}
	if c := a.Source.Addr().Compare(b.Source.Addr()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Source.Bits(), b.Source.Bits()); c != 0 {
		return c
	}
	if c := a.End.Compare(b.End); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Packets, b.Packets); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dsts, b.Dsts); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcAddrs, b.SrcAddrs); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Level, b.Level); c != 0 {
		return c
	}
	if c := cmp.Compare(a.LenEntropy, b.LenEntropy); c != 0 {
		return c
	}
	if c := slices.CompareFunc(a.Ports, b.Ports, func(x, y PortCount) int {
		if c := cmp.Compare(x.Service.Proto, y.Service.Proto); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Service.Port, y.Service.Port); c != 0 {
			return c
		}
		return cmp.Compare(x.Packets, y.Packets)
	}); c != 0 {
		return c
	}
	if c := slices.CompareFunc(a.WeekPackets, b.WeekPackets, func(x, y WeekCount) int {
		if c := cmp.Compare(x.Week, y.Week); c != 0 {
			return c
		}
		return cmp.Compare(x.Packets, y.Packets)
	}); c != 0 {
		return c
	}
	return slices.CompareFunc(a.DstAddrs, b.DstAddrs, netip.Addr.Compare)
}

// Dropped returns the number of sessions at the level that closed
// below the destination threshold.
func (d *Detector) Dropped(level netaddr6.AggLevel) uint64 {
	for _, ls := range d.levels {
		if ls.level == level {
			return ls.dropped
		}
	}
	return 0
}

// OpenSessions returns the number of in-flight sessions at the level —
// the detector's working-set size, the quantity the Discussion section
// worries about for IDS deployments.
func (d *Detector) OpenSessions(level netaddr6.AggLevel) int {
	for _, ls := range d.levels {
		if ls.level == level {
			return ls.tab.Len()
		}
	}
	return 0
}

// Totals summarizes one aggregation level the way Table 1 does.
type Totals struct {
	Level   netaddr6.AggLevel
	Scans   int
	Packets uint64
	Sources int // distinct scan source prefixes
	ASes    int // filled by analysis when an AS database is available
}

// TotalsFor computes the Table-1 row for a level (AS count left zero;
// the analysis package joins against asdb).
func (d *Detector) TotalsFor(level netaddr6.AggLevel) Totals {
	t := Totals{Level: level}
	srcs := make(map[netip.Prefix]struct{})
	for _, s := range d.Scans(level) {
		t.Scans++
		t.Packets += s.Packets
		srcs[s.Source] = struct{}{}
	}
	t.Sources = len(srcs)
	return t
}

// weekIndex returns whole weeks since epoch (negative before epoch).
func weekIndex(epoch, t time.Time) int {
	return int(t.Sub(epoch) / (7 * 24 * time.Hour))
}
