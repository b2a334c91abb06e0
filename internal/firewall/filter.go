package firewall

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
	"slices"
	"sort"

	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// ArtifactFilter implements the CDN artifact pre-filter of Section 2.1
// and Appendix A.1: for each UTC day, a source /64 is dropped entirely
// if more than MaxDupShare of its packets are "k-duplicates" — packets
// hitting a (destination IP, destination port) pair that receives more
// than DupThreshold packets from that source over the course of the
// day. This removes repeated failing connection attempts (SMTP
// fallback to AAAA records, ISAKMP re-tries) which otherwise mimic
// scans by touching many telescope addresses.
//
// The filter is port-agnostic by design: the paper filters on the
// duplicate *pattern*, not on port numbers, since any port may also be
// scanned legitimately.
//
// Records are buffered per day and emitted when the day completes, so
// input must be time-ordered across days (the order log files are
// written in). Within a day, any order is accepted. The open day only
// moves forward: a late record stamped with an earlier UTC day than
// the open one joins the open day instead of reopening its own, so no
// day is ever judged as two windows.
//
// Each completed day comes back as one slice holding its survivors in
// time order, ties in arrival order. The slice is one of the filter's
// two day buffers, which swap at each flush: it stays valid, and the
// caller may rewrite records within it, until the next day completes;
// then the filter refills it. DupThreshold (a non-negative count) is
// applied as records arrive and MaxDupShare when a day completes; set
// both before the first Push.
type ArtifactFilter struct {
	// DupThreshold is the per-(dst,port) daily packet count above which
	// further packets count as duplicates (paper: 5).
	DupThreshold int
	// MaxDupShare is the duplicate share above which the source /64 is
	// dropped for the day (paper: 0.30).
	MaxDupShare float64

	// The open day is [lo, hi) in Unix seconds; lo == hi == 0 and
	// !open when nothing is buffered, so any record opens a day.
	open   bool
	lo, hi int64
	// recs holds the open day's records in arrival order; owner[i] is
	// recs[i]'s source slot. done is the buffer of the day last
	// returned; the two swap at each flush.
	recs, done []Record
	owner      []int32
	// srcs maps a source /64 (its high 64 bits) to its slot in slots.
	srcs  []srcEntry
	slots []srcSlot
	dups  dupTable
	stats FilterStats
}

// srcSlot is one source /64's tally for the open day.
type srcSlot struct {
	net uint64 // the /64's high 64 bits
	n   int    // records buffered
	// dup is the day's duplicate packets so far, Σ(cnt−DupThreshold)
	// over the source's (dst, service) keys with cnt > DupThreshold:
	// each packet that lifts its key past the threshold adds one.
	dup  int
	drop bool // set at flush: the source is an artifact today
}

// FilterStats accumulates what the filter removed, powering the
// Appendix A.1 analysis (ISAKMP and SMTP dominate filtered traffic).
type FilterStats struct {
	PacketsIn           uint64
	PacketsDropped      uint64
	SourcesDropped      uint64
	DroppedByService    map[Service]uint64
	DroppedSrcByService map[Service]map[netip.Prefix]struct{}
}

// NewArtifactFilter returns a filter with the paper's parameters
// (5-duplicate, 30% share).
func NewArtifactFilter() *ArtifactFilter {
	return &ArtifactFilter{
		DupThreshold: 5,
		MaxDupShare:  0.30,
		srcs:         make([]srcEntry, dupTableMin),
		dups:         dupTable{ents: make([]dupEntry, dupTableMin)},
		stats: FilterStats{
			DroppedByService:    make(map[Service]uint64),
			DroppedSrcByService: make(map[Service]map[netip.Prefix]struct{}),
		},
	}
}

// Push adds one record. If the record starts a later UTC day than the
// open one, the open day is finalized and its surviving records
// returned (see the type doc for their order and lifetime).
func (f *ArtifactFilter) Push(r Record) []Record {
	var out []Record
	if sec := r.Time.Unix(); sec < f.lo || sec >= f.hi {
		out = f.advance(sec)
	}
	f.stats.PacketsIn++
	src, dst := r.Src.As16(), r.Dst.As16()
	net := binary.BigEndian.Uint64(src[:8])
	if net == 0 && !netaddr6.IsIPv6(r.Src) {
		// IPv4, IPv4-mapped and zero addresses all land here.
		panic("firewall: artifact filter on non-IPv6 source " + r.Src.String())
	}
	slot := f.slotOf(net)
	s := &f.slots[slot]
	s.n++
	svc := uint32(r.Proto)<<16 | uint32(r.DstPort)
	if int(f.dups.bump(slot, binary.BigEndian.Uint64(dst[:8]), binary.BigEndian.Uint64(dst[8:]), svc)) > f.DupThreshold {
		s.dup++
	}
	f.recs = append(f.recs, r)
	f.owner = append(f.owner, slot)
	return out
}

// advance handles a record outside the open day: a later day flushes
// the open one and opens the record's; an earlier day joins the open
// day unchanged.
func (f *ArtifactFilter) advance(sec int64) []Record {
	var out []Record
	if f.open {
		if sec < f.lo {
			return nil
		}
		out = f.flush()
	}
	const day = 24 * 60 * 60
	f.open = true
	f.lo = sec - (sec%day+day)%day
	f.hi = f.lo + day
	return out
}

// Close finalizes the buffered day and returns its surviving records.
func (f *ArtifactFilter) Close() []Record {
	out := f.flush()
	f.open, f.lo, f.hi = false, 0, 0
	return out
}

// Stats returns what has been filtered so far. Valid after flushes;
// callers typically read it after Close.
func (f *ArtifactFilter) Stats() FilterStats { return f.stats }

// flush judges every source of the open day, compacts the survivors in
// place and returns them, swapping the day buffers.
func (f *ArtifactFilter) flush() []Record {
	dropped := false
	for i := range f.slots {
		s := &f.slots[i]
		if float64(s.dup)/float64(s.n) > f.MaxDupShare {
			s.drop, dropped = true, true
			f.stats.SourcesDropped++
			f.stats.PacketsDropped += uint64(s.n)
		}
	}
	if dropped {
		f.countDropped()
	}
	recs := f.recs
	w, ordered := 0, true
	for i := range recs {
		if dropped && f.slots[f.owner[i]].drop {
			continue
		}
		if w != i {
			recs[w] = recs[i]
		}
		if ordered && w > 0 && recs[w].Time.Before(recs[w-1].Time) {
			ordered = false
		}
		w++
	}
	out := recs[:w]
	if !ordered {
		slices.SortStableFunc(out, func(a, b Record) int { return a.Time.Compare(b.Time) })
	}

	f.recs, f.done = f.done[:0], recs
	f.owner = f.owner[:0]
	clear(f.srcs)
	f.slots = f.slots[:0]
	f.dups.reset()
	return out
}

// srcEntry is one source-table entry: a source /64 and its slot + 1,
// so that 0 marks a free entry.
type srcEntry struct {
	net  uint64
	slot int32
}

// slotOf returns the open day's slot for the source /64 net, opening
// one if the source is new today. The source table has dupTable's
// layout, is at most half full, and is cleared, not freed, between
// days.
func (f *ArtifactFilter) slotOf(net uint64) int32 {
	e := f.probe(net)
	if e.slot == 0 {
		if 2*(len(f.slots)+1) > len(f.srcs) {
			f.srcs = make([]srcEntry, 2*len(f.srcs))
			for i, s := range f.slots {
				*f.probe(s.net) = srcEntry{net: s.net, slot: int32(i + 1)}
			}
			e = f.probe(net)
		}
		f.slots = append(f.slots, srcSlot{net: net})
		*e = srcEntry{net: net, slot: int32(len(f.slots))}
	}
	return e.slot - 1
}

// probe returns net's source-table entry, or the free entry where it
// belongs.
func (f *ArtifactFilter) probe(net uint64) *srcEntry {
	mask := uint64(len(f.srcs) - 1)
	for i := dupHash(0, net, 0, 0) & mask; ; i = (i + 1) & mask {
		if e := &f.srcs[i]; e.slot == 0 || e.net == net {
			return e
		}
	}
}

// countDropped adds the open day's dropped sources to the per-service
// stats, one (dst, service) key at a time rather than per record.
func (f *ArtifactFilter) countDropped() {
	for i := range f.dups.ents {
		e := &f.dups.ents[i]
		if e.cnt == 0 || !f.slots[e.slot].drop {
			continue
		}
		svc := Service{Proto: layers.IPProtocol(e.svc >> 16), Port: uint16(e.svc)}
		f.stats.DroppedByService[svc] += uint64(e.cnt)
		set := f.stats.DroppedSrcByService[svc]
		if set == nil {
			set = make(map[netip.Prefix]struct{})
			f.stats.DroppedSrcByService[svc] = set
		}
		set[netip.PrefixFrom(netaddr6.U128{Hi: f.slots[e.slot].net}.ToAddr(), 64)] = struct{}{}
	}
}

// dupTable counts the open day's packets per (source slot, destination,
// service) key: open addressing with linear probing over a power-of-two
// slice, grown by doubling and cleared, not freed, between days.
type dupTable struct {
	ents []dupEntry
	used int
}

type dupEntry struct {
	hi, lo uint64 // destination address
	svc    uint32 // proto<<16 | port
	slot   int32
	cnt    int32 // packets; 0 marks a free entry
}

// dupTableMin is the initial size of the dup and source tables. It is
// deliberately tiny: the tables are kept across days, so each grows to
// the busiest day once.
const dupTableMin = 16

// bump counts one packet under the key and returns the key's count.
func (t *dupTable) bump(slot int32, hi, lo uint64, svc uint32) int32 {
	mask := uint64(len(t.ents) - 1)
	for i := dupHash(slot, hi, lo, svc) & mask; ; i = (i + 1) & mask {
		e := &t.ents[i]
		if e.cnt == 0 {
			if 2*(t.used+1) > len(t.ents) {
				t.grow()
				return t.bump(slot, hi, lo, svc)
			}
			*e = dupEntry{hi: hi, lo: lo, svc: svc, slot: slot, cnt: 1}
			t.used++
			return 1
		}
		if e.lo == lo && e.hi == hi && e.svc == svc && e.slot == slot {
			e.cnt++
			return e.cnt
		}
	}
}

// grow doubles the table and reinserts the live entries.
func (t *dupTable) grow() {
	old := t.ents
	t.ents = make([]dupEntry, 2*len(old))
	mask := uint64(len(t.ents) - 1)
	for _, e := range old {
		if e.cnt == 0 {
			continue
		}
		i := dupHash(e.slot, e.hi, e.lo, e.svc) & mask
		for t.ents[i].cnt != 0 {
			i = (i + 1) & mask
		}
		t.ents[i] = e
	}
}

func (t *dupTable) reset() {
	if t.used > 0 {
		clear(t.ents)
		t.used = 0
	}
}

// dupHash is a murmur3-style finalizer over the folded key; its low
// bits index the table.
func dupHash(slot int32, hi, lo uint64, svc uint32) uint64 {
	x := lo ^ bits.RotateLeft64(hi, 31) ^ (uint64(svc)<<32|uint64(uint32(slot)))*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// TopFilteredServices returns the services that dominate dropped
// traffic, ordered by dropped packets (Appendix A.1: UDP/500 and
// TCP/25 lead).
func (s FilterStats) TopFilteredServices(n int) []ServiceCount {
	out := make([]ServiceCount, 0, len(s.DroppedByService))
	for svc, c := range s.DroppedByService {
		out = append(out, ServiceCount{
			Service: svc,
			Packets: c,
			Sources: uint64(len(s.DroppedSrcByService[svc])),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].Service.String() < out[j].Service.String()
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ServiceCount pairs a service with dropped packet/source counts.
type ServiceCount struct {
	Service Service
	Packets uint64
	Sources uint64
}
