package firewall

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// fuzzSeedLog encodes the fixture-style records the package's unit
// tests use — valid multi-record logs, extreme timestamps, the zero
// record — so the fuzzer starts from structurally meaningful corpora
// rather than only random bytes.
func fuzzSeedLog() [][]byte {
	mk := func(recs ...Record) []byte {
		var b []byte
		for _, r := range recs {
			b = r.AppendBinary(b)
		}
		return b
	}
	t0 := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	r1 := Record{
		Time: t0, Src: netaddr6.MustAddr("2001:db8::1"), Dst: netaddr6.MustAddr("2001:db8:f::1"),
		Proto: layers.ProtoTCP, SrcPort: 40000, DstPort: 22, Length: 60,
	}
	r2 := r1
	r2.Time = t0.Add(time.Second)
	r2.Proto, r2.DstPort = layers.ProtoUDP, 53
	extreme := Record{
		Time: time.Unix(0, -1<<62).UTC(), Src: netaddr6.MustAddr("::"),
		Dst:   netaddr6.MustAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
		Proto: layers.IPProtocol(255), SrcPort: 65535, DstPort: 65535, Length: 65535,
	}
	full := mk(r1, r2, r1, r2, extreme, Record{})
	mappedSrc, mappedDst := r2, r2
	mappedSrc.Src = netip.MustParseAddr("::ffff:192.0.2.1")
	mappedDst.Dst = netip.MustParseAddr("::ffff:192.0.2.2")
	return [][]byte{
		nil,
		mk(r1),
		full,

		full[:len(full)-13],     // truncated trailing record
		full[:recordWireSize-1], // shorter than one record
		bytes.Repeat([]byte{0xff}, 3*recordWireSize),
		mk(r1, mappedSrc, r2), // rejected: IPv4-mapped source
		mk(r1, r2, mappedDst), // rejected: IPv4-mapped destination
	}
}

// FuzzFirewallReader is the binary-log decoder fuzz target: for any
// byte stream, Next and NextBatch must never panic or overread, and —
// the differential property — must decode the identical record
// sequence and agree on how the stream ends (clean EOF, truncated
// record with the reported trailing-byte count, or a record rejected
// as not IPv6).
func FuzzFirewallReader(f *testing.F) {
	for _, seed := range fuzzSeedLog() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Reference: one record at a time.
		var nextRecs []Record
		var nextErr error
		rd := NewReader(bytes.NewReader(data))
		for {
			r, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				nextErr = err
				break
			}
			nextRecs = append(nextRecs, r)
		}

		// Bulk path at several batch sizes, always through the
		// io.EOF-with-records contract.
		for _, max := range []int{1, 3, 64} {
			var recs []Record
			var batchErr error
			rd := NewReader(bytes.NewReader(data))
			buf := make([]Record, 0, max)
			for {
				out, err := rd.NextBatch(buf[:0], max)
				recs = append(recs, out...)
				if err == io.EOF {
					break
				}
				if err != nil {
					batchErr = err
					break
				}
			}
			if len(recs) != len(nextRecs) {
				t.Fatalf("max=%d: NextBatch decoded %d records, Next %d", max, len(recs), len(nextRecs))
			}
			for i := range recs {
				if recs[i] != nextRecs[i] {
					t.Fatalf("max=%d: record %d differs:\nbatch %+v\n next %+v", max, i, recs[i], nextRecs[i])
				}
			}
			if (batchErr == nil) != (nextErr == nil) {
				t.Fatalf("max=%d: NextBatch err %v, Next err %v", max, batchErr, nextErr)
			}
			if batchErr != nil {
				for _, class := range []error{ErrShortRecord, ErrNotIPv6} {
					if errors.Is(batchErr, class) != errors.Is(nextErr, class) {
						t.Fatalf("max=%d: error classes differ: batch %v, next %v", max, batchErr, nextErr)
					}
				}
				if !errors.Is(batchErr, ErrShortRecord) && !errors.Is(batchErr, ErrNotIPv6) {
					t.Fatalf("max=%d: unexpected error class: %v", max, batchErr)
				}
				if batchErr.Error() != nextErr.Error() {
					t.Fatalf("max=%d: diagnostics disagree: batch %q, next %q", max, batchErr, nextErr)
				}
			}
		}

		// Decoded prefix must round-trip: len(recs)*wire bytes of input.
		var re []byte
		for _, r := range nextRecs {
			re = r.AppendBinary(re)
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("decoded records do not round-trip the input prefix")
		}
	})
}

// filterTapeServices are the services a filter tape draws from: the
// two artifact services of Appendix A.1 and a scanned one.
var filterTapeServices = [3]Service{
	{Proto: layers.ProtoTCP, Port: 25},
	{Proto: layers.ProtoUDP, Port: 500},
	{Proto: layers.ProtoTCP, Port: 22},
}

// filterTapeClose is the record-op byte that closes both filters
// instead of pushing a record.
const filterTapeClose = 0xff

// decodeFilterTape turns a byte tape into artifact filter operations.
// The 3-byte header picks 1–8 source /64s (2001:db8:0:<i>::/64), 1–6
// destinations, and an offset that gives each /64 one to three /128s.
// Each further 3-byte group is one op:
//
//   - time byte: filterTapeClose closes the filters; otherwise bit 7
//     advances the day by 1 + bits 5–6, and bits 0–4 pick one of 32
//     instants in the day, so equal timestamps are common;
//   - source byte: the /64 (mod count) and, in bits 5–7, its /128;
//   - target byte: the destination (mod count) and, in bits 4–7, the
//     service.
//
// Days only move forward and instants are drawn at random within a
// day, so the input is ordered across days and shuffled within one.
// A nil record is a close. SrcPort carries the record's arrival
// sequence number.
func decodeFilterTape(tape []byte) []*Record {
	if len(tape) < 3 {
		return nil
	}
	nSrc, nDst, iidOff := 1+int(tape[0]%8), 1+int(tape[1]%6), int(tape[2])
	day0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	var ops []*Record
	day, seq := 0, 0
	for op := tape[3:]; len(op) >= 3 && len(ops) < 4096; op = op[3:] {
		a, b, c := op[0], op[1], op[2]
		if a == filterTapeClose {
			ops = append(ops, nil)
			continue
		}
		if a&0x80 != 0 {
			day += 1 + int(a>>5&3)
		}
		src := int(b) % nSrc
		iid := uint64(b>>5)%uint64(1+(src+iidOff)%3) + 1
		svc := filterTapeServices[int(c>>4)%3]
		ops = append(ops, &Record{
			Time:    day0.Add(time.Duration(day)*24*time.Hour + time.Duration(a&0x1f)*2777*time.Second),
			Src:     netaddr6.U128{Hi: 0x20010db8_00000000 | uint64(src), Lo: iid}.ToAddr(),
			Dst:     netaddr6.U128{Hi: 0x20010db8_000f0000, Lo: uint64(int(c)%nDst) + 1}.ToAddr(),
			Proto:   svc.Proto,
			SrcPort: uint16(seq),
			DstPort: svc.Port,
			Length:  60,
		})
		seq++
	}
	return ops
}

// filterTapeSeeds are tapes over 8 sources (with 1, 2, 3, 1, … /128s)
// and 6 destinations that sit on the rule's edges: keys hit exactly 5
// and 6 times, sources at exactly 30% duplicates (kept) and just over
// (dropped), equal timestamps across sources, keys shared by every
// source, and a day with more keys than the initial duplicate table
// holds, so it grows.
func filterTapeSeeds() [][]byte {
	hdr := []byte{7, 5, 0}
	op := func(tape []byte, adv, instant, src, iid, dst, svc int) []byte {
		a := byte(instant & 0x1f)
		if adv > 0 {
			a |= 0x80 | byte(adv-1)<<5
		}
		return append(tape, a, byte(src|iid<<5), byte(dst|svc<<4))
	}
	// Exactly 5 hits on one key (no duplicate) and 6 (one of six).
	edges5 := slices.Clone(hdr)
	for i := 0; i < 5; i++ {
		edges5 = op(edges5, 0, 31-i, 0, 0, 0, 0)
	}
	for i := 0; i < 6; i++ {
		edges5 = op(edges5, 0, i, 1, i%2, 1, 1)
	}
	// 3 duplicates in 10 packets (30%: kept) and in 9 (dropped), with
	// every record of the day at one instant; a third source splits
	// 10 hits on one key over its /128s (50%: dropped).
	edges30 := slices.Clone(hdr)
	for i := 0; i < 8; i++ {
		edges30 = op(edges30, 0, 7, 1, 0, 0, 0)
		edges30 = op(edges30, 0, 7, 2, 1, 0, 1)
	}
	edges30 = op(edges30, 0, 7, 1, 0, 1, 0)
	edges30 = op(edges30, 0, 7, 1, 1, 2, 0)
	edges30 = op(edges30, 0, 7, 2, 2, 3, 2)
	for i := 0; i < 10; i++ {
		edges30 = op(edges30, 0, 7, 5, i, 4, 1)
	}
	// Every (source, destination, service) key on one day, a next day
	// on which one source repeats a key 9 times (dropped), a close,
	// then a day after a gap.
	grow := slices.Clone(hdr)
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 6; dst++ {
			for svc := 0; svc < 3; svc++ {
				grow = op(grow, 0, (src*7+dst*3+svc)%32, src, dst%3, dst, svc)
			}
		}
	}
	for i := 0; i < 12; i++ {
		adv, src := 0, 0
		if i == 0 {
			adv = 1
		}
		if i%4 == 3 {
			src = 1
		}
		grow = op(grow, adv, 11-i, src, 0, 0, 0)
	}
	grow = append(grow, filterTapeClose, 0, 0)
	grow = op(grow, 3, 9, 4, 0, 5, 2)
	// Eight sources hitting one shared key 4 times each: keys that
	// differ only in their source, all kept.
	shared := slices.Clone(hdr)
	for i := 0; i < 4; i++ {
		for src := 0; src < 8; src++ {
			shared = op(shared, 0, i, src, i, 2, 1)
		}
	}
	return [][]byte{nil, edges5, edges30, grow, shared, append(slices.Clone(edges30), edges5[3:]...)}
}

// FuzzArtifactFilter checks the flat ArtifactFilter against refFilter,
// the map-of-maps transcription of the rule, on day-ordered record
// tapes: every flush returns the same survivors as a multiset, in time
// order with ties in arrival order, and the final Stats are identical.
func FuzzArtifactFilter(f *testing.F) {
	for _, seed := range filterTapeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		got, want := NewArtifactFilter(), newRefFilter()
		for i, r := range decodeFilterTape(tape) {
			if r == nil {
				checkFlush(t, i, got.Close(), want.Close())
				continue
			}
			checkFlush(t, i, got.Push(*r), want.Push(*r))
		}
		checkFlush(t, -1, got.Close(), want.Close())
		if g, w := got.Stats(), want.Stats(); !reflect.DeepEqual(g, w) {
			t.Fatalf("stats differ:\n got %+v\nwant %+v", g, w)
		}
	})
}

// checkFlush asserts that got holds want's records, and is ordered by
// time with ties in arrival (SrcPort) order.
func checkFlush(t *testing.T, op int, got, want []Record) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		if c := got[i].Time.Compare(got[i-1].Time); c < 0 || c == 0 && got[i].SrcPort < got[i-1].SrcPort {
			t.Fatalf("op %d: output %d (%v seq %d) out of order after %v seq %d",
				op, i, got[i].Time, got[i].SrcPort, got[i-1].Time, got[i-1].SrcPort)
		}
	}
	bySeq := func(a, b Record) int { return int(a.SrcPort) - int(b.SrcPort) }
	g, w := slices.SortedFunc(slices.Values(got), bySeq), slices.SortedFunc(slices.Values(want), bySeq)
	if !slices.Equal(g, w) {
		t.Fatalf("op %d: survivors differ: got %d records, want %d", op, len(g), len(w))
	}
}
