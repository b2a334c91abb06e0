package events

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

func testRecords(n int) []firewall.Record {
	ts := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		p48 := netaddr6.NthSubprefix(netaddr6.MustPrefix("2001:db8::/36"), 48, uint64(i%7))
		recs = append(recs, firewall.Record{
			Time:    ts.Add(time.Duration(i) * time.Second),
			Src:     netaddr6.WithIID(p48.Addr(), uint64(i+1)),
			Dst:     netaddr6.MustAddr("2001:db8:f::1"),
			Proto:   layers.ProtoTCP,
			SrcPort: uint16(40000 + i),
			DstPort: uint16(22 + i%3),
			Length:  uint16(60 + i),
		})
	}
	return recs
}

// reCRC recomputes and patches the trailing checksum so tests can
// corrupt individual header fields without tripping ErrChecksum.
func reCRC(b []byte) []byte {
	sum := crc32.Checksum(b[:len(b)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(b[len(b)-4:], sum)
	return b
}

func encode(t *testing.T, e Envelope) []byte {
	t.Helper()
	b, err := e.Append(nil)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return b
}

func TestRecordsRoundtrip(t *testing.T) {
	in := Envelope{
		Kind:    KindRecords,
		Topic:   "rec.pub0.3",
		Seq:     42,
		Records: testRecords(5),
	}
	b := encode(t, in)
	var out Envelope
	if err := out.Decode(b); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Kind != in.Kind || out.Topic != in.Topic || out.Seq != in.Seq {
		t.Fatalf("header mismatch: got %+v", out)
	}
	if !reflect.DeepEqual(normTimes(out.Records), normTimes(in.Records)) {
		t.Fatalf("records mismatch:\n got %v\nwant %v", out.Records, in.Records)
	}
	// Canonical: re-encoding the decoded envelope reproduces the bytes.
	b2 := encode(t, out)
	if string(b2) != string(b) {
		t.Fatal("re-encoded envelope differs from input bytes")
	}
}

// normTimes maps record times to UnixNano so DeepEqual ignores the
// wall-clock location the codec does not carry.
func normTimes(recs []firewall.Record) []firewall.Record {
	out := make([]firewall.Record, len(recs))
	for i, r := range recs {
		r.Time = time.Unix(0, r.Time.UnixNano()).UTC()
		out[i] = r
	}
	return out
}

func TestEOSRoundtrip(t *testing.T) {
	in := Envelope{Kind: KindEOS, Topic: "rec.pub1.0", Seq: 9}
	b := encode(t, in)
	// Reused envelope: stale Records must be cleared by Decode.
	out := Envelope{Records: testRecords(2)}
	if err := out.Decode(b); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Kind != KindEOS || out.Topic != in.Topic || out.Seq != in.Seq {
		t.Fatalf("header mismatch: got %+v", out)
	}
	if len(out.Records) != 0 {
		t.Fatal("EOS decode left stale payload slices populated")
	}
}

func TestEmptyRecordsEnvelope(t *testing.T) {
	b := encode(t, Envelope{Kind: KindRecords, Topic: "t", Seq: 0})
	var out Envelope
	if err := out.Decode(b); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(out.Records) != 0 {
		t.Fatalf("got %d records, want 0", len(out.Records))
	}
}

func TestAppendRejectsMismatchedPayload(t *testing.T) {
	cases := []Envelope{
		{Kind: KindEOS, Records: testRecords(1)},
		{Kind: 0},
		{Kind: 99},
	}
	for i, e := range cases {
		if _, err := e.Append(nil); !errors.Is(err, ErrFormat) {
			t.Errorf("case %d: got %v, want ErrFormat", i, err)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := encode(t, Envelope{Kind: KindRecords, Topic: "tp", Seq: 1, Records: testRecords(3)})

	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return mutate(b)
	}

	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short magic", valid[:5], ErrTruncated},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"below min size", valid[:10], ErrTruncated},
		{"flipped payload bit", corrupt(func(b []byte) []byte { b[len(b)/2] ^= 1; return b }), ErrChecksum},
		{"future version", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[8:], 2)
			return reCRC(b)
		}), ErrVersion},
		{"reserved set", corrupt(func(b []byte) []byte { b[11] = 1; return reCRC(b) }), ErrFormat},
		{"unknown kind", corrupt(func(b []byte) []byte { b[10] = 9; return reCRC(b) }), ErrFormat},
		{"topic overruns envelope", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[12:], 0xFFFF)
			return reCRC(b)
		}), ErrFormat},
		{"count beyond payload", corrupt(func(b []byte) []byte {
			// count sits after topic ("tp", 2 bytes) and seq.
			binary.LittleEndian.PutUint32(b[headerSize+2+8:], 1<<30)
			return reCRC(b)
		}), ErrTruncated},
		{"trailing payload bytes", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[headerSize+2+8:], 2)
			return reCRC(b)
		}), ErrFormat},
		{"payload on EOS", corrupt(func(b []byte) []byte {
			b[10] = KindEOS
			binary.LittleEndian.PutUint32(b[headerSize+2+8:], 0)
			return reCRC(b)
		}), ErrFormat},
	}
	for _, tc := range cases {
		var e Envelope
		if err := e.Decode(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDecodeRejectsBadAlertFields: the alert kind (2) is retired, so an
// envelope framing an alert body the way its encoder did — 51 bytes of
// prefix, level, estimate, packets, first, last and escalation — fails
// as ErrFormat, and Append refuses the kind.
func TestDecodeRejectsBadAlertFields(t *testing.T) {
	const alertWireSize = 16 + 1 + 1 + 8 + 8 + 8 + 8 + 1
	b := encode(t, Envelope{Kind: KindRecords, Topic: "a"})
	b = b[:len(b)-4] // drop the CRC
	b[10] = 2
	binary.LittleEndian.PutUint32(b[headerSize+1+8:], 1) // count, after topic "a" and seq
	b = append(b, make([]byte, alertWireSize+4)...)
	var e Envelope
	if err := e.Decode(reCRC(b)); !errors.Is(err, ErrFormat) {
		t.Errorf("alert envelope: got %v, want ErrFormat", err)
	}
	if _, err := (&Envelope{Kind: 2}).Append(nil); !errors.Is(err, ErrFormat) {
		t.Errorf("Append of the alert kind: got %v, want ErrFormat", err)
	}
}

func TestTopicHelpers(t *testing.T) {
	if got := RecordTopic("edge1", 3); got != "rec.edge1.3" {
		t.Errorf("RecordTopic: got %q", got)
	}
	if got := RecordTopics("edge1", 3); !reflect.DeepEqual(got, []string{
		"rec.edge1.0", "rec.edge1.1", "rec.edge1.2",
	}) {
		t.Errorf("RecordTopics: got %v", got)
	}
	if got := RecordTopics("edge1", 0); len(got) != 1 {
		t.Errorf("RecordTopics(0): got %v, want one topic", got)
	}
}

// TestEnvelopeBytesPinned pins the wire bytes of a records and an EOS
// envelope, so a change to either encoding (a kind renumbered, a
// header field moved) fails here rather than between deployed
// publishers and subscribers.
func TestEnvelopeBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		env  Envelope
		size int
		sum  string
	}{
		{Envelope{Kind: KindRecords, Topic: "rec.edge1.2", Seq: 41, Records: testRecords(3)},
			182, "5cdccaaf81b0c66c146c9063136d3315aa45ba22bd80cb7374f885b59c937348"},
		{Envelope{Kind: KindEOS, Topic: "rec.edge1.2", Seq: 42},
			41, "dfe862771f4eb57fa86c271b023712d0228af89417efcec946862e84b9d6c851"},
	} {
		b := encode(t, tc.env)
		if sum := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != tc.size || sum != tc.sum {
			t.Errorf("kind %d: %d bytes, sha256 %s; want %d bytes, %s", tc.env.Kind, len(b), sum, tc.size, tc.sum)
		}
	}
}
