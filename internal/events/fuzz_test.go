package events

import (
	"errors"
	"testing"
)

// FuzzEnvelopeRoundtrip drives Decode with arbitrary bytes. The codec
// contract under fuzzing:
//
//   - Decode never panics.
//   - A failed decode returns one of the five typed codec errors.
//   - A successful decode is canonical: re-encoding the decoded
//     envelope reproduces the input bytes exactly.
func FuzzEnvelopeRoundtrip(f *testing.F) {
	seed := []Envelope{
		{Kind: KindEOS, Topic: "rec.p0.0", Seq: 3},
		{Kind: KindRecords, Topic: "rec.p0.1", Seq: 0, Records: testRecords(2)},
		{Kind: KindRecords, Topic: "", Seq: 0},
		{Kind: KindRecords, Topic: "rec.p1.0", Seq: 1 << 40, Records: testRecords(7)},
	}
	for _, e := range seed {
		b, err := e.Append(nil)
		if err != nil {
			f.Fatalf("seeding: %v", err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte("v6evnt\r\n"))
	f.Add(append([]byte("v6evnt\r\n"), make([]byte, 32)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var e Envelope
		err := e.Decode(data)
		if err != nil {
			for _, typed := range []error{ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated, ErrFormat} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		out, err := e.Append(nil)
		if err != nil {
			t.Fatalf("re-encoding a decoded envelope: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("non-canonical envelope:\n in  %x\n out %x", data, out)
		}
	})
}
