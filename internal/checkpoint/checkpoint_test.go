package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
	"time"

	"v6scan/internal/netaddr6"
)

var testMark = time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)

// writeSnapshot writes a snapshot holding the given section payloads,
// all of kind secLevel.
func writeSnapshot(t *testing.T, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, KindIDS, testMark)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Section(secLevel, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll reads every section of a snapshot, copying each payload.
func readAll(b []byte) (Header, [][]byte, error) {
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		return Header{}, nil, err
	}
	var out [][]byte
	for {
		_, p, err := r.Next()
		if err == io.EOF {
			return r.Header(), out, nil
		}
		if err != nil {
			return r.Header(), out, err
		}
		out = append(out, append([]byte(nil), p...))
	}
}

// payload returns n deterministic bytes.
func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

func TestSectionRoundTrip(t *testing.T) {
	// Sizes straddle the reader's 64 KiB first read and its doublings.
	sizes := []int{0, 1, 5, 64<<10 - 1, 64 << 10, 64<<10 + 1, 300_000, 17}
	var payloads [][]byte
	for _, n := range sizes {
		payloads = append(payloads, payload(n))
	}
	hdr, got, err := readAll(writeSnapshot(t, payloads...))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != KindIDS || !hdr.Mark.Equal(testMark) || !hdr.Horizon.Equal(testMark.Add(-time.Nanosecond)) {
		t.Errorf("header %+v", hdr)
	}
	if len(got) != len(payloads) {
		t.Fatalf("%d sections, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("section %d (%d bytes) differs after round trip", i, len(payloads[i]))
		}
	}
}

// copyingSection is the section framing as first written: framing,
// payload and CRC assembled in one buffer, then written once.
func copyingSection(w io.Writer, kind uint8, payload []byte) error {
	var buf []byte
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	_, err := w.Write(buf)
	return err
}

func TestSectionBytesMatchCopyingFraming(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 1 << 20} {
		p := payload(n)
		var got, want bytes.Buffer
		if err := (&Writer{w: &got}).Section(secConfig, p); err != nil {
			t.Fatal(err)
		}
		if err := copyingSection(&want, secConfig, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d-byte payload: section bytes differ", n)
		}
	}
}

func TestTypedCorruptionErrors(t *testing.T) {
	snap := writeSnapshot(t, payload(1000), payload(10))
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"flipped payload bit", func(b []byte) []byte { b[headerSize+5+500] ^= 0x10; return b }, ErrChecksum},
		{"flipped section kind", func(b []byte) []byte { b[headerSize] ^= 0x01; return b }, ErrChecksum},
		{"flipped header bit", func(b []byte) []byte { b[13] ^= 0x01; return b }, ErrChecksum},
		{"bad magic", func(b []byte) []byte { b[0] = 'x'; return b }, ErrBadMagic},
		{"cut in header", func(b []byte) []byte { return b[:headerSize-1] }, ErrTruncated},
		{"cut in payload", func(b []byte) []byte { return b[:headerSize+5+200] }, ErrTruncated},
		{"cut in checksum", func(b []byte) []byte { return b[:headerSize+5+1000+2] }, ErrTruncated},
		{"no end marker", func(b []byte) []byte { return b[:len(b)-9] }, ErrTruncated},
	} {
		_, _, err := readAll(tc.mut(append([]byte(nil), snap...)))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCorruptLengthBoundedAllocation declares a 2 GiB section on a
// short input: the read must fail as ErrTruncated once the real bytes
// run out, having allocated in proportion to them, not to the claim.
func TestCorruptLengthBoundedAllocation(t *testing.T) {
	snap := writeSnapshot(t, payload(100_000))
	binary.LittleEndian.PutUint32(snap[headerSize+1:], 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readAll(snap)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("allocated %d bytes reading a %d-byte snapshot", alloc, len(snap))
	}
}

// keyRecorder is a Restorer whose entries carry no state: it records
// the keys ReadBody hands it.
type keyRecorder struct{ keys []netaddr6.U128 }

func (r *keyRecorder) Config(*Dec) ([]netaddr6.AggLevel, error) {
	return []netaddr6.AggLevel{netaddr6.Agg64}, nil
}
func (r *keyRecorder) Entry(_ *Dec, _ int, key netaddr6.U128) error {
	r.keys = append(r.keys, key)
	return nil
}
func (r *keyRecorder) Results(*Dec) error { return nil }

// TestReadBodyKeyOrder: WriteBody emits each level's keys strictly
// ascending, and ReadBody rejects a level section that is not, so a
// restore never sees one key twice.
func TestReadBodyKeyOrder(t *testing.T) {
	for _, c := range []struct {
		keys []uint64
		ok   bool
	}{
		{[]uint64{1, 2, 7}, true},
		{[]uint64{1, 1}, false},
		{[]uint64{2, 1}, false},
	} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, KindIDS, testMark)
		if err != nil {
			t.Fatal(err)
		}
		var e Enc
		if err := w.Section(secConfig, nil); err != nil {
			t.Fatal(err)
		}
		e.Varint(int64(netaddr6.Agg64))
		e.Uvarint(uint64(len(c.keys)))
		for _, k := range c.keys {
			e.U64(0)
			e.U64(k)
		}
		if err := w.Section(secLevel, e.B); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		cr, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var r keyRecorder
		err = ReadBody(cr, KindIDS, &r)
		if c.ok && (err != nil || len(r.keys) != len(c.keys)) {
			t.Errorf("keys %v: err %v, %d entries restored", c.keys, err, len(r.keys))
		}
		if !c.ok && !errors.Is(err, ErrFormat) {
			t.Errorf("keys %v: err %v, want ErrFormat", c.keys, err)
		}
	}
}
