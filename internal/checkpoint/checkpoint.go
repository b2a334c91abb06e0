// Package checkpoint defines the versioned binary snapshot container
// used to persist detector and IDS state across restarts — the
// durability layer the Discussion section's inline deployment needs so
// a restart does not forget a week of session and candidate history.
//
// # Format (version 2)
//
// A snapshot is a header followed by a sequence of CRC-guarded
// sections and a terminating end marker:
//
//	header   := magic[8] version:u16 kind:u8 reserved:u8
//	            mark:i64 horizon:i64 crc32c:u32      (32 bytes)
//	section  := kind:u8 len:u32 payload[len] crc32c:u32
//	end      := 0xFF 0x00000000 crc32c:u32
//
// All integers are little-endian. The header CRC covers the 28 bytes
// before it; a section CRC covers the section's kind, length, and
// payload, so a flipped bit anywhere — including in the framing — is
// detected. Times are UnixNano instants with math.MinInt64 standing in
// for the zero time.
//
// mark is the stream-time cut the snapshot was taken at: the snapshot
// contains the effect of exactly the records with timestamps strictly
// before mark. horizon is the inclusive replay skip bound, mark−1ns:
// resuming replays the same input and drops every record at or before
// horizon, which reconstructs the uninterrupted run byte-exactly.
//
// Both snapshot kinds share one body of sections (WriteBody, ReadBody):
//
//	body     := config level* results         (section kinds 1, 2, 3)
//	level    := level:varint count:uvarint entry*   (sorted by key)
//	entry    := key:u64 u64 state
//
// Version 2 differs from version 1 only inside IDS entries: a
// candidate's materialized destination sketch is written in the form
// it is held in, flag 1 dense (precision, 2^precision register bytes —
// the only sketch form of version 1) or flag 2 sparse (precision, a
// uvarint count, then per nonzero register its index delta as a
// uvarint and its rank as a byte; see core.DstSketch and
// core.SketchSparse). Readers accept both versions and writers write
// version 2, so a version 1 cut restores and its next cut is version
// 2; detector entries are identical in both.
//
// This package owns that layout, the container framing and checksums,
// and the canonical primitive encoders (Enc/Dec). The detector and IDS
// snapshot code in internal/core and internal/ids supplies only the
// config, entry state and results payloads, so the two kinds cannot
// drift apart.
//
// # Canonical encoding
//
// Snapshot writers emit state in canonical order (sessions and
// candidates sorted by key, map entries sorted) and in canonical form
// (a sketch is sparse exactly while its register contents are below
// the densify cutoff, and a version 2 reader rejects any other form
// with ErrFormat). Restoring a snapshot
// and snapshotting again therefore reproduces the original bytes
// exactly — the invariant FuzzSnapshotRoundtrip checks — and snapshots
// of logically identical state are byte-identical regardless of shard
// count or map iteration order.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// magic identifies a v6scan snapshot. The trailing CR/LF pair catches
// text-mode transfer mangling the way PNG's signature does.
var magic = [8]byte{'v', '6', 's', 'n', 'a', 'p', '\r', '\n'}

// Version is the snapshot format version writers write. Readers also
// accept every version from minVersion up.
const Version uint16 = 2

// minVersion is the oldest format version NewReader accepts.
const minVersion uint16 = 1

// Snapshot kinds: which subsystem's state the file holds.
const (
	KindDetector uint8 = 1 // core.ShardedDetector, at any shard count
	KindIDS      uint8 = 2 // ids.Engine, at any shard count
)

// Section kinds of the shared body (WriteBody).
const (
	secConfig  uint8 = 1 // the subsystem configuration
	secLevel   uint8 = 2 // one aggregation level's live state
	secResults uint8 = 3 // accumulated results (scans/alerts, drop counters)
	secEnd     uint8 = 0xFF
)

// Typed container errors. Restore failures wrap one of these, so
// callers can distinguish corruption from version skew.
var (
	ErrBadMagic  = errors.New("checkpoint: bad magic (not a v6scan snapshot)")
	ErrVersion   = errors.New("checkpoint: unsupported snapshot format version")
	ErrChecksum  = errors.New("checkpoint: checksum mismatch (snapshot corrupted)")
	ErrTruncated = errors.New("checkpoint: snapshot truncated")
	ErrFormat    = errors.New("checkpoint: malformed snapshot")
)

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const headerSize = 8 + 2 + 1 + 1 + 8 + 8 + 4

// timeSentinel encodes the zero time.Time.
const timeSentinel = math.MinInt64

// Header is the decoded snapshot header.
type Header struct {
	Version uint16
	Kind    uint8
	// Mark is the stream-time cut: state reflects exactly the records
	// with Time < Mark.
	Mark time.Time
	// Horizon is the inclusive replay skip bound (Mark − 1ns): resume
	// by replaying the input and dropping records with Time ≤ Horizon.
	Horizon time.Time
}

// EncodeTime maps an instant onto the snapshot time axis: UnixNano,
// with math.MinInt64 for the zero time. The mapping preserves order,
// so state kept on this axis (the last activity of detector sessions
// and IDS candidates) can be compared as integers and encoded without
// converting back.
func EncodeTime(t time.Time) int64 {
	if t.IsZero() {
		return timeSentinel
	}
	return t.UnixNano()
}

// DecodeTime inverts EncodeTime.
func DecodeTime(v int64) time.Time {
	if v == timeSentinel {
		return time.Time{}
	}
	// Match the firewall record decoder's construction so restored
	// instants render identically to ones read from a log.
	return time.Unix(0, v).UTC()
}

// Writer emits one snapshot: header, sections, end marker.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter writes the snapshot header and returns a section writer.
// mark must be non-zero; the horizon is derived as mark − 1ns.
func NewWriter(w io.Writer, kind uint8, mark time.Time) (*Writer, error) {
	if mark.IsZero() {
		return nil, fmt.Errorf("%w: zero mark", ErrFormat)
	}
	var h [headerSize]byte
	copy(h[0:8], magic[:])
	binary.LittleEndian.PutUint16(h[8:10], Version)
	h[10] = kind
	h[11] = 0 // reserved
	binary.LittleEndian.PutUint64(h[12:20], uint64(EncodeTime(mark)))
	binary.LittleEndian.PutUint64(h[20:28], uint64(EncodeTime(mark.Add(-time.Nanosecond))))
	binary.LittleEndian.PutUint32(h[28:32], crc32.Checksum(h[:28], castagnoli))
	if _, err := w.Write(h[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w}, nil
}

// Section writes one CRC-guarded section: the 5-byte framing, the
// payload as given (not copied; Section does not retain it), and the
// CRC computed over framing then payload.
func (sw *Writer) Section(kind uint8, payload []byte) error {
	if sw.err != nil {
		return sw.err
	}
	var pre [5]byte
	pre[0] = kind
	binary.LittleEndian.PutUint32(pre[1:], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(pre[:], castagnoli), castagnoli, payload)
	var post [4]byte
	binary.LittleEndian.PutUint32(post[:], crc)
	for _, b := range [...][]byte{pre[:], payload, post[:]} {
		if _, sw.err = sw.w.Write(b); sw.err != nil {
			return sw.err
		}
	}
	return nil
}

// Close writes the end marker. It does not close the underlying
// writer.
func (sw *Writer) Close() error {
	return sw.Section(secEnd, nil)
}

// Reader consumes one snapshot written by Writer.
type Reader struct {
	r   io.Reader
	hdr Header
	buf []byte
}

// NewReader reads and validates the snapshot header.
func NewReader(r io.Reader) (*Reader, error) {
	var h [headerSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if !bytes.Equal(h[0:8], magic[:]) {
		return nil, ErrBadMagic
	}
	if got := binary.LittleEndian.Uint32(h[28:32]); got != crc32.Checksum(h[:28], castagnoli) {
		return nil, fmt.Errorf("%w: header", ErrChecksum)
	}
	hdr := Header{
		Version: binary.LittleEndian.Uint16(h[8:10]),
		Kind:    h[10],
		Mark:    DecodeTime(int64(binary.LittleEndian.Uint64(h[12:20]))),
		Horizon: DecodeTime(int64(binary.LittleEndian.Uint64(h[20:28]))),
	}
	if hdr.Version < minVersion || hdr.Version > Version {
		return nil, fmt.Errorf("%w: version %d (supported: %d–%d)", ErrVersion, hdr.Version, minVersion, Version)
	}
	if hdr.Mark.IsZero() || !hdr.Horizon.Equal(hdr.Mark.Add(-time.Nanosecond)) {
		return nil, fmt.Errorf("%w: inconsistent mark/horizon", ErrFormat)
	}
	return &Reader{r: r, hdr: hdr}, nil
}

// Header returns the validated header.
func (sr *Reader) Header() Header { return sr.hdr }

// Next returns the next section. At the end marker it returns io.EOF.
// The payload is only valid until the next call.
func (sr *Reader) Next() (kind uint8, payload []byte, err error) {
	var pre [5]byte
	if _, err := io.ReadFull(sr.r, pre[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: section header: %v", ErrTruncated, err)
	}
	kind = pre[0]
	n := binary.LittleEndian.Uint32(pre[1:5])
	if n > 1<<31 {
		return 0, nil, fmt.Errorf("%w: section length %d", ErrFormat, n)
	}
	// Read the payload straight into the buffer's spare capacity,
	// doubling it (from sectionChunk, capped at n) only when full, so
	// the allocation stays within twice the bytes actually present — a
	// corrupted length field must fail as ErrTruncated after the real
	// input runs out, not reserve gigabytes up front.
	const sectionChunk = 64 << 10
	buf := sr.buf[:0]
	for len(buf) < int(n) {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(int(n), max(2*cap(buf), sectionChunk)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(sr.r, buf[len(buf):min(int(n), cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return 0, nil, fmt.Errorf("%w: section payload: %v", ErrTruncated, err)
		}
	}
	sr.buf = buf
	var crcb [4]byte
	if _, err := io.ReadFull(sr.r, crcb[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: section checksum: %v", ErrTruncated, err)
	}
	crc := crc32.Checksum(pre[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, buf)
	if binary.LittleEndian.Uint32(crcb[:]) != crc {
		return 0, nil, fmt.Errorf("%w: section kind %d", ErrChecksum, kind)
	}
	if kind == secEnd {
		return 0, nil, io.EOF
	}
	return kind, buf, nil
}

// Enc is an append-based canonical little-endian payload encoder.
type Enc struct {
	B []byte
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

// U16 appends a fixed-width little-endian uint16.
func (e *Enc) U16(v uint16) { e.B = binary.LittleEndian.AppendUint16(e.B, v) }

// U32 appends a fixed-width little-endian uint32.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Uvarint appends a varint-encoded uint64.
func (e *Enc) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }

// Varint appends a zigzag varint-encoded int64.
func (e *Enc) Varint(v int64) { e.B = binary.AppendVarint(e.B, v) }

// Time appends an instant (fixed-width; MinInt64 for the zero time).
func (e *Enc) Time(t time.Time) { e.U64(uint64(EncodeTime(t))) }

// Raw appends bytes verbatim (the caller fixed the length elsewhere).
func (e *Enc) Raw(b []byte) { e.B = append(e.B, b...) }

// Dec decodes payloads written by Enc. Errors are sticky: after the
// first underflow every read returns zero values and Err is non-nil.
type Dec struct {
	b   []byte
	err error
}

// NewDec wraps a payload.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error (ErrTruncated-wrapped underflow).
func (d *Dec) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.b) }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: payload underflow", ErrTruncated)
	}
	d.b = nil
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// U16 reads a fixed-width little-endian uint16.
func (d *Dec) U16() uint16 {
	if len(d.b) < 2 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

// U32 reads a fixed-width little-endian uint32.
func (d *Dec) U32() uint32 {
	if len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// U64 reads a fixed-width little-endian uint64.
func (d *Dec) U64() uint64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// F64 reads a float64 from its IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Uvarint reads a varint-encoded uint64.
func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a zigzag varint-encoded int64.
func (d *Dec) Varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Time reads an instant written by Enc.Time.
func (d *Dec) Time() time.Time { return DecodeTime(int64(d.U64())) }

// Raw reads n bytes verbatim. The returned slice aliases the payload.
func (d *Dec) Raw(n int) []byte {
	if n < 0 || len(d.b) < n {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}
