// Package firewall models the paper's primary data source: unsolicited
// packets logged at the firewall of CDN machines. It defines the log
// record schema, a compact binary codec for log files, the collection
// policy (no TCP/80, no TCP/443, no ICMPv6 — Section 2.1), and the
// "5-duplicate" artifact pre-filter of Appendix A.1 that removes SMTP
// fallback and IPsec misconfiguration traffic before scan detection.
package firewall

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// Record is one unsolicited packet logged by a machine's firewall.
// This is the schema every detector in this repository consumes; the
// CDN pipeline reads it from binary logs, the MAWI pipeline from the
// frames of pcap captures.
type Record struct {
	Time    time.Time
	Src     netip.Addr
	Dst     netip.Addr
	Proto   layers.IPProtocol
	SrcPort uint16
	DstPort uint16
	// Length is the IPv6 payload length plus the 40-byte fixed header:
	// the on-wire L3 packet size. The MAWI detector's packet-length
	// entropy criterion consumes it. A packet larger than 65535 bytes
	// (a payload-length field of 65496 or more, as GRO/TSO host captures
	// and truncated 64 KiB packets carry) reads 65535: the size
	// saturates rather than wrapping.
	Length uint16
}

// Service identifies a targeted service as protocol + destination port,
// the unit of the paper's port analyses ("TCP/22").
type Service struct {
	Proto layers.IPProtocol
	Port  uint16
}

// String renders the Table-3 style label, e.g. "TCP/22" or "ICMPv6".
func (s Service) String() string {
	if s.Proto == layers.ProtoICMPv6 {
		return "ICMPv6"
	}
	return fmt.Sprintf("%v/%d", s.Proto, s.Port)
}

// Service returns the record's targeted service.
func (r Record) Service() Service {
	return Service{Proto: r.Proto, Port: r.DstPort}
}

// CollectPolicy is the CDN logging policy of Section 2.1.
type CollectPolicy struct {
	// ExcludedTCPPorts are destination ports never logged because the
	// machines serve them (TCP/80 and TCP/443 at the CDN).
	ExcludedTCPPorts map[uint16]bool
	// LogICMPv6 is false at the CDN (ICMPv6 is not collected).
	LogICMPv6 bool
}

// DefaultCollectPolicy returns the paper's CDN policy.
func DefaultCollectPolicy() CollectPolicy {
	return CollectPolicy{
		ExcludedTCPPorts: map[uint16]bool{80: true, 443: true},
		LogICMPv6:        false,
	}
}

// Admit reports whether the policy logs this record.
func (p CollectPolicy) Admit(r Record) bool {
	if !netaddr6.IsIPv6(r.Src) || !netaddr6.IsIPv6(r.Dst) {
		return false
	}
	switch r.Proto {
	case layers.ProtoTCP:
		return !p.ExcludedTCPPorts[r.DstPort]
	case layers.ProtoICMPv6:
		return p.LogICMPv6
	default:
		return true
	}
}

// recordWireSize is the fixed encoded size of a Record.
const recordWireSize = 8 + 16 + 16 + 1 + 2 + 2 + 2 // 47

// RecordWireSize is the fixed encoded size of a Record in a binary
// log: the alignment unit for chunked decoding (PlanChunks) and for
// splitting log files at record boundaries.
const RecordWireSize = recordWireSize

// Errors returned by the codec.
var (
	ErrShortRecord = errors.New("firewall: short record")
	// ErrNotIPv6 rejects a record whose source or destination is not a
	// plain IPv6 address (an IPv4-mapped one): the detectors aggregate
	// sources as IPv6 prefixes and take none other.
	ErrNotIPv6 = errors.New("firewall: not an IPv6 address")
)

// AppendBinary encodes r in the fixed 47-byte wire form.
func (r Record) AppendBinary(b []byte) []byte {
	var tmp [recordWireSize]byte
	binary.BigEndian.PutUint64(tmp[0:8], uint64(r.Time.UnixNano()))
	src, dst := r.Src.As16(), r.Dst.As16()
	copy(tmp[8:24], src[:])
	copy(tmp[24:40], dst[:])
	tmp[40] = uint8(r.Proto)
	binary.BigEndian.PutUint16(tmp[41:43], r.SrcPort)
	binary.BigEndian.PutUint16(tmp[43:45], r.DstPort)
	binary.BigEndian.PutUint16(tmp[45:47], r.Length)
	return append(b, tmp[:]...)
}

// DecodeBinary decodes a record from the fixed wire form. A source or
// destination that is not plain IPv6 fails with ErrNotIPv6.
func (r *Record) DecodeBinary(b []byte) error {
	if len(b) < recordWireSize {
		return ErrShortRecord
	}
	r.Time = time.Unix(0, int64(binary.BigEndian.Uint64(b[0:8]))).UTC()
	var a [16]byte
	copy(a[:], b[8:24])
	r.Src = netip.AddrFrom16(a)
	copy(a[:], b[24:40])
	r.Dst = netip.AddrFrom16(a)
	r.Proto = layers.IPProtocol(b[40])
	r.SrcPort = binary.BigEndian.Uint16(b[41:43])
	r.DstPort = binary.BigEndian.Uint16(b[43:45])
	r.Length = binary.BigEndian.Uint16(b[45:47])
	if !netaddr6.IsIPv6(r.Src) || !netaddr6.IsIPv6(r.Dst) {
		return fmt.Errorf("%w: %v → %v", ErrNotIPv6, r.Src, r.Dst)
	}
	return nil
}

// Writer streams records to a log file in binary form.
type Writer struct {
	w   io.Writer
	buf []byte
	n   uint64
}

// NewWriter returns a log writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 64*recordWireSize)}
}

// Write appends one record, buffering internally; call Flush when done.
func (w *Writer) Write(r Record) error {
	w.buf = r.AppendBinary(w.buf)
	w.n++
	if len(w.buf) >= cap(w.buf)-recordWireSize {
		return w.Flush()
	}
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.n }

// Flush writes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Reader streams records from a binary log file, one at a time (Next)
// or in bulk (NextBatch, the ingest hot path: one buffered read and a
// tight decode loop per batch instead of one read syscall-ish hop per
// record).
type Reader struct {
	r    io.Reader
	buf  [recordWireSize]byte
	bulk []byte
}

// NewReader returns a log reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next returns the next record; io.EOF signals a clean end.
func (rd *Reader) Next() (Record, error) {
	if n, err := io.ReadFull(rd.r, rd.buf[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			// n is the actual partial length (the fuzz harness pins the
			// count against NextBatch's; this used to misreport the full
			// record size).
			return Record{}, fmt.Errorf("%w: trailing %d bytes", ErrShortRecord, n)
		}
		return Record{}, err
	}
	var r Record
	if err := r.DecodeBinary(rd.buf[:]); err != nil {
		return Record{}, err
	}
	return r, nil
}

// NextBatch decodes up to max records in one bulk read, appending them
// to dst (normally dst has len 0 and cap ≥ max, so the call does not
// allocate). It returns the extended slice and one of:
//
//   - nil — max records were decoded and more may follow;
//   - io.EOF — the stream ended cleanly; any final records are in the
//     returned slice (len > len(dst) is possible alongside io.EOF);
//   - another error — decoding stopped there (ErrShortRecord for a
//     truncated trailing record, ErrNotIPv6 for a rejected one;
//     records decoded before the error are returned).
func (rd *Reader) NextBatch(dst []Record, max int) ([]Record, error) {
	if max <= 0 {
		return dst, nil
	}
	need := max * recordWireSize
	// Grow on demand, but also re-allocate smaller once the requested
	// batch drops well below the buffer: without the second arm, one
	// huge batch request pins its buffer for the reader's lifetime. The
	// floor keeps small-batch callers from thrashing allocations.
	if cap(rd.bulk) < need ||
		(cap(rd.bulk) >= bulkShrinkFactor*need && cap(rd.bulk) > bulkRetainBytes) {
		rd.bulk = make([]byte, need)
	}
	buf := rd.bulk[:need]
	n, err := io.ReadFull(rd.r, buf)
	dst, derr := appendDecoded(dst, buf[:n-n%recordWireSize])
	if derr != nil {
		return dst, derr
	}
	switch err {
	case nil:
		return dst, nil
	case io.EOF:
		// Read nothing: clean end of stream.
		return dst, io.EOF
	case io.ErrUnexpectedEOF:
		if rem := n % recordWireSize; rem != 0 {
			return dst, fmt.Errorf("%w: trailing %d bytes", ErrShortRecord, rem)
		}
		return dst, io.EOF
	default:
		return dst, err
	}
}

// Bulk-buffer right-sizing policy: shrink when the buffer is at least
// bulkShrinkFactor times the current need, but never below
// bulkRetainBytes (small buffers are cheap to keep and expensive to
// thrash).
const (
	bulkShrinkFactor = 4
	bulkRetainBytes  = 64 * recordWireSize
)

// appendDecoded bulk-decodes the record-aligned buf into dst, stopping
// at the first record DecodeBinary rejects. It is the shared decode
// loop of NextBatch and DecodeChunk; buf's length must be a multiple
// of recordWireSize.
func appendDecoded(dst []Record, buf []byte) ([]Record, error) {
	for i := 0; i+recordWireSize <= len(buf); i += recordWireSize {
		var r Record
		if err := r.DecodeBinary(buf[i : i+recordWireSize]); err != nil {
			return dst, err
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// Chunk is a contiguous byte range of a binary log, planned by
// PlanChunks for one decode worker.
type Chunk struct {
	Offset int64
	Length int64
}

// Records returns the number of complete records in the chunk.
func (c Chunk) Records() int { return int(c.Length / recordWireSize) }

// PlanChunks splits a log of size bytes into at most n contiguous
// record-aligned chunks covering [0, size) exactly. Records are spread
// near-evenly (every chunk but the last holds ceil(records/n) whole
// records), so the plan is deterministic for a given (size, n). Any
// trailing partial-record bytes ride the last chunk, where DecodeChunk
// reproduces the serial reader's ErrShortRecord diagnostic. A size
// smaller than one record yields a single chunk holding just those
// trailing bytes; a non-positive size yields no chunks.
func PlanChunks(size int64, n int) []Chunk {
	if size <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	records := size / recordWireSize
	per := (records + int64(n) - 1) / int64(n) // records per chunk, ≥ 0
	if per == 0 {
		// Fewer bytes than one record: a single trailing-bytes chunk.
		return []Chunk{{Offset: 0, Length: size}}
	}
	chunks := make([]Chunk, 0, (records+per-1)/per)
	for off := int64(0); off < records*recordWireSize; off += per * recordWireSize {
		length := per * recordWireSize
		if rest := records*recordWireSize - off; length > rest {
			length = rest
		}
		chunks = append(chunks, Chunk{Offset: off, Length: length})
	}
	chunks[len(chunks)-1].Length += size - records*recordWireSize
	return chunks
}

// DecodeChunk bulk-decodes every complete record in buf, appending to
// dst (normally len 0, cap ≥ len(buf)/RecordWireSize, so the call does
// not allocate). Trailing bytes that do not form a whole record yield
// the same "trailing N bytes" ErrShortRecord the serial reader
// reports, with the decoded records still returned — so a chunked
// decode of a truncated log fails with a byte-identical error to
// Reader.NextBatch. A rejected record (ErrNotIPv6) stops the decode
// there, as it stops the serial reader.
func DecodeChunk(buf []byte, dst []Record) ([]Record, error) {
	dst, err := appendDecoded(dst, buf)
	if err != nil {
		return dst, err
	}
	if rem := len(buf) % recordWireSize; rem != 0 {
		return dst, fmt.Errorf("%w: trailing %d bytes", ErrShortRecord, rem)
	}
	return dst, nil
}
