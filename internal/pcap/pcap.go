// Package pcap reads and writes classic libpcap capture files
// (the tcpdump format), supporting both microsecond (magic 0xa1b2c3d4)
// and nanosecond (magic 0xa1b23c4d) timestamp resolution, in either
// byte order. The MAWI archive distributes daily 15-minute traces in
// this format; the MAWI simulator writes them and the cross-check
// pipeline reads them back, so round-trip fidelity is tested.
//
// The pcapng format is deliberately out of scope: everything the paper
// consumes is classic pcap.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"v6scan/internal/layers"
)

// Magic numbers identifying pcap files.
const (
	magicMicro        = 0xa1b2c3d4
	magicNano         = 0xa1b23c4d
	magicMicroSwapped = 0xd4c3b2a1
	magicNanoSwapped  = 0x4d3cb2a1
)

// MaxSnapLen is the largest capture length accepted per packet; longer
// records indicate corruption.
const MaxSnapLen = 256 * 1024

// Errors returned by the reader.
var (
	ErrBadMagic = errors.New("pcap: bad magic number")
	ErrCorrupt  = errors.New("pcap: corrupt packet record")
	ErrSnapLen  = errors.New("pcap: record exceeds sane snap length")
)

// Header is the parsed pcap global header.
type Header struct {
	VersionMajor uint16
	VersionMinor uint16
	SnapLen      uint32
	LinkType     layers.LinkType
	Nanosecond   bool // true if timestamps carry nanoseconds
	ByteOrder    binary.ByteOrder
}

// Packet is one captured record.
type Packet struct {
	Timestamp time.Time
	// OrigLen is the original wire length; Data may be shorter if the
	// capture was truncated at SnapLen.
	OrigLen uint32
	Data    []byte
}

// Reader reads packets from a classic pcap stream.
type Reader struct {
	r   *bufio.Reader
	hdr Header
	buf []byte
}

// NewReader parses the global header and returns a reader. Reads are
// zero-copy in the sense that Next returns a buffer valid only until
// the following Next call.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var raw [24]byte
	if _, err := io.ReadFull(br, raw[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(raw[0:4])
	var (
		bo   binary.ByteOrder
		nano bool
	)
	switch magic {
	case magicMicro:
		bo, nano = binary.LittleEndian, false
	case magicNano:
		bo, nano = binary.LittleEndian, true
	case magicMicroSwapped:
		bo, nano = binary.BigEndian, false
	case magicNanoSwapped:
		bo, nano = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magic)
	}
	h := Header{
		VersionMajor: bo.Uint16(raw[4:6]),
		VersionMinor: bo.Uint16(raw[6:8]),
		SnapLen:      bo.Uint32(raw[16:20]),
		LinkType:     layers.LinkType(bo.Uint32(raw[20:24])),
		Nanosecond:   nano,
		ByteOrder:    bo,
	}
	return &Reader{r: br, hdr: h}, nil
}

// Header returns the parsed global header.
func (r *Reader) Header() Header { return r.hdr }

// Next returns the next packet. The returned Data slice is reused on
// the following Next call; callers retaining packets must copy.
// io.EOF signals a clean end of file.
func (r *Reader) Next() (Packet, error) {
	var rh [16]byte
	if _, err := io.ReadFull(r.r, rh[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: record header: %w (%v)", ErrCorrupt, err)
	}
	bo := r.hdr.ByteOrder
	sec := bo.Uint32(rh[0:4])
	frac := bo.Uint32(rh[4:8])
	capLen := bo.Uint32(rh[8:12])
	origLen := bo.Uint32(rh[12:16])
	if capLen > MaxSnapLen {
		return Packet{}, fmt.Errorf("%w: caplen %d", ErrSnapLen, capLen)
	}
	if cap(r.buf) < int(capLen) {
		r.buf = make([]byte, capLen)
	}
	data := r.buf[:capLen]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: record body: %w (%v)", ErrCorrupt, err)
	}
	nsec := int64(frac)
	if !r.hdr.Nanosecond {
		nsec *= 1000
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), nsec).UTC(),
		OrigLen:   origLen,
		Data:      data,
	}, nil
}

// Writer writes packets to a classic pcap stream.
type Writer struct {
	w       *bufio.Writer
	nano    bool
	snapLen uint32
	wrote   bool
	link    layers.LinkType
}

// WriterOptions configures a Writer.
type WriterOptions struct {
	LinkType   layers.LinkType // default LinkTypeEthernet
	Nanosecond bool            // write nanosecond-resolution timestamps
	SnapLen    uint32          // default 65535
}

// NewWriter returns a writer; the global header is emitted lazily on
// the first WritePacket (or explicitly via WriteHeader).
func NewWriter(w io.Writer, opts WriterOptions) *Writer {
	if opts.SnapLen == 0 {
		opts.SnapLen = 65535
	}
	if opts.LinkType == 0 {
		opts.LinkType = layers.LinkTypeEthernet
	}
	return &Writer{
		w:       bufio.NewWriterSize(w, 1<<16),
		nano:    opts.Nanosecond,
		snapLen: opts.SnapLen,
		link:    opts.LinkType,
	}
}

// WriteHeader writes the global header if not already written.
func (w *Writer) WriteHeader() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	var h [24]byte
	magic := uint32(magicMicro)
	if w.nano {
		magic = magicNano
	}
	binary.LittleEndian.PutUint32(h[0:4], magic)
	binary.LittleEndian.PutUint16(h[4:6], 2)
	binary.LittleEndian.PutUint16(h[6:8], 4)
	// thiszone and sigfigs remain zero.
	binary.LittleEndian.PutUint32(h[16:20], w.snapLen)
	binary.LittleEndian.PutUint32(h[20:24], uint32(w.link))
	_, err := w.w.Write(h[:])
	return err
}

// WritePacket writes one record, truncating data at SnapLen.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	if err := w.WriteHeader(); err != nil {
		return err
	}
	capLen := uint32(len(data))
	if capLen > w.snapLen {
		capLen = w.snapLen
	}
	var rh [16]byte
	sec := ts.Unix()
	var frac int64
	if w.nano {
		frac = int64(ts.Nanosecond())
	} else {
		frac = int64(ts.Nanosecond()) / 1000
	}
	binary.LittleEndian.PutUint32(rh[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(rh[4:8], uint32(frac))
	binary.LittleEndian.PutUint32(rh[8:12], capLen)
	binary.LittleEndian.PutUint32(rh[12:16], uint32(len(data)))
	if _, err := w.w.Write(rh[:]); err != nil {
		return err
	}
	_, err := w.w.Write(data[:capLen])
	return err
}

// Flush flushes buffered output to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.WriteHeader(); err != nil {
		return err
	}
	return w.w.Flush()
}
