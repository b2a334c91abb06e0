// Package events defines the wire envelope carried between distributed
// pipeline endpoints: the unit a vantage-point collector publishes and
// an aggregator consumes. An envelope frames a run of firewall records
// for one topic, with a per-topic sequence number so a consumer can
// detect gaps, and an end-of-stream marker so a publisher can hand off
// a finite stream cleanly.
//
// # Format (version 1)
//
// One envelope is a self-contained, CRC-guarded message:
//
//	envelope := magic[8] version:u16 kind:u8 reserved:u8
//	            topicLen:u16 topic[topicLen]
//	            seq:u64 count:u32 payload crc32c:u32
//
// Header integers are little-endian, encoded with the same
// checkpoint.Enc/Dec primitives the snapshot container uses, and the
// trailing CRC-32C (Castagnoli) covers every preceding byte — the same
// corruption discipline as internal/checkpoint. The payload is count
// back-to-back fixed-width bodies: firewall records in their 47-byte
// log wire form (KindRecords), or nothing (KindEOS, count must be
// zero). The encoding is canonical: decoding a valid envelope and
// re-encoding it reproduces the input bytes exactly
// (FuzzEnvelopeRoundtrip).
//
// # Topics
//
// Topics partition a record stream the same way the sharded consumers
// do: by the source address aggregated to the coarsest configured
// level (dispatch.Partition), so all state for a source — at every
// aggregation level — is reachable through exactly one topic. Within a
// topic, envelope order is stream order (Seq increments by one);
// across topics there is no ordering, which is precisely the freedom
// the sharding invariant licenses. RecordTopics names the
// per-partition topics of one publisher's stream.
package events

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"

	"v6scan/internal/checkpoint"
	"v6scan/internal/firewall"
)

// magic identifies a v6scan event envelope. The CR/LF tail catches
// text-mode transfer mangling, like the snapshot container's magic.
var magic = [8]byte{'v', '6', 'e', 'v', 'n', 't', '\r', '\n'}

// Version is the current (and only) envelope format version.
const Version uint16 = 1

// Envelope kinds. Value 2, which once framed IDS alerts, stays unused
// so that KindEOS keeps its wire value; it decodes as an unknown kind.
const (
	// KindRecords carries a run of firewall records in log wire form.
	KindRecords uint8 = 1
	// KindEOS marks the end of a topic's stream: the publisher is done
	// and will not publish to this topic again. Count is always zero.
	KindEOS uint8 = 3
)

// Typed codec errors, mirroring the checkpoint container's set so
// callers distinguish corruption from version skew from truncation.
var (
	ErrBadMagic  = errors.New("events: bad magic (not a v6scan envelope)")
	ErrVersion   = errors.New("events: unsupported envelope format version")
	ErrChecksum  = errors.New("events: checksum mismatch (envelope corrupted)")
	ErrTruncated = errors.New("events: envelope truncated")
	ErrFormat    = errors.New("events: malformed envelope")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerSize is the fixed part before the topic bytes; minSize is the
// smallest possible envelope (empty topic, empty payload).
const (
	headerSize = 8 + 2 + 1 + 1 + 2
	minSize    = headerSize + 8 + 4 + 4
)

// Envelope is one decoded wire message. Records is populated only for
// KindRecords.
type Envelope struct {
	Kind  uint8
	Topic string
	// Seq is the per-topic sequence number the publisher assigned,
	// starting at 0 and incrementing by one per envelope (the EOS
	// envelope takes the next number in line).
	Seq     uint64
	Records []firewall.Record
}

// Append encodes e onto b and returns the extended slice. The topic
// must fit a u16 length and the kind must be one of the defined kinds
// (with Records populated only on a records envelope).
func (e *Envelope) Append(b []byte) ([]byte, error) {
	switch e.Kind {
	case KindRecords:
	case KindEOS:
		if len(e.Records) != 0 {
			return nil, fmt.Errorf("%w: payload on an EOS envelope", ErrFormat)
		}
	default:
		return nil, fmt.Errorf("%w: unknown envelope kind %d", ErrFormat, e.Kind)
	}
	if len(e.Topic) > 0xFFFF {
		return nil, fmt.Errorf("%w: topic longer than 65535 bytes", ErrFormat)
	}
	start := len(b)
	enc := checkpoint.Enc{B: b}
	enc.Raw(magic[:])
	enc.U16(Version)
	enc.U8(e.Kind)
	enc.U8(0) // reserved
	enc.U16(uint16(len(e.Topic)))
	enc.Raw([]byte(e.Topic))
	enc.U64(e.Seq)
	enc.U32(uint32(len(e.Records)))
	for _, r := range e.Records {
		enc.B = r.AppendBinary(enc.B)
	}
	enc.U32(crc32.Checksum(enc.B[start:], castagnoli))
	return enc.B, nil
}

// Decode parses one complete envelope from b into e, reusing e's
// Records backing array. The slice must hold exactly one
// envelope: trailing bytes are ErrFormat (the transport is
// message-framed, so extra bytes mean a framing bug, not a second
// envelope). Decoded Records do not alias b.
func (e *Envelope) Decode(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if !bytes.Equal(b[:8], magic[:]) {
		return ErrBadMagic
	}
	if len(b) < minSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	body, crcb := b[:len(b)-4], b[len(b)-4:]
	d := checkpoint.NewDec(crcb)
	if d.U32() != crc32.Checksum(body, castagnoli) {
		return ErrChecksum
	}
	d = checkpoint.NewDec(body[8:])
	if v := d.U16(); v != Version {
		return fmt.Errorf("%w: version %d (supported: %d)", ErrVersion, v, Version)
	}
	e.Kind = d.U8()
	if reserved := d.U8(); reserved != 0 {
		return fmt.Errorf("%w: nonzero reserved byte", ErrFormat)
	}
	e.Topic = string(d.Raw(int(d.U16())))
	e.Seq = d.U64()
	count := int(d.U32())
	if d.Err() != nil {
		// The CRC validated, so the bytes arrived intact: a header field
		// overrunning the message is an encoder bug, not truncation.
		return fmt.Errorf("%w: header fields overrun envelope", ErrFormat)
	}
	e.Records = e.Records[:0]
	const bodySize = firewall.RecordWireSize
	switch e.Kind {
	case KindRecords:
	case KindEOS:
		if count != 0 || d.Len() != 0 {
			return fmt.Errorf("%w: payload on an EOS envelope", ErrFormat)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown envelope kind %d", ErrFormat, e.Kind)
	}
	// Compare via division so a huge count cannot overflow a multiply.
	switch {
	case count > d.Len()/bodySize:
		return fmt.Errorf("%w: payload holds %d of %d bodies", ErrTruncated,
			d.Len()/bodySize, count)
	case d.Len() > count*bodySize:
		return fmt.Errorf("%w: %d trailing payload bytes", ErrFormat,
			d.Len()-count*bodySize)
	}
	for i := 0; i < count; i++ {
		var r firewall.Record
		if err := r.DecodeBinary(d.Raw(bodySize)); err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrFormat, i, err)
		}
		e.Records = append(e.Records, r)
	}
	return nil
}

// RecordTopic names one record-stream partition of a publisher: the
// topic records whose coarsest-level source prefix hashes to part land
// on. stream identifies the publisher (a collector name); part is the
// dispatch.Partition index.
func RecordTopic(stream string, part int) string {
	return fmt.Sprintf("rec.%s.%d", stream, part)
}

// RecordTopics names all parts partitions of stream, in partition
// order — the topic list a publisher registers and a subscriber
// merges.
func RecordTopics(stream string, parts int) []string {
	if parts < 1 {
		parts = 1
	}
	topics := make([]string, parts)
	for i := range topics {
		topics[i] = RecordTopic(stream, i)
	}
	return topics
}
