package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

func buildTestFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	src := netaddr6.MustAddr("2001:db8::1")
	frames := make([][]byte, n)
	for i := range frames {
		dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(i))
		f, err := layers.BuildTCPSYN(src, dst, 40000, uint16(22+i), layers.BuildOptions{Link: layers.LinkTypeEthernet})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

func TestRoundTripMicro(t *testing.T) { testRoundTrip(t, false) }
func TestRoundTripNano(t *testing.T)  { testRoundTrip(t, true) }

func testRoundTrip(t *testing.T, nano bool) {
	frames := buildTestFrames(t, 10)
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{LinkType: layers.LinkTypeEthernet, Nanosecond: nano})
	base := time.Date(2021, 11, 1, 0, 0, 0, 123456789, time.UTC)
	for i, f := range frames {
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Second), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().LinkType != layers.LinkTypeEthernet {
		t.Errorf("link type %d", r.Header().LinkType)
	}
	if r.Header().Nanosecond != nano {
		t.Error("nanosecond flag mismatch")
	}
	for i := 0; ; i++ {
		p, err := r.Next()
		if err == io.EOF {
			if i != len(frames) {
				t.Fatalf("read %d packets, want %d", i, len(frames))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data, frames[i]) {
			t.Fatalf("packet %d data mismatch", i)
		}
		wantTS := base.Add(time.Duration(i) * time.Second)
		if !nano {
			wantTS = wantTS.Truncate(time.Microsecond)
		}
		if !p.Timestamp.Equal(wantTS) {
			t.Errorf("packet %d ts %v, want %v", i, p.Timestamp, wantTS)
		}
		if p.OrigLen != uint32(len(frames[i])) {
			t.Errorf("origlen %d", p.OrigLen)
		}
	}
}

func TestReadAll(t *testing.T) {
	frames := buildTestFrames(t, 5)
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	for _, f := range frames {
		if err := w.WritePacket(time.Unix(1609459200, 0), f); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Next yields every packet, then io.EOF.
	n := 0
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data, frames[n]) {
			t.Fatalf("packet %d differs from the frame written", n)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("got %d", n)
	}
}

func TestSnapLenTruncation(t *testing.T) {
	frames := buildTestFrames(t, 1)
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{SnapLen: 30})
	if err := w.WritePacket(time.Unix(0, 0), frames[0]); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, _ := NewReader(&buf)
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 30 {
		t.Errorf("caplen %d, want 30", len(p.Data))
	}
	if p.OrigLen != uint32(len(frames[0])) {
		t.Errorf("origlen %d, want %d", p.OrigLen, len(frames[0]))
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-build a big-endian (swapped magic) capture.
	var buf bytes.Buffer
	var h [24]byte
	binary.BigEndian.PutUint32(h[0:4], magicMicro) // BE writer → LE reader sees swapped
	binary.BigEndian.PutUint16(h[4:6], 2)
	binary.BigEndian.PutUint16(h[6:8], 4)
	binary.BigEndian.PutUint32(h[16:20], 65535)
	binary.BigEndian.PutUint32(h[20:24], uint32(layers.LinkTypeRaw))
	buf.Write(h[:])
	payload := []byte{0xde, 0xad}
	var rh [16]byte
	binary.BigEndian.PutUint32(rh[0:4], 100)
	binary.BigEndian.PutUint32(rh[4:8], 7)
	binary.BigEndian.PutUint32(rh[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(rh[12:16], uint32(len(payload)))
	buf.Write(rh[:])
	buf.Write(payload)

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().ByteOrder != binary.BigEndian {
		t.Error("byte order not detected")
	}
	if r.Header().LinkType != layers.LinkTypeRaw {
		t.Errorf("link type %d", r.Header().LinkType)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.Timestamp.Unix() != 100 || !bytes.Equal(p.Data, payload) {
		t.Errorf("packet %+v", p)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 24)))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("got %v", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 10)))
	if err == nil {
		t.Error("truncated header accepted")
	}
}

func TestCorruptRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	w.WritePacket(time.Unix(0, 0), []byte{1, 2, 3, 4})
	w.Flush()
	data := buf.Bytes()
	// Chop off the last 2 payload bytes.
	r, err := NewReader(bytes.NewReader(data[:len(data)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("got %v", err)
	}
}

func TestInsaneCapLen(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	w.WriteHeader()
	w.Flush()
	var rh [16]byte
	binary.LittleEndian.PutUint32(rh[8:12], MaxSnapLen+1)
	buf.Write(rh[:])
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrSnapLen) {
		t.Errorf("got %v", err)
	}
}

func TestEmptyFileJustHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	w.Flush() // header only
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("got %v, want EOF", err)
	}
}

func TestPcapToParserPipeline(t *testing.T) {
	// End-to-end: build frames → pcap → read → ParseFrame.
	frames := buildTestFrames(t, 3)
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{LinkType: layers.LinkTypeEthernet})
	for _, f := range frames {
		w.WritePacket(time.Unix(1609459200, 0), f)
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		f, err := layers.ParseFrame(p.Data, r.Header().LinkType)
		if err != nil {
			t.Fatal(err)
		}
		if f.Proto != layers.ProtoTCP || f.DstPort != uint16(22+n) {
			t.Errorf("packet %d: %v/%d", n, f.Proto, f.DstPort)
		}
		n++
	}
	if n != 3 {
		t.Errorf("parsed %d", n)
	}
}
