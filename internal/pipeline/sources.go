package pipeline

import (
	"io"
	"math"
	"net/netip"

	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/pcap"
)

// All EmitBatch implementations below share the pooled-buffer contract
// of the package doc ("Batch ownership"): chunk buffers are drawn from
// the dispatch package's batch arena — the same pool the sharded
// sinks' dispatcher recycles its per-shard buffers through — refilled
// in place for every chunk including the final short one, and returned
// to the pool when the source is drained. Consumers therefore must not
// retain an emitted slice beyond ConsumeBatch. A non-positive
// batchSize means DefaultBatchSize.

// SliceSource emits an in-memory record slice.
type SliceSource []firewall.Record

// EmitBatch implements Source. Each chunk is copied into a pooled
// scratch buffer before emission: the batch contract lets consumers
// (filter stages) compact the slice in place, and the caller's backing
// slice must not be mutated.
func (s SliceSource) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	if len(s) == 0 {
		return nil
	}
	batchSize = batchLimit(batchSize)
	buf := dispatch.GetBatch(min(batchSize, len(s)))
	defer dispatch.PutBatch(buf)
	for start := 0; start < len(s); start += batchSize {
		end := min(start+batchSize, len(s))
		*buf = append((*buf)[:0], s[start:end]...)
		if err := emit(*buf); err != nil {
			return err
		}
	}
	return nil
}

// LogSource streams records from a binary firewall log (the
// cmd/telescope-sim output format). Logs are written in time order, so
// no sorting stage is needed.
type LogSource struct {
	r *firewall.Reader
}

// NewLogSource returns a source reading the binary log format from r.
func NewLogSource(r io.Reader) *LogSource {
	return &LogSource{r: firewall.NewReader(r)}
}

// EmitBatch implements Source via Reader.NextBatch: each chunk is one
// bulk read plus a tight decode loop straight into the pooled chunk
// buffer, so steady-state ingest performs no per-record calls and no
// per-chunk allocations.
func (s *LogSource) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	batchSize = batchLimit(batchSize)
	buf := dispatch.GetBatch(batchSize)
	defer dispatch.PutBatch(buf)
	for {
		recs, err := s.r.NextBatch((*buf)[:0], batchSize)
		*buf = recs
		if len(recs) > 0 {
			if eerr := emit(recs); eerr != nil {
				return eerr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// PcapSource streams the records of a classic pcap capture (Ethernet
// or raw IPv6 link types): layers.ParseFrame reads each frame's
// addresses, transport protocol, ports and payload length, and frames
// it rejects are counted and skipped. It is the one pcap decoder in
// the tree. Captures are normally time-ordered; callers chain a
// WindowSort stage to repair disorder — in flight for bounded disorder
// (interface-timestamp jitter), or with a window longer than the
// capture for disorder of any size, as cmd/v6scan's -window does.
type PcapSource struct {
	r       io.Reader
	skipped int
}

// NewPcapSource returns a source decoding the pcap stream r.
func NewPcapSource(r io.Reader) *PcapSource { return &PcapSource{r: r} }

// Skipped reports how many packets failed to decode; valid once
// EmitBatch has returned.
func (s *PcapSource) Skipped() int { return s.skipped }

// EmitBatch implements Source: frames are decoded into a pooled chunk
// buffer and handed downstream batchSize at a time.
func (s *PcapSource) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	batchSize = batchLimit(batchSize)
	pr, err := pcap.NewReader(s.r)
	if err != nil {
		return err
	}
	buf := dispatch.GetBatch(batchSize)
	defer dispatch.PutBatch(buf)
	for {
		p, err := pr.Next()
		if err == io.EOF {
			if len(*buf) > 0 {
				return emit(*buf)
			}
			return nil
		}
		if err != nil {
			return err
		}
		f, perr := layers.ParseFrame(p.Data, pr.Header().LinkType)
		if perr != nil {
			s.skipped++
			continue
		}
		*buf = append(*buf, firewall.Record{
			Time:    p.Timestamp,
			Src:     netip.AddrFrom16(f.Src),
			Dst:     netip.AddrFrom16(f.Dst),
			Proto:   f.Proto,
			SrcPort: f.SrcPort,
			DstPort: f.DstPort,
			// The L3 size saturates (see firewall.Record.Length).
			Length: uint16(min(int(f.PayloadLen)+40, math.MaxUint16)),
		})
		if len(*buf) == batchSize {
			if err := emit(*buf); err != nil {
				return err
			}
			*buf = (*buf)[:0]
		}
	}
}
