package pipeline

// Distributed pipeline endpoints: PublishSink ships a pipeline's
// record stream onto a bus as topic-partitioned event envelopes, and
// SubscribeSource replays one topic's envelopes back into a pipeline.
// Together they split one logical pipeline across processes — N
// vantage-point collectors publishing, one aggregator subscribing —
// with output byte-identical to the in-process sharded run (see the
// package doc's "Wire layer" section for the topic scheme and the
// ordering argument).

import (
	"context"
	"errors"
	"fmt"

	"v6scan/internal/bus"
	"v6scan/internal/dispatch"
	"v6scan/internal/events"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

// ErrEnvelopeGap reports a hole in a topic's envelope sequence: the
// subscriber attached after publishing started, or the broker lost a
// message. The stream cannot be trusted past a gap, so the run aborts.
var ErrEnvelopeGap = errors.New("pipeline: envelope sequence gap")

// PublishSink is a terminal sink that publishes the record stream onto
// a bus, partitioned across topics by the coarsest-level source prefix
// (dispatch.Partition) — the same routing the in-process sharded
// consumers use, so a subscriber merging the topics reconstructs a
// stream the detector/IDS reduce to byte-identical output.
//
// The sink is batch-native and follows the pooled-batch contract:
// incoming batches are only read during the call (records are copied
// into per-topic staging buffers, and the bus copies again on
// publish). Each topic's envelopes carry consecutive sequence numbers
// from 0; Flush publishes any staged remainder and then one EOS
// envelope per topic, idempotently — a second Flush is a no-op, and
// Close (which implies Flush) releases the staging buffers.
type PublishSink struct {
	ctx    context.Context
	bus    *bus.Bus
	level  netaddr6.AggLevel
	topics []string

	stage []*[]firewall.Record
	seqs  []uint64
	eos   []bool
	enc   []byte
	env   events.Envelope

	envelopes uint64
	flushed   bool
	closed    bool
}

// NewPublishSink returns a sink publishing onto b, routing each record
// to topics[dispatch.Partition(r.Src, level, len(topics))]. level is
// the partition level — the coarsest configured aggregation level
// (dispatch.CoarsestLevel), so that all of a source's state lands
// behind one topic. ctx bounds blocking publishes (backpressure): when
// it is cancelled, in-flight and future publishes fail with its error.
func NewPublishSink(ctx context.Context, b *bus.Bus, level netaddr6.AggLevel, topics ...string) *PublishSink {
	if len(topics) == 0 {
		panic("pipeline: PublishSink needs at least one topic")
	}
	if !level.Valid() {
		panic("pipeline: PublishSink needs a valid partition level")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &PublishSink{
		ctx:    ctx,
		bus:    b,
		level:  level,
		topics: append([]string(nil), topics...),
		stage:  make([]*[]firewall.Record, len(topics)),
		seqs:   make([]uint64, len(topics)),
		eos:    make([]bool, len(topics)),
	}
	for i := range s.stage {
		s.stage[i] = dispatch.GetBatch(DefaultBatchSize)
	}
	return s
}

// Envelopes returns the number of envelopes published so far
// (including EOS markers). Safe after the run ends.
func (s *PublishSink) Envelopes() uint64 { return s.envelopes }

// ConsumeBatch implements RecordSink: the batch is partitioned into the
// staging buffers (a stage reaching DefaultBatchSize is published at
// once) and every non-empty stage is published before the call
// returns, so a topic never lags the stream by more than one batch —
// that bound is what keeps a merging subscriber's bounded buffers from
// stalling a publisher on skewed traffic.
func (s *PublishSink) ConsumeBatch(recs []firewall.Record) error {
	for _, r := range recs {
		p := 0
		if len(s.topics) > 1 {
			p = dispatch.Partition(r.Src, s.level, len(s.topics))
		}
		st := s.stage[p]
		*st = append(*st, r)
		if len(*st) >= DefaultBatchSize {
			if err := s.publishTopic(p); err != nil {
				return err
			}
		}
	}
	return s.publishPending()
}

// publishPending publishes every non-empty staging buffer.
func (s *PublishSink) publishPending() error {
	for i := range s.stage {
		if len(*s.stage[i]) > 0 {
			if err := s.publishTopic(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// publishTopic encodes topic i's stage as one envelope and publishes
// it, blocking under subscriber backpressure.
func (s *PublishSink) publishTopic(i int) error {
	st := s.stage[i]
	s.env = events.Envelope{
		Kind:    events.KindRecords,
		Topic:   s.topics[i],
		Seq:     s.seqs[i],
		Records: *st,
	}
	b, err := s.env.Append(s.enc[:0])
	if err != nil {
		return err
	}
	s.enc = b
	if err := s.bus.Publish(s.ctx, s.topics[i], b); err != nil {
		return fmt.Errorf("pipeline: publishing to %s: %w", s.topics[i], err)
	}
	s.seqs[i]++
	s.envelopes++
	*st = (*st)[:0]
	return nil
}

// Flush implements RecordSink: staged remainders are published, then
// one EOS envelope per topic ends each stream. Idempotent — after the
// first successful Flush further calls are no-ops, and a failed Flush
// resumes where it stopped (EOS is sent at most once per topic).
func (s *PublishSink) Flush() error {
	if s.flushed {
		return nil
	}
	if err := s.publishPending(); err != nil {
		return err
	}
	for i := range s.topics {
		if s.eos[i] {
			continue
		}
		s.env = events.Envelope{Kind: events.KindEOS, Topic: s.topics[i], Seq: s.seqs[i]}
		b, err := s.env.Append(s.enc[:0])
		if err != nil {
			return err
		}
		s.enc = b
		if err := s.bus.Publish(s.ctx, s.topics[i], b); err != nil {
			return fmt.Errorf("pipeline: publishing to %s: %w", s.topics[i], err)
		}
		s.seqs[i]++
		s.envelopes++
		s.eos[i] = true
	}
	s.flushed = true
	return nil
}

// Close implements Sink: Flush, then release the staging buffers.
// Idempotent.
func (s *PublishSink) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.Flush()
	for _, st := range s.stage {
		dispatch.PutBatch(st)
	}
	s.stage = nil
	return err
}

// SubscribeSource replays one topic's record envelopes from a bus into
// a pipeline: it subscribes at construction time (so envelopes
// published between construction and the run are buffered, not lost),
// pulls and decodes envelopes, verifies the per-topic sequence is
// gapless, and ends cleanly at the topic's EOS envelope. Emitted
// batches follow the pooled-batch contract. To consume several topics
// in one pipeline, merge SubscribeSources with FromBus.
type SubscribeSource struct {
	ctx   context.Context
	topic string
	sub   *bus.Subscription
	err   error
}

// NewSubscribeSource subscribes to topic on b (with the bus default
// buffer depth) and returns the source. A subscribe failure (closed
// bus) surfaces when the source runs, keeping construction fluent.
func NewSubscribeSource(ctx context.Context, b *bus.Bus, topic string) *SubscribeSource {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &SubscribeSource{ctx: ctx, topic: topic}
	s.sub, s.err = b.Subscribe(0, topic)
	return s
}

// EmitBatch implements Source.
func (s *SubscribeSource) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	if s.err != nil {
		return fmt.Errorf("pipeline: subscribing to %s: %w", s.topic, s.err)
	}
	batchSize = batchLimit(batchSize)
	defer s.sub.Close()
	buf := dispatch.GetBatch(batchSize)
	var env events.Envelope
	env.Records = *buf
	defer func() {
		*buf = env.Records[:0]
		dispatch.PutBatch(buf)
	}()
	var nextSeq uint64
	for {
		msg, err := s.sub.Pull(s.ctx)
		if err != nil {
			if errors.Is(err, bus.ErrClosed) {
				return fmt.Errorf("pipeline: topic %s: bus closed before end of stream", s.topic)
			}
			return fmt.Errorf("pipeline: topic %s: %w", s.topic, err)
		}
		if err := env.Decode(msg.Data); err != nil {
			return fmt.Errorf("pipeline: topic %s: %w", s.topic, err)
		}
		if env.Topic != s.topic {
			return fmt.Errorf("pipeline: topic %s: envelope addressed to %q", s.topic, env.Topic)
		}
		if env.Seq != nextSeq {
			return fmt.Errorf("%w: topic %s: got seq %d, want %d",
				ErrEnvelopeGap, s.topic, env.Seq, nextSeq)
		}
		nextSeq++
		switch env.Kind {
		case events.KindEOS:
			return nil
		case events.KindRecords:
			for start := 0; start < len(env.Records); start += batchSize {
				end := start + batchSize
				if end > len(env.Records) {
					end = len(env.Records)
				}
				if err := emit(env.Records[start:end]); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("pipeline: topic %s: unexpected envelope kind %d", s.topic, env.Kind)
		}
	}
}

// FromBus starts a builder consuming the given topics from b: one
// SubscribeSource per topic, k-way merged in timestamp order
// (MergeSource) when there is more than one. Subscriptions attach
// immediately, so publishers started after FromBus returns cannot race
// the run. Topic order is the merge tie-break order: list the topics
// of lower-indexed publishers first to reproduce concatenation order
// on equal timestamps (see the package doc, "Wire layer").
func FromBus(b *bus.Bus, topics ...string) *Builder {
	return FromBusContext(context.Background(), b, topics...)
}

// FromBusContext is FromBus with an explicit context bounding the
// blocking pulls: cancel it to abort a subscriber waiting on
// publishers that will never finish.
func FromBusContext(ctx context.Context, b *bus.Bus, topics ...string) *Builder {
	srcs := make([]Source, len(topics))
	for i, tp := range topics {
		srcs[i] = NewSubscribeSource(ctx, b, tp)
	}
	if len(srcs) == 1 {
		return From(srcs[0])
	}
	return From(NewMergeSource(srcs...))
}

// PublishInto terminates the pipeline in a PublishSink and runs it:
// the stream is partitioned by the coarsest-level source prefix across
// topics and published onto b, ending each topic with EOS. The
// collector half of a distributed split; the aggregator half is
// FromBus.
func (b *Builder) PublishInto(ctx context.Context, bb *bus.Bus, level netaddr6.AggLevel, topics ...string) error {
	return b.RunInto(ctx, NewPublishSink(ctx, bb, level, topics...))
}
