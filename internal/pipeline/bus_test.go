package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"v6scan/internal/bus"
	"v6scan/internal/dispatch"
	"v6scan/internal/events"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

func TestSubscribeSeqGap(t *testing.T) {
	ctx := context.Background()
	b := bus.New()
	src := NewSubscribeSource(ctx, b, "t")

	// First envelope skips ahead: publisher claims seq 2, subscriber
	// expects 0.
	env := events.Envelope{Kind: events.KindRecords, Topic: "t", Seq: 2, Records: streamParityRecords(3)}
	data, err := env.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(ctx, "t", data); err != nil {
		t.Fatal(err)
	}
	err = src.EmitBatch(0, func([]firewall.Record) error { return nil })
	if !errors.Is(err, ErrEnvelopeGap) {
		t.Fatalf("got %v, want ErrEnvelopeGap", err)
	}
}

func TestSubscribeRejectsMisaddressedEnvelope(t *testing.T) {
	ctx := context.Background()
	b := bus.New()
	src := NewSubscribeSource(ctx, b, "t")
	env := events.Envelope{Kind: events.KindEOS, Topic: "other", Seq: 0}
	data, err := env.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(ctx, "t", data); err != nil {
		t.Fatal(err)
	}
	err = src.EmitBatch(0, func([]firewall.Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "addressed to") {
		t.Fatalf("got %v, want misaddressed-envelope error", err)
	}
}

func TestSubscribeBusClosedBeforeEOS(t *testing.T) {
	ctx := context.Background()
	b := bus.New()
	src := NewSubscribeSource(ctx, b, "t")
	b.Close()
	err := src.EmitBatch(0, func([]firewall.Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "before end of stream") {
		t.Fatalf("got %v, want bus-closed error", err)
	}
}

func TestPublishSinkFlushIdempotent(t *testing.T) {
	ctx := context.Background()
	b := bus.New()
	sub, err := b.Subscribe(16, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	sink := NewPublishSink(ctx, b, netaddr6.Agg48, "a", "b")
	recs := streamParityRecords(10)
	if err := sink.ConsumeBatch(recs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if sink.stage != nil {
		t.Fatal("Flush kept the staging buffers")
	}

	// Every topic sees its records (if any) and then exactly one EOS,
	// and nothing follows.
	eos := map[string]int{}
	total := 0
	for eos["a"] == 0 || eos["b"] == 0 {
		msg, err := sub.Pull(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var env events.Envelope
		if err := env.Decode(msg.Data); err != nil {
			t.Fatal(err)
		}
		switch env.Kind {
		case events.KindEOS:
			eos[env.Topic]++
		case events.KindRecords:
			if eos[env.Topic] > 0 {
				t.Fatalf("topic %s: records after EOS", env.Topic)
			}
			total += len(env.Records)
		}
	}
	if eos["a"] != 1 || eos["b"] != 1 {
		t.Fatalf("EOS counts: %v, want exactly one per topic", eos)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sub.Pull(cancelled); err != context.Canceled {
		t.Fatalf("pull after both EOS: %v, want nothing buffered", err)
	}
	if total != len(recs) {
		t.Fatalf("published %d records, want %d", total, len(recs))
	}
}

func TestPublishSinkRoutesByCoarsestPrefix(t *testing.T) {
	ctx := context.Background()
	b := bus.New()
	const parts = 4
	topics := events.RecordTopics("p", parts)
	sub, err := b.Subscribe(64, topics...)
	if err != nil {
		t.Fatal(err)
	}
	recs := streamParityRecords(2_000)
	if err := From(SliceSource(recs)).PublishInto(ctx, b, netaddr6.Agg48, topics...); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		msg, err := sub.Pull(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var env events.Envelope
		if err := env.Decode(msg.Data); err != nil {
			t.Fatal(err)
		}
		if env.Kind == events.KindEOS {
			continue
		}
		// Every record in a topic's envelope must hash to that topic.
		for _, r := range env.Records {
			want := topics[dispatch.Partition(r.Src, netaddr6.Agg48, parts)]
			if env.Topic != want {
				t.Fatalf("record %v routed to %s, want %s", r.Src, env.Topic, want)
			}
		}
		got += len(env.Records)
		if got == len(recs) {
			break
		}
	}
}
