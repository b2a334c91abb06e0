package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"v6scan/internal/bus"
	"v6scan/internal/dispatch"
	"v6scan/internal/events"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/netaddr6"
)

// The tests here close the tentpole acceptance loop: a record stream
// split across N publishers — each partitioning its chunk over
// per-publisher topics by coarsest-level source prefix — merged back
// by one FromBus subscriber must reduce to output byte-identical to
// the in-process run, at every shard count. The publishers run
// concurrently with the subscriber, as the real collectors→aggregator
// topology would.

const (
	busParityPublishers = 3
	busParityTopics     = 4 // partitions per publisher
)

func TestBusDetectParity(t *testing.T) {
	recs := streamParityRecords(30_000, 0)
	cfg := streamParityConfig()
	level := dispatch.CoarsestLevel(cfg.Levels)
	ctx := context.Background()

	for _, shards := range []int{1, 2, 8} {
		ref, err := From(SliceSource(recs)).Detect(ctx, cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		want := renderDetector(ref, cfg.Levels)
		if strings.TrimSpace(want[cfg.Levels[0]]) == "" {
			t.Fatal("reference detected no scans")
		}

		b := bus.New()
		// Subscribe (inside FromBusContext) before the publishers start,
		// so no envelope is dropped.
		topics, startPubs := publishSplitSetup(t, recs)
		agg := FromBusContext(ctx, b, topics...)
		wait := startPubs(ctx, b, level)
		det, err := agg.Detect(ctx, cfg, shards)
		wait()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := renderDetector(det, cfg.Levels)
		for _, lvl := range cfg.Levels {
			if got[lvl] != want[lvl] {
				t.Errorf("shards=%d level %v: distributed output differs from in-process", shards, lvl)
			}
		}
	}
}

func TestBusIDSParity(t *testing.T) {
	recs := streamParityRecords(30_000, 0)
	cfg := ids.Config{
		MinDsts: 20,
		Timeout: time.Hour,
		Levels:  []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48, netaddr6.Agg32},
	}
	level := dispatch.CoarsestLevel(cfg.Levels)
	ctx := context.Background()

	refAlerts, err := runIDS(ctx, From(SliceSource(recs)), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalIDSAlerts(refAlerts)
	if want == "" {
		t.Fatal("reference produced no alerts")
	}

	for _, shards := range []int{1, 2, 8} {
		b := bus.New()
		topics, startPubs := publishSplitSetup(t, recs)
		agg := FromBusContext(ctx, b, topics...)
		wait := startPubs(ctx, b, level)
		alerts, err := runIDS(ctx, agg, cfg, shards)
		wait()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := canonicalIDSAlerts(alerts); got != want {
			t.Errorf("shards=%d: distributed alerts differ from in-process\n got:\n%s\nwant:\n%s",
				shards, got, want)
		}
	}
}

// publishSplitSetup returns the publisher-major topic list up front —
// so the subscriber can attach first — and a start function that
// launches the publisher goroutines and returns their wait func.
func publishSplitSetup(t *testing.T, recs []firewall.Record) ([]string, func(ctx context.Context, b *bus.Bus, level netaddr6.AggLevel) func()) {
	t.Helper()
	perPub := make([][]string, busParityPublishers)
	var topics []string
	for i := range perPub {
		perPub[i] = events.RecordTopics(fmt.Sprintf("pub%d", i), busParityTopics)
		topics = append(topics, perPub[i]...)
	}
	start := func(ctx context.Context, b *bus.Bus, level netaddr6.AggLevel) func() {
		var wg sync.WaitGroup
		for i := 0; i < busParityPublishers; i++ {
			lo := len(recs) * i / busParityPublishers
			hi := len(recs) * (i + 1) / busParityPublishers
			wg.Add(1)
			go func(i, lo, hi int) {
				defer wg.Done()
				err := From(SliceSource(recs[lo:hi])).
					PublishInto(ctx, b, level, perPub[i]...)
				if err != nil {
					t.Errorf("publisher %d: %v", i, err)
				}
			}(i, lo, hi)
		}
		return wg.Wait
	}
	return topics, start
}

func TestSubscribeSeqGap(t *testing.T) {
	ctx := context.Background()
	b := bus.New()
	src := NewSubscribeSource(ctx, b, "t")

	// First envelope skips ahead: publisher claims seq 2, subscriber
	// expects 0.
	env := events.Envelope{Kind: events.KindRecords, Topic: "t", Seq: 2, Records: streamParityRecords(3, 0)}
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
	recs := streamParityRecords(10, 0)
	if err := sink.ConsumeBatch(recs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// Every topic sees its records (if any) and then exactly one EOS.
	eos := map[string]int{}
	total := 0
	for i := uint64(0); i < b.Stats().Published; i++ {
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
	recs := streamParityRecords(2_000, 0)
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
