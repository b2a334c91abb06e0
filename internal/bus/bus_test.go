package bus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func pull(t *testing.T, s *Subscription) Msg {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m, err := s.Pull(ctx)
	if err != nil {
		t.Fatalf("Pull: %v", err)
	}
	return m
}

func TestPublishOrder(t *testing.T) {
	b := New()
	sub, err := b.Subscribe(0, "t")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := b.Publish(ctx, "t", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m := pull(t, sub)
		if m.Topic != "t" || m.Data[0] != byte(i) {
			t.Fatalf("msg %d: got %+v", i, m)
		}
	}
}

func TestPayloadCopied(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe(0, "t")
	data := []byte("abc")
	if err := b.Publish(context.Background(), "t", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // publisher reuses its buffer
	if m := pull(t, sub); string(m.Data) != "abc" {
		t.Fatalf("delivered payload aliases publisher buffer: %q", m.Data)
	}
}

func TestFanout(t *testing.T) {
	b := New()
	var subs []*Subscription
	for i := 0; i < 3; i++ {
		s, err := b.Subscribe(0, "t")
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if err := b.Publish(context.Background(), "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		if m := pull(t, s); string(m.Data) != "x" {
			t.Fatalf("subscriber %d: got %+v", i, m)
		}
	}
}

func TestMultiTopicSubscription(t *testing.T) {
	b := New()
	sub, err := b.Subscribe(0, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b.Publish(ctx, "a", []byte("1"))
	b.Publish(ctx, "b", []byte("2"))
	seen := map[string]string{}
	for i := 0; i < 2; i++ {
		m := pull(t, sub)
		seen[m.Topic] = string(m.Data)
	}
	if seen["a"] != "1" || seen["b"] != "2" {
		t.Fatalf("got %v", seen)
	}
}

func TestNoSubscriberDrops(t *testing.T) {
	b := New()
	if err := b.Publish(context.Background(), "nobody", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A later subscriber does not receive the dropped message.
	sub, _ := b.Subscribe(0, "nobody")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if m, err := sub.Pull(cancelled); err != context.Canceled {
		t.Fatalf("late subscriber pulled %+v, %v; want nothing buffered", m, err)
	}
}

func TestBackpressureBlocksUntilPull(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe(1, "t")
	ctx := context.Background()
	if err := b.Publish(ctx, "t", []byte("0")); err != nil {
		t.Fatal(err)
	}
	unblocked := make(chan error, 1)
	go func() { unblocked <- b.Publish(ctx, "t", []byte("1")) }()
	select {
	case err := <-unblocked:
		t.Fatalf("publish to a full buffer returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if m := pull(t, sub); string(m.Data) != "0" {
		t.Fatalf("got %+v", m)
	}
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish stayed blocked after the pull freed a slot")
	}
	if m := pull(t, sub); string(m.Data) != "1" {
		t.Fatalf("got %+v", m)
	}
}

func TestBackpressureUnblocksOnSubscriberClose(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe(1, "t")
	ctx := context.Background()
	b.Publish(ctx, "t", []byte("0"))
	unblocked := make(chan error, 1)
	go func() { unblocked <- b.Publish(ctx, "t", []byte("1")) }()
	time.Sleep(20 * time.Millisecond)
	sub.Close()
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish stayed blocked after subscriber close")
	}
}

func TestPublishCancelled(t *testing.T) {
	b := New()
	b.Subscribe(1, "t")
	ctx := context.Background()
	b.Publish(ctx, "t", []byte("0")) // fill the buffer
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := b.Publish(cctx, "t", []byte("1")); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestPullCancelled(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe(0, "t")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sub.Pull(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSubscriptionCloseDrainsBufferedFirst(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe(2, "t")
	ctx := context.Background()
	b.Publish(ctx, "t", []byte("0"))
	b.Publish(ctx, "t", []byte("1"))
	sub.Close()
	for i := 0; i < 2; i++ {
		m, err := sub.Pull(ctx)
		if err != nil {
			t.Fatalf("msg %d after close: %v", i, err)
		}
		if m.Data[0] != byte('0'+i) {
			t.Fatalf("msg %d: got %+v", i, m)
		}
	}
	if _, err := sub.Pull(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestClosedSubscriberNotDelivered(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe(0, "t")
	keep, _ := b.Subscribe(0, "t")
	sub.Close()
	if err := b.Publish(context.Background(), "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if m := pull(t, keep); string(m.Data) != "x" {
		t.Fatalf("got %+v", m)
	}
	// Pull drains a closed subscription's buffer before ErrClosed.
	if m, err := sub.Pull(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed subscriber pulled %+v, %v; want ErrClosed", m, err)
	}
}

func TestBusClose(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe(2, "t")
	ctx := context.Background()
	b.Publish(ctx, "t", []byte("0"))
	b.Close()
	b.Close() // idempotent
	if err := b.Publish(ctx, "t", []byte("1")); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish after close: got %v, want ErrClosed", err)
	}
	if _, err := b.Subscribe(0, "t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("subscribe after close: got %v, want ErrClosed", err)
	}
	// Buffered messages survive the close.
	if m, err := sub.Pull(ctx); err != nil || string(m.Data) != "0" {
		t.Fatalf("drain after close: %v %+v", err, m)
	}
	if _, err := sub.Pull(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestSubscribeNeedsTopics(t *testing.T) {
	if _, err := New().Subscribe(0); err == nil {
		t.Fatal("subscribe with no topics succeeded")
	}
}

func TestConcurrentPublishersSubscribers(t *testing.T) {
	const (
		topics     = 4
		perTopic   = 200
		publishers = 4
	)
	b := New()
	ctx := context.Background()
	var subs []*Subscription
	for i := 0; i < topics; i++ {
		s, err := b.Subscribe(8, fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			topic := fmt.Sprintf("t%d", p%topics)
			for i := 0; i < perTopic; i++ {
				if err := b.Publish(ctx, topic, []byte{byte(i)}); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(p)
	}
	var got [topics]int
	var rg sync.WaitGroup
	for i, s := range subs {
		rg.Add(1)
		go func(i int, s *Subscription) {
			defer rg.Done()
			// One publisher per topic, so its payloads arrive in order.
			for n := 0; n < perTopic; n++ {
				if m := pull(t, s); m.Data[0] != byte(n) {
					t.Errorf("topic %d: message %d carries %d", i, n, m.Data[0])
				}
				got[i]++
			}
		}(i, s)
	}
	wg.Wait()
	rg.Wait()
	for i, n := range got {
		if n != perTopic {
			t.Errorf("topic %d: got %d messages, want %d", i, n, perTopic)
		}
	}
}
