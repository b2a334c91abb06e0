// Package bus is the in-memory message broker the distributed
// pipeline endpoints ride in tests, CI, and single-process
// collectors→aggregator splits: publishers and subscribers exchange
// opaque byte messages over named topics with bounded buffering and
// blocking backpressure, the same contract a networked broker would
// provide, but hermetic.
//
// # Model
//
// Topics are created implicitly on first use. A Subscription attaches
// to a fixed topic set at creation time and pulls messages from one
// bounded buffer; Publish copies the payload and delivers it to every
// subscription attached to the topic at that moment, blocking — per
// subscriber — while that subscriber's buffer is full. Backpressure is
// therefore end-to-end: a publisher can run ahead of a consumer by at
// most the subscription depth. Publishing to a topic nobody subscribes
// to drops the message; subscribe before publishing.
//
// # Ordering
//
// Messages published to one topic arrive at each subscriber in publish
// order (delivery happens under the publisher's call, into a FIFO
// buffer). Messages on different topics have no relative order, even
// within one subscription. The bus numbers nothing: a subscriber that
// must detect missed messages (a subscription created after publishing
// started) relies on sequence numbers inside the payload, as the
// pipeline's event envelopes carry.
package bus

import (
	"context"
	"errors"
	"sync"
)

// DefaultDepth is the per-subscription buffer depth when Subscribe is
// given a non-positive one: deep enough that moderately skewed topic
// traffic does not stall a publisher, small enough to bound memory.
const DefaultDepth = 64

// ErrClosed is returned by operations on a closed bus or subscription.
var ErrClosed = errors.New("bus: closed")

// Msg is one delivered message. Data is shared by every subscriber of
// the topic: receivers must treat it as read-only.
type Msg struct {
	Topic string
	Data  []byte
}

// Bus is an in-memory broker. The zero value is not usable; call New.
// All methods are safe for concurrent use.
type Bus struct {
	mu     sync.Mutex
	closed bool
	// topics holds each topic's current subscriptions.
	topics map[string][]*Subscription
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{topics: make(map[string][]*Subscription)}
}

// Close shuts the bus down: every subscription is closed and future
// publishes fail with ErrClosed. Messages already buffered remain
// pullable until each subscription drains or closes.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	var subs []*Subscription
	for name, ts := range b.topics {
		subs = append(subs, ts...)
		delete(b.topics, name)
	}
	b.mu.Unlock()
	for _, s := range subs {
		s.markClosed()
	}
}

// Publish delivers data on topic to every current subscriber, copying
// the payload once (subscribers share the copy read-only). It blocks,
// per subscriber, while that subscriber's buffer is full — the
// backpressure path — and unblocks when the subscriber pulls, closes,
// or ctx is cancelled. With no subscriber the message is dropped.
func (b *Bus) Publish(ctx context.Context, topicName string, data []byte) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	subs := append([]*Subscription(nil), b.topics[topicName]...)
	b.mu.Unlock()

	if len(subs) == 0 {
		return nil
	}
	msg := Msg{Topic: topicName, Data: append([]byte(nil), data...)}
	for _, s := range subs {
		select {
		case s.ch <- msg:
		case <-s.done:
			// Subscriber left between the snapshot and the send.
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Subscribe attaches a new subscription to the given topics (at least
// one) with a buffer of depth messages (DefaultDepth when depth <= 0).
// Messages published to any of the topics from this moment on are
// delivered into the subscription's buffer in per-topic publish order.
func (b *Bus) Subscribe(depth int, topics ...string) (*Subscription, error) {
	if len(topics) == 0 {
		return nil, errors.New("bus: subscribe needs at least one topic")
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	s := &Subscription{
		bus:    b,
		topics: append([]string(nil), topics...),
		ch:     make(chan Msg, depth),
		done:   make(chan struct{}),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	for _, name := range s.topics {
		b.topics[name] = append(b.topics[name], s)
	}
	return s, nil
}

// Subscription is one bounded pull endpoint over a fixed topic set.
type Subscription struct {
	bus    *Bus
	topics []string
	ch     chan Msg
	done   chan struct{}
	once   sync.Once
}

// Pull returns the next buffered message, blocking until one arrives,
// the subscription (or bus) closes — ErrClosed — or ctx is cancelled.
// After close, messages already buffered are still drained first.
func (s *Subscription) Pull(ctx context.Context) (Msg, error) {
	select {
	case m := <-s.ch:
		return m, nil
	default:
	}
	select {
	case m := <-s.ch:
		return m, nil
	case <-s.done:
		// Closed, but a publisher may have delivered before we detached:
		// drain what is buffered before reporting the close.
		select {
		case m := <-s.ch:
			return m, nil
		default:
			return Msg{}, ErrClosed
		}
	case <-ctx.Done():
		return Msg{}, ctx.Err()
	}
}

// Close detaches the subscription: publishers stop delivering to it
// (and any publisher blocked on its full buffer unblocks). Idempotent.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	for _, name := range s.topics {
		subs := s.bus.topics[name]
		for i, sub := range subs {
			if sub == s {
				s.bus.topics[name] = append(subs[:i], subs[i+1:]...)
				break
			}
		}
	}
	s.bus.mu.Unlock()
	s.markClosed()
}

func (s *Subscription) markClosed() {
	s.once.Do(func() { close(s.done) })
}
