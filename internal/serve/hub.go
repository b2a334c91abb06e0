package serve

// Alert fan-out: a bounded ring of published alerts (the pagination
// backlog behind /api/alerts) that live SSE subscribers read with
// their own cursors. Publishing only appends and wakes them, so slow
// clients never block the pipeline; a client that falls further behind
// than the ring holds loses the alerts the ring evicted, counted,
// which is the whole backpressure policy (see the pipeline package
// doc, "Serving").

import (
	"encoding/json"
	"sync"
	"time"

	"v6scan/internal/ids"
)

// SeqAlert is one published alert with its daemon-lifetime sequence
// number. Sequence numbers start at 0 and never repeat, so a client
// that reconnects with ?from=<last seen+1> resumes without loss as
// long as the backlog still covers that point.
type SeqAlert struct {
	Seq   uint64
	Alert ids.Alert
}

// MarshalJSON renders the API wire shape: flat snake_case fields with
// the prefix and level as strings, stable across internal refactors
// of ids.Alert.
func (sa SeqAlert) MarshalJSON() ([]byte, error) {
	a := sa.Alert
	return json.Marshal(struct {
		Seq           uint64    `json:"seq"`
		Prefix        string    `json:"prefix"`
		Level         string    `json:"level"`
		EstimatedDsts uint64    `json:"estimated_dsts"`
		Packets       uint64    `json:"packets"`
		First         time.Time `json:"first"`
		Last          time.Time `json:"last"`
		Escalated     bool      `json:"escalated,omitempty"`
	}{sa.Seq, a.Prefix.String(), a.Level.String(), a.EstimatedDsts,
		a.Packets, a.First, a.Last, a.Escalated})
}

// subscriber is one live SSE client. publish signals wake (capacity
// one, so signals coalesce) and the client reads the ring from its
// cursor (hub.read).
type subscriber struct {
	wake chan struct{}
}

// hub owns the alert ring and the subscriber set. All fields but done
// are guarded by mu; publish runs on the pipeline's dispatching
// goroutine, subscribe/unsubscribe and the read accessors run on HTTP
// handler goroutines.
type hub struct {
	// done closes once nothing more will be published (close), which
	// ends every SSE stream.
	done     chan struct{}
	mu       sync.Mutex
	ring     []SeqAlert // ring[i].Seq == firstSeq+i, len ≤ capHint
	firstSeq uint64
	nextSeq  uint64 // == total alerts ever published
	subs     map[*subscriber]struct{}
	dropped  uint64 // total alerts the ring evicted before a client read them
	capHint  int    // ring bound
}

func newHub(backlog int) *hub {
	if backlog <= 0 {
		backlog = 4096
	}
	return &hub{done: make(chan struct{}), subs: make(map[*subscriber]struct{}), capHint: backlog}
}

// close tells the SSE handlers that publishing is over; call it once,
// after the last publish.
func (h *hub) close() { close(h.done) }

// publish assigns sequence numbers to a batch of alerts, appends them
// to the ring (evicting the oldest past the bound), and wakes every
// subscriber without blocking.
func (h *hub) publish(alerts []ids.Alert) {
	if len(alerts) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, a := range alerts {
		h.ring = append(h.ring, SeqAlert{Seq: h.nextSeq, Alert: a})
		h.nextSeq++
	}
	if over := len(h.ring) - h.capHint; over > 0 {
		h.ring = append(h.ring[:0], h.ring[over:]...)
		h.firstSeq += uint64(over)
	}
	for s := range h.subs {
		select {
		case s.wake <- struct{}{}:
		default: // already woken
		}
	}
}

// subscribe registers a new client and returns its cursor: from, or
// the oldest sequence the ring holds when that is later, or the next
// sequence when from is in the future.
func (h *hub) subscribe(from uint64) (*subscriber, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &subscriber{wake: make(chan struct{}, 1)}
	h.subs[s] = struct{}{}
	return s, min(max(from, h.firstSeq), h.nextSeq)
}

// read appends to dst the ring entries from a subscriber's cursor next
// on, and returns them with the cursor past them. Entries published
// after the client subscribed that the ring evicted before this read
// are counted as dropped.
func (h *hub) read(next uint64, dst []SeqAlert) ([]SeqAlert, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if next < h.firstSeq {
		h.dropped += h.firstSeq - next
		next = h.firstSeq
	}
	return append(dst, h.ring[next-h.firstSeq:]...), h.nextSeq
}

// unsubscribe removes a client; its channel is left to the garbage
// collector (publish never closes subscriber channels).
func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, s)
}

// page returns up to limit ring entries starting at sequence offset,
// plus the total published and the oldest retained sequence — the
// /api/alerts pagination contract.
func (h *hub) page(offset uint64, limit int) (alerts []SeqAlert, total, first uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if offset < h.firstSeq {
		offset = h.firstSeq
	}
	if offset < h.nextSeq {
		i := int(offset - h.firstSeq)
		end := len(h.ring)
		if limit > 0 && i+limit < end {
			end = i + limit
		}
		alerts = append(alerts, h.ring[i:end]...)
	}
	return alerts, h.nextSeq, h.firstSeq
}

// stats reports the subscriber count and the cumulative slow-client
// drop total (read); safe from any goroutine (used by the metrics
// gauges).
func (h *hub) stats() (clients int, dropped uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs), h.dropped
}
