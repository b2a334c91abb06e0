package pipeline

import (
	"fmt"
	"sort"
	"time"

	"v6scan/internal/firewall"
)

// ErrLateRecord reports a record that trails the stream too far to be
// placed without violating the downstream time-order contract. Callers
// can distinguish it from decode errors with errors.As and read how
// far the record trailed:
//
//	var late *pipeline.ErrLateRecord
//	if errors.As(err, &late) { ... late.RecordTime, late.Horizon ... }
type ErrLateRecord struct {
	// RecordTime is the rejected record's timestamp.
	RecordTime time.Time
	// Horizon is the earliest timestamp still admissible at the point
	// of rejection: HighWater − Window.
	Horizon time.Time
	// HighWater is the stream-time high-water mark at rejection.
	HighWater time.Time
	// Window is the configured reorder window.
	Window time.Duration
}

// Error implements error.
func (e *ErrLateRecord) Error() string {
	return fmt.Sprintf("pipeline: record at %v trails the stream high-water mark %v by %v, exceeding the %v reorder window (admissible horizon %v); increase the window to at least the source's worst-case disorder",
		e.RecordTime, e.HighWater, e.HighWater.Sub(e.RecordTime), e.Window, e.Horizon)
}

// WindowSort is the pipeline's streaming reorder buffer: it repairs
// record disorder up to a configurable window without ever buffering
// more than one window's worth of stream. It is the streaming
// replacement for whole-day buffering (DaySort) on near-sorted
// sources — pcap captures with interface-timestamp jitter, multi-writer
// logs with small interleave — where buffering a full day costs memory
// proportional to the day instead of the disorder bound. A window
// longer than the stream (cmd/v6scan's -window 0 on a pcap) makes it a
// whole-input sort: nothing is released until Flush.
//
// Semantics: a record is held until the stream maximum has advanced at
// least `window` past its timestamp, then released downstream in
// stable timestamp order. Whenever the input's disorder is bounded by
// the window — every record is at most `window` older than the records
// before it — the emitted sequence is exactly sort.SliceStable over
// the input (TestWindowSortMatchesFullSort). Peak buffering is the
// number of records whose timestamps span one window.
//
// A record arriving more than the window late — trailing the stream's
// high-water mark by more than the window — may be impossible to
// place without violating the downstream time-order contract
// (everything up to high-water − window may already have been
// released), so it is rejected with *ErrLateRecord naming the skew.
// The check is against the high-water mark, not against what happens
// to have been released so far, so acceptance is a pure function of
// the record sequence: feeding fails (or succeeds) identically at any
// batch size. Callers pick the window from their source's worst-case
// disorder (cmd/v6scan's -window flag).
//
// The buffer is DaySort's runBuf: arrival order is tracked as maximal
// sorted runs, an in-order stream (the common case) stays a single run
// and costs no sort work, and a release merges only the runs that
// actually interleave.
type WindowSort struct {
	next   RecordSink
	window time.Duration

	buf runBuf

	// maxSeen is the stream-time high-water mark; minBuf the smallest
	// buffered timestamp (valid while buf is non-empty).
	maxSeen time.Time
	minBuf  time.Time
}

// NewWindowSort returns a reorder stage releasing records once the
// stream has advanced window past them. A non-positive window degrades
// to a pass-through that still enforces non-decreasing output order.
func NewWindowSort(window time.Duration, next RecordSink) *WindowSort {
	if window < 0 {
		window = 0
	}
	return &WindowSort{next: next, window: window}
}

// ConsumeBatch implements RecordSink. The whole batch is admitted
// before one release pass, so a batch pays one merge regardless of
// size; the emitted record sequence and which records are rejected as
// too late are both pure functions of the high-water mark, identical
// at any batch size. Records are values, so the batch-ownership rule
// is moot here: the batch is copied into the buffer in one append.
func (w *WindowSort) ConsumeBatch(recs []firewall.Record) error {
	empty := len(w.buf.recs) == 0
	for i := range recs {
		t := recs[i].Time
		// Lateness is judged against the high-water mark before this
		// record (a record can never be late relative to itself).
		// Anything trailing by ≤ window is by construction newer than
		// everything released (releases stop at maxSeen − window), so
		// accepted records always still fit the output order.
		if !w.maxSeen.IsZero() && t.Before(w.maxSeen.Add(-w.window)) {
			w.buf.push(recs[:i])
			return &ErrLateRecord{RecordTime: t, Horizon: w.maxSeen.Add(-w.window), HighWater: w.maxSeen, Window: w.window}
		}
		if (empty && i == 0) || t.Before(w.minBuf) {
			w.minBuf = t
		}
		if t.After(w.maxSeen) {
			w.maxSeen = t
		}
	}
	w.buf.push(recs)
	return w.release()
}

// release emits every buffered record the high-water mark has advanced
// window past, in stable timestamp order.
func (w *WindowSort) release() error {
	if len(w.buf.recs) == 0 {
		return nil
	}
	horizon := w.maxSeen.Add(-w.window)
	if w.minBuf.After(horizon) {
		return nil // even the oldest buffered record is still in flight
	}
	w.buf.sort()
	recs := w.buf.recs
	idx := sort.Search(len(recs), func(i int) bool { return recs[i].Time.After(horizon) })
	if idx == 0 {
		return nil
	}
	err := w.emit(recs[:idx])
	// The retained tail is untouched by downstream compaction (which
	// only writes within the emitted prefix). Reslice past the
	// released prefix rather than sliding the tail down: the next
	// growing append reallocates from the live tail alone, so memory
	// stays O(window) while a release costs O(released) — a memmove
	// here would make small batches (one record, at the limit) cost
	// O(window) per record. runs is empty after sort, so no stored
	// index refers to the dropped prefix.
	w.buf.recs = recs[idx:]
	if len(w.buf.recs) > 0 {
		w.minBuf = w.buf.recs[0].Time
	}
	return err
}

// emit hands sorted records downstream in batches of at most
// DefaultBatchSize, so a release as large as the whole input (a window
// longer than the stream) never reaches the sink as one batch.
func (w *WindowSort) emit(recs []firewall.Record) error {
	for len(recs) > 0 {
		n := min(len(recs), DefaultBatchSize)
		if err := w.next.ConsumeBatch(recs[:n]); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// Flush drains every still-buffered record downstream in order, then
// flushes downstream even if the drain failed, and returns the first
// error. The merge scratch is dropped before the drain and the buffer
// after it, so neither outlives the stream.
func (w *WindowSort) Flush() error {
	w.buf.sort()
	w.buf.bounds, w.buf.scratch = nil, nil
	err := w.emit(w.buf.recs)
	w.buf = runBuf{}
	if ferr := w.next.Flush(); err == nil {
		err = ferr
	}
	return err
}
