package pipeline

import (
	"time"

	"v6scan/internal/firewall"
)

// tapStage invokes a hook on every record before passing the batch
// downstream untouched — the hook analysis collectors attach with.
type tapStage struct {
	fn   func(r firewall.Record)
	next RecordSink
}

// Tap invokes fn on every record before passing it downstream.
func Tap(fn func(r firewall.Record), next RecordSink) RecordSink {
	return &tapStage{fn: fn, next: next}
}

// ConsumeBatch implements RecordSink.
func (s *tapStage) ConsumeBatch(recs []firewall.Record) error {
	for i := range recs {
		s.fn(recs[i])
	}
	return s.next.ConsumeBatch(recs)
}

// Flush implements RecordSink.
func (s *tapStage) Flush() error { return s.next.Flush() }

// filterStage passes only records satisfying pred downstream. It
// compacts each batch in place — survivors slide to the front of the
// slice and flow on as one contiguous batch (the batch contract
// permits consumers to mutate the slice within the call).
type filterStage struct {
	pred func(r firewall.Record) bool
	next RecordSink
}

// Filter passes only records satisfying pred downstream.
func Filter(pred func(r firewall.Record) bool, next RecordSink) RecordSink {
	return &filterStage{pred: pred, next: next}
}

// ConsumeBatch implements RecordSink with in-place compaction.
func (s *filterStage) ConsumeBatch(recs []firewall.Record) error {
	kept := recs[:0]
	for _, r := range recs {
		if s.pred(r) {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return s.next.ConsumeBatch(kept)
}

// Flush implements RecordSink.
func (s *filterStage) Flush() error { return s.next.Flush() }

// Policy applies a firewall collection policy (the CDN's no-TCP/80,
// no-TCP/443, no-ICMPv6 rule) as a filter stage.
func Policy(p firewall.CollectPolicy, next RecordSink) RecordSink {
	return Filter(p.Admit, next)
}

// teeStage duplicates the stream into every sink.
type teeStage struct {
	sinks   []RecordSink
	scratch []firewall.Record
}

// Tee duplicates the stream into every sink. ConsumeBatch fans out in
// argument order and stops at the first error; Flush always reaches
// every sink — so each releases its resources — and returns the first
// error encountered. (The builder's Tee is the pass-through variant:
// side branches plus the continuing main chain.)
func Tee(sinks ...RecordSink) RecordSink {
	return &teeStage{sinks: sinks}
}

// ConsumeBatch implements RecordSink, fanning each run out in argument
// order. Downstream consumers may compact the slice in place, so every
// branch but the last receives a fresh copy from a reused scratch
// buffer; the last branch gets the original.
func (s *teeStage) ConsumeBatch(recs []firewall.Record) error {
	for i, sk := range s.sinks {
		run := recs
		if i < len(s.sinks)-1 {
			s.scratch = append(s.scratch[:0], recs...)
			run = s.scratch
		}
		if err := sk.ConsumeBatch(run); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements RecordSink.
func (s *teeStage) Flush() error {
	var first error
	for _, sk := range s.sinks {
		if err := sk.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Counter counts records passing through, for the pipeline statistics
// every consumer reports (records generated / logged / detected).
type Counter struct {
	n    uint64
	next RecordSink
}

// NewCounter returns a counting pass-through stage.
func NewCounter(next RecordSink) *Counter { return &Counter{next: next} }

// ConsumeBatch implements RecordSink.
func (c *Counter) ConsumeBatch(recs []firewall.Record) error {
	c.n += uint64(len(recs))
	return c.next.ConsumeBatch(recs)
}

// Flush implements RecordSink.
func (c *Counter) Flush() error { return c.next.Flush() }

// Count returns the number of records seen so far.
func (c *Counter) Count() uint64 { return c.n }

// DaySort buffers records per UTC day and forwards each completed day
// stably sorted by timestamp — the ordering contract the detectors and
// the artifact filter require from per-actor-ordered simulator output.
// Input days must arrive in order (records of day N all precede day
// N+1); within a day any order is accepted.
//
// Sorting is run-aware (see SortByTime): maximal sorted runs are
// detected while buffering, so an already-ordered day — the common
// case for LogSource and PcapSource input — drains with zero sort
// work, and a mostly-ordered day pays only bounded-window merges of
// its few disordered runs instead of a whole-day sort.
type DaySort struct {
	next RecordSink
	day  time.Time
	buf  []firewall.Record
	// runs holds the start index of every non-first sorted run in buf
	// (empty while the day is in order); bounds and scratch are reused
	// merge workspace.
	runs    []int
	bounds  []int
	scratch []firewall.Record
}

// NewDaySort returns a day-sorting stage.
func NewDaySort(next RecordSink) *DaySort { return &DaySort{next: next} }

// ConsumeBatch implements RecordSink: records are buffered, and each
// completed day drains downstream at the first record of the next
// day, whatever batch that record arrives in.
func (d *DaySort) ConsumeBatch(recs []firewall.Record) error {
	for i := range recs {
		day := recs[i].Time.UTC().Truncate(24 * time.Hour)
		if !d.day.IsZero() && day.After(d.day) {
			if err := d.emit(); err != nil {
				return err
			}
		}
		d.day = day
		d.buffer(recs[i])
	}
	return nil
}

// buffer appends one record to the day buffer, recording a new run
// start when it breaks the current non-decreasing run.
func (d *DaySort) buffer(r firewall.Record) {
	if n := len(d.buf); n > 0 && r.Time.Before(d.buf[n-1].Time) {
		d.runs = append(d.runs, n)
	}
	d.buf = append(d.buf, r)
}

// Flush drains the buffered day downstream.
func (d *DaySort) Flush() error {
	if err := d.emit(); err != nil {
		return err
	}
	return d.next.Flush()
}

func (d *DaySort) emit() error {
	if len(d.buf) == 0 {
		return nil
	}
	if len(d.runs) > 0 {
		d.bounds = append(append(d.bounds[:0], 0), d.runs...)
		d.bounds = append(d.bounds, len(d.buf))
		mergeBounds(d.buf, d.bounds, &d.scratch)
		d.runs = d.runs[:0]
	}
	err := d.next.ConsumeBatch(d.buf)
	d.buf = d.buf[:0]
	return err
}

// ArtifactStage runs the 5-duplicate artifact pre-filter as a pipeline
// stage. The caller keeps the filter to read its Stats after the run.
type ArtifactStage struct {
	f    *firewall.ArtifactFilter
	next RecordSink
}

// NewArtifactStage wraps an artifact filter around next.
func NewArtifactStage(f *firewall.ArtifactFilter, next RecordSink) *ArtifactStage {
	return &ArtifactStage{f: f, next: next}
}

// ConsumeBatch implements RecordSink. The filter buffers per day
// internally; each completed day's survivors flow downstream as one
// batch. That batch is the filter's day buffer, handed over for good,
// so downstream may keep it past the call.
func (a *ArtifactStage) ConsumeBatch(recs []firewall.Record) error {
	for i := range recs {
		if out := a.f.Push(recs[i]); len(out) > 0 {
			if err := a.next.ConsumeBatch(out); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush finalizes the buffered day and drains downstream.
func (a *ArtifactStage) Flush() error {
	if out := a.f.Close(); len(out) > 0 {
		if err := a.next.ConsumeBatch(out); err != nil {
			return err
		}
	}
	return a.next.Flush()
}
