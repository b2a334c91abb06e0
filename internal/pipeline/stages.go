package pipeline

import (
	"time"

	"v6scan/internal/firewall"
)

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

// teeStage duplicates the stream into every sink (Builder.Tee: the
// side branches, then the continuing main chain). ConsumeBatch fans
// out in order and stops at the first error; Flush always reaches
// every sink — so each releases its resources — and returns the first
// error encountered.
type teeStage struct {
	sinks   []RecordSink
	scratch []firewall.Record
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
// Sorting is run-aware (runBuf): maximal sorted runs are detected
// while buffering, so an already-ordered day — the common case for
// LogSource and PcapSource input — drains with zero sort work, and a
// mostly-ordered day pays only bounded-window merges of its few
// disordered runs instead of a whole-day sort.
type DaySort struct {
	next RecordSink
	day  time.Time
	buf  runBuf
}

// NewDaySort returns a day-sorting stage.
func NewDaySort(next RecordSink) *DaySort { return &DaySort{next: next} }

// ConsumeBatch implements RecordSink: records are buffered, and each
// completed day drains downstream at the first record of the next
// day, whatever batch that record arrives in.
func (d *DaySort) ConsumeBatch(recs []firewall.Record) error {
	start := 0
	for i := range recs {
		day := recs[i].Time.UTC().Truncate(24 * time.Hour)
		if !d.day.IsZero() && day.After(d.day) {
			d.buf.push(recs[start:i])
			start = i
			if err := d.emit(); err != nil {
				return err
			}
		}
		d.day = day
	}
	d.buf.push(recs[start:])
	return nil
}

// Flush drains the buffered day downstream, then flushes downstream
// even if the drain failed, and returns the first error.
func (d *DaySort) Flush() error {
	err := d.emit()
	if ferr := d.next.Flush(); err == nil {
		err = ferr
	}
	return err
}

func (d *DaySort) emit() error {
	if len(d.buf.recs) == 0 {
		return nil
	}
	d.buf.sort()
	err := d.next.ConsumeBatch(d.buf.recs)
	d.buf.recs = d.buf.recs[:0]
	return err
}

// ArtifactStage runs the 5-duplicate artifact pre-filter as a pipeline
// stage. The caller keeps the filter to read its Stats after the run.
// Each completed day's survivors flow downstream in batches of at most
// DefaultBatchSize under the ordinary batch rule; they are slices of
// the filter's day buffer, which it refills once the next day
// completes.
type ArtifactStage struct {
	f    *firewall.ArtifactFilter
	next RecordSink
}

// NewArtifactStage wraps an artifact filter around next.
func NewArtifactStage(f *firewall.ArtifactFilter, next RecordSink) *ArtifactStage {
	return &ArtifactStage{f: f, next: next}
}

// ConsumeBatch implements RecordSink. The filter buffers per day
// internally and forwards each day as it completes.
func (a *ArtifactStage) ConsumeBatch(recs []firewall.Record) error {
	for i := range recs {
		if err := a.forward(a.f.Push(recs[i])); err != nil {
			return err
		}
	}
	return nil
}

// Flush finalizes the buffered day and drains it downstream, then
// flushes downstream even if the drain failed, and returns the first
// error.
func (a *ArtifactStage) Flush() error {
	err := a.forward(a.f.Close())
	if ferr := a.next.Flush(); err == nil {
		err = ferr
	}
	return err
}

// forward passes a completed day downstream in DefaultBatchSize
// chunks, each capped at its own length so that no consumer's append
// can reach into the next.
func (a *ArtifactStage) forward(day []firewall.Record) error {
	for len(day) > 0 {
		n := min(len(day), DefaultBatchSize)
		if err := a.next.ConsumeBatch(day[:n:n]); err != nil {
			return err
		}
		day = day[n:]
	}
	return nil
}
