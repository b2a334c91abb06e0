package pipeline

import (
	"bufio"
	"fmt"
	"io"
	"os"
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
	// of rejection: high-water − window in the buffered regime, the
	// last released timestamp once a spill-enabled sort has stopped
	// releasing.
	Horizon time.Time
	// HighWater is the stream-time high-water mark at rejection.
	HighWater time.Time
	// Window is the configured reorder window.
	Window time.Duration
}

// Error implements error.
func (e *ErrLateRecord) Error() string {
	return fmt.Sprintf("pipeline: record at %v trails the stream high-water mark %v by %v, exceeding the %v reorder window (admissible horizon %v); increase the window to at least the source's worst-case disorder, or enable spill-to-disk",
		e.RecordTime, e.HighWater, e.HighWater.Sub(e.RecordTime), e.Window, e.Horizon)
}

// WindowSort is a bounded-lateness streaming reorder buffer: it
// repairs record disorder up to a configurable maximum skew window
// without ever buffering more than one window's worth of stream. It is
// the streaming replacement for whole-day buffering (DaySort) on
// near-sorted sources — pcap captures with interface-timestamp jitter,
// multi-writer logs with small interleave — where buffering a full day
// costs memory proportional to the day instead of the disorder bound.
//
// Semantics: a record is held until the stream maximum has advanced at
// least `window` past its timestamp, then released downstream in
// stable timestamp order. Whenever the input's disorder is bounded by
// the window — every record is at most `window` older than the records
// before it — the emitted sequence is exactly sort.SliceStable over
// the input (TestWindowSortMatchesFullSort). Peak buffering is the
// number of records whose timestamps span one window; nothing is
// spilled.
//
// A record arriving more than the window late — trailing the stream's
// high-water mark by more than the window — may be impossible to
// place without violating the downstream time-order contract
// (everything up to high-water − window may already have been
// released), so it is rejected with *ErrLateRecord naming the skew.
// The check is against the high-water mark, not against what happens
// to have been released so far, so acceptance is a pure function of
// the record sequence: feeding fails (or succeeds) identically at any
// batch size. Callers pick the window from their source's
// worst-case disorder (cmd/v6scan's -window flag) — or arm
// EnableSpill, which diverts beyond-window disorder through sorted
// on-disk run files merged at Flush instead of failing fast.
//
// Internally the buffer reuses the run-merge machinery of SortByTime:
// arrival order is tracked as maximal sorted runs, an in-order stream
// (the common case) stays a single run and costs no sort work, and a
// release merges only the runs that actually interleave.
type WindowSort struct {
	next   RecordSink
	window time.Duration

	buf []firewall.Record
	// runs holds the start index of every non-first sorted run in buf
	// (empty while the buffer is in arrival=timestamp order); bounds
	// and scratch are reused merge workspace, as in DaySort.
	runs    []int
	bounds  []int
	scratch []firewall.Record

	// maxSeen is the stream-time high-water mark; minBuf the smallest
	// buffered timestamp (valid while buf is non-empty); lastOut the
	// timestamp of the last record released downstream.
	maxSeen time.Time
	minBuf  time.Time
	lastOut time.Time

	// Spill-to-disk state (EnableSpill): beyond-window disorder stops
	// streaming releases and diverts the tail of the stream through
	// sorted on-disk run files merged at Flush, instead of failing
	// fast.
	spillEnabled bool
	spillDir     string
	spillMax     int
	spilling     bool
	spillRuns    []*os.File // sorted spill runs, in creation order
}

// defaultSpillRunRecords is the in-memory buffer bound while spilling:
// one sorted run file is written per this many buffered records
// (~7 MiB of records; ~6 MiB on the wire).
const defaultSpillRunRecords = 1 << 17

// EnableSpill arms the spill-to-disk path: when the stream's disorder
// exceeds the window, the sort stops streaming releases, buffers up to
// maxRun records (default defaultSpillRunRecords), writes each full
// buffer as a sorted run file under dir (default os.TempDir()), and
// k-way merges the run files with the in-memory remainder at Flush —
// the emitted sequence equals sort.SliceStable over the whole input.
// The price is that nothing more is emitted until Flush; the win is
// that multi-day disorder no longer aborts the run or demands
// stream-sized memory.
//
// A record older than the last record already released downstream is
// still rejected with *ErrLateRecord — it cannot be placed behind
// emitted output by any amount of buffering.
func (w *WindowSort) EnableSpill(dir string, maxRun int) {
	if maxRun <= 0 {
		maxRun = defaultSpillRunRecords
	}
	w.spillEnabled = true
	w.spillDir = dir
	w.spillMax = maxRun
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
// size; the emitted record sequence — and, in the fail-fast regime,
// which records are rejected as too late — is identical at any batch
// size (both are pure functions of the high-water mark). In the spill
// regime rejection instead compares against output already released
// downstream, and releases happen once per batch: a record that
// another batch size would already have released past may still be
// placeable when it arrives mid-batch, so which late records are
// accepted depends on where batches end.
func (w *WindowSort) ConsumeBatch(recs []firewall.Record) error {
	for i := range recs {
		if err := w.admit(recs[i]); err != nil {
			return err
		}
	}
	if w.spilling {
		return w.maybeSpill()
	}
	return w.release()
}

// admit buffers one record (records are values, so the batch-ownership
// rule is moot here — nothing aliases the caller's slice).
func (w *WindowSort) admit(r firewall.Record) error {
	// Lateness is judged against the high-water mark before this
	// record (a record can never be late relative to itself). Anything
	// trailing by ≤ window is by construction newer than everything
	// released (releases stop at maxSeen − window), so accepted records
	// always still fit the output order.
	if !w.maxSeen.IsZero() && r.Time.Before(w.maxSeen.Add(-w.window)) {
		if !w.spillEnabled {
			return &ErrLateRecord{RecordTime: r.Time, Horizon: w.maxSeen.Add(-w.window), HighWater: w.maxSeen, Window: w.window}
		}
		// Spill regime: the record is placeable as long as it is not
		// older than what has already been emitted (lastOut ≤
		// maxSeen − window always, so this branch subsumes the one
		// above once spilling).
		if r.Time.Before(w.lastOut) {
			return &ErrLateRecord{RecordTime: r.Time, Horizon: w.lastOut, HighWater: w.maxSeen, Window: w.window}
		}
		w.spilling = true
	}
	if n := len(w.buf); n > 0 && r.Time.Before(w.buf[n-1].Time) {
		w.runs = append(w.runs, n)
	}
	if len(w.buf) == 0 || r.Time.Before(w.minBuf) {
		w.minBuf = r.Time
	}
	w.buf = append(w.buf, r)
	if r.Time.After(w.maxSeen) {
		w.maxSeen = r.Time
	}
	return nil
}

// release emits every buffered record the high-water mark has advanced
// window past, in stable timestamp order.
func (w *WindowSort) release() error {
	if len(w.buf) == 0 {
		return nil
	}
	horizon := w.maxSeen.Add(-w.window)
	if w.minBuf.After(horizon) {
		return nil // even the oldest buffered record is still in flight
	}
	w.sortBuf()
	idx := sort.Search(len(w.buf), func(i int) bool { return w.buf[i].Time.After(horizon) })
	if idx == 0 {
		return nil
	}
	// Record the release high-water before emitting: downstream
	// compaction may overwrite the emitted prefix during the call.
	w.lastOut = w.buf[idx-1].Time
	err := w.next.ConsumeBatch(w.buf[:idx])
	// The retained tail is untouched by downstream compaction (which
	// only writes within the emitted prefix). Reslice past the
	// released prefix rather than sliding the tail down: the next
	// growing append reallocates from the live tail alone, so memory
	// stays O(window) while a release costs O(released) — a memmove
	// here would make small batches (one record, at the limit) cost
	// O(window) per record. runs is empty after sortBuf, so no stored
	// index refers to the dropped prefix.
	w.buf = w.buf[idx:]
	if len(w.buf) > 0 {
		w.minBuf = w.buf[0].Time
	}
	return err
}

// sortBuf merges the arrival runs so buf is in stable timestamp order.
func (w *WindowSort) sortBuf() {
	if len(w.runs) == 0 {
		return
	}
	w.bounds = append(append(w.bounds[:0], 0), w.runs...)
	w.bounds = append(w.bounds, len(w.buf))
	mergeBounds(w.buf, w.bounds, &w.scratch)
	w.runs = w.runs[:0]
}

// Flush drains every still-buffered record downstream in order. In the
// spill regime it k-way merges the sorted run files with the in-memory
// remainder first; the full emitted sequence (streamed prefix + merged
// tail) equals sort.SliceStable over the entire input.
func (w *WindowSort) Flush() error {
	if w.spilling {
		if err := w.mergeSpill(); err != nil {
			return err
		}
		return w.next.Flush()
	}
	if len(w.buf) > 0 {
		w.sortBuf()
		if err := w.next.ConsumeBatch(w.buf); err != nil {
			return err
		}
		w.buf = w.buf[:0]
	}
	return w.next.Flush()
}

// maybeSpill writes the in-memory buffer as one sorted run file when
// it reaches the spill bound, keeping memory O(spillMax) no matter how
// long the disordered tail runs.
func (w *WindowSort) maybeSpill() error {
	if len(w.buf) < w.spillMax {
		return nil
	}
	w.sortBuf()
	f, err := os.CreateTemp(w.spillDir, "windowsort-*.run")
	if err != nil {
		return fmt.Errorf("pipeline: creating spill run: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	fw := firewall.NewWriter(bw)
	for i := range w.buf {
		if err := fw.Write(w.buf[i]); err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
	}
	if err := fw.Flush(); err == nil {
		err = bw.Flush()
	} else {
		bw.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("pipeline: writing spill run: %w", err)
	}
	w.spillRuns = append(w.spillRuns, f)
	w.buf = w.buf[:0]
	return nil
}

// spillCursor streams one sorted run during the merge: the on-disk
// runs decode in batches through the firewall reader; the in-memory
// remainder is just a slice.
type spillCursor struct {
	rd    *firewall.Reader
	batch []firewall.Record
	i     int
	done  bool
}

func (c *spillCursor) head() *firewall.Record { return &c.batch[c.i] }

// advance refills the cursor's batch when exhausted; done is set at
// end of run.
func (c *spillCursor) advance() error {
	c.i++
	if c.i < len(c.batch) {
		return nil
	}
	if c.rd == nil {
		c.done = true
		return nil
	}
	recs, err := c.rd.NextBatch(c.batch[:0], cap(c.batch))
	c.batch, c.i = recs, 0
	if len(recs) == 0 {
		c.done = true
		if err == io.EOF {
			err = nil
		}
		return err
	}
	if err == io.EOF {
		err = nil
	}
	return err
}

// mergeSpill merges the spill run files and the in-memory remainder
// downstream in stable timestamp order: ties resolve to the
// earliest-created run (the in-memory remainder last), which is
// arrival order — exactly sort.SliceStable's tie rule.
func (w *WindowSort) mergeSpill() error {
	defer func() {
		for _, f := range w.spillRuns {
			f.Close()
			os.Remove(f.Name())
		}
		w.spillRuns = nil
	}()
	w.sortBuf()
	cursors := make([]*spillCursor, 0, len(w.spillRuns)+1)
	for _, f := range w.spillRuns {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("pipeline: rewinding spill run: %w", err)
		}
		c := &spillCursor{
			rd:    firewall.NewReader(bufio.NewReaderSize(f, 1<<16)),
			batch: make([]firewall.Record, 0, DefaultBatchSize),
			i:     -1,
		}
		if err := c.advance(); err != nil {
			return err
		}
		cursors = append(cursors, c)
	}
	if len(w.buf) > 0 {
		cursors = append(cursors, &spillCursor{batch: w.buf})
	}
	out := make([]firewall.Record, 0, DefaultBatchSize)
	for {
		// Linear min-scan over the live cursors: the run count is
		// input-size/spillMax, small enough that a heap would not pay
		// for itself before hundreds of runs.
		var min *spillCursor
		for _, c := range cursors {
			if c.done {
				continue
			}
			if min == nil || c.head().Time.Before(min.head().Time) {
				min = c
			}
		}
		if min == nil {
			break
		}
		out = append(out, *min.head())
		if err := min.advance(); err != nil {
			return err
		}
		if len(out) == cap(out) {
			if err := w.next.ConsumeBatch(out); err != nil {
				return err
			}
			out = out[:0]
		}
	}
	w.buf = w.buf[:0]
	if len(out) > 0 {
		return w.next.ConsumeBatch(out)
	}
	return nil
}
