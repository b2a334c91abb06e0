package pipeline

// TailSource: follow-mode ingestion of a growing binary firewall log —
// the daemon-facing counterpart of LogSource's finite read. See the
// package doc's "Serving" section for the ownership and rotation
// rules.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
)

// DefaultTailPoll is the growth-poll interval when TailConfig.Poll is
// zero: frequent enough that a live dashboard feels current, rare
// enough that an idle tail costs nothing measurable.
const DefaultTailPoll = 250 * time.Millisecond

// TailConfig tunes a TailSource.
type TailConfig struct {
	// Poll is the sleep between growth checks (default DefaultTailPoll).
	Poll time.Duration
	// Context ends the tail: once done, the source drains every byte
	// already durable in the file and returns cleanly (nil), so the
	// pipeline flushes normally — the graceful-shutdown path.
	Context context.Context
}

// TailStats is a point-in-time copy of a tail's progress counters.
type TailStats struct {
	// Offset is the byte position consumed so far in the current file.
	Offset int64
	// Rotations counts reopen events (the path pointed at a new file).
	Rotations int
	// Truncations counts in-place shrinks (offset reset to zero).
	Truncations int
}

// TailSource follows a growing binary firewall log. It emits every
// whole record as soon as it is visible, holds partial trailing writes
// until they complete, survives rotation (the path re-pointed at a
// fresh file: the old handle is drained, then the new file is read
// from the start) and in-place truncation (offset resets), and ends
// cleanly when its context is cancelled — after a final drain, so a
// shutdown never abandons records already durable.
//
// A TailSource is single-use and single-goroutine, like every other
// source: the pipeline's run goroutine calls EmitBatch, and
// Stats must only be called from code running inside that pipeline
// (a stage or sink) or after the run ends.
type TailSource struct {
	path string
	cfg  TailConfig

	f      *os.File
	info   os.FileInfo // identity of the open handle, for rotation checks
	offset int64
	stats  TailStats

	// buf is the reused raw-read scratch sized to the largest chunk.
	buf []byte
}

// NewTailSource follows the binary firewall log at path. The file may
// not exist yet; the tail waits for it to appear.
func NewTailSource(path string, cfg TailConfig) *TailSource {
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultTailPoll
	}
	if cfg.Context == nil {
		cfg.Context = context.Background()
	}
	return &TailSource{path: path, cfg: cfg}
}

// Stats returns the progress counters. See TailSource on when calling
// it is safe.
func (t *TailSource) Stats() TailStats { return t.stats }

// EmitBatch implements Source: an open-drain-sleep loop that ends
// only on context cancellation (clean, after a final drain) or an
// emit/read error. Chunk buffers follow the pooled-batch contract of
// the other sources.
func (t *TailSource) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	batchSize = batchLimit(batchSize)
	batch := dispatch.GetBatch(batchSize)
	defer dispatch.PutBatch(batch)
	defer func() {
		if t.f != nil {
			t.f.Close()
			t.f = nil
		}
	}()
	done := t.cfg.Context.Done()
	timer := time.NewTimer(t.cfg.Poll)
	defer timer.Stop()
	for {
		if err := t.drain(batchSize, batch, emit); err != nil {
			return err
		}
		select {
		case <-done:
			// Final sweep: records appended between the drain above and
			// the cancellation are still owed downstream.
			return t.drain(batchSize, batch, emit)
		case <-timer.C:
			timer.Reset(t.cfg.Poll)
		}
	}
}

// tailRaceHook and tailReopenHook are test seams: when non-nil they
// run between a drain pass and the rotation check, and between a
// rotation reopen and its re-stat, respectively — the two windows a
// concurrent writer can rotate in. Tests use them to force the
// drain/rotate races deterministically; production never sets them.
var (
	tailRaceHook   func()
	tailReopenHook func()
)

// drain consumes everything currently visible: whole records in the
// open handle, then — if the path has rotated to a new file — the new
// file from the start, repeating until no step makes progress.
func (t *TailSource) drain(batchSize int, batch *[]firewall.Record,
	emit func(recs []firewall.Record) error) error {
	for {
		progressed, err := t.drainHandle(batchSize, batch, emit)
		if err != nil {
			return err
		}
		if tailRaceHook != nil {
			tailRaceHook()
		}
		rotated, err := t.checkRotate(batchSize, batch, emit)
		if err != nil {
			return err
		}
		if !progressed && !rotated {
			return nil
		}
	}
}

// drainHandle reads every whole record the open handle holds past the
// current offset, in ≈batchSize-record chunks planned by
// firewall.PlanChunks so reads stay record-aligned. A partial trailing
// record (a writer mid-append) is left for the next poll.
func (t *TailSource) drainHandle(batchSize int, batch *[]firewall.Record,
	emit func(recs []firewall.Record) error) (bool, error) {
	if t.f == nil && !t.open() {
		return false, nil
	}
	st, err := t.f.Stat()
	if err != nil {
		return false, fmt.Errorf("pipeline: tailing %s: %w", t.path, err)
	}
	size := st.Size()
	if size < t.offset {
		// Truncated in place: the writer restarted the file under the
		// same identity. Start over from the top.
		t.offset = 0
		t.stats.Truncations++
		t.stats.Offset = 0
	}
	whole := (size - t.offset) / firewall.RecordWireSize * firewall.RecordWireSize
	if whole <= 0 {
		return false, nil
	}
	nChunks := int((whole/firewall.RecordWireSize + int64(batchSize) - 1) / int64(batchSize))
	for _, c := range firewall.PlanChunks(whole, nChunks) {
		if int64(cap(t.buf)) < c.Length {
			t.buf = make([]byte, c.Length)
		}
		buf := t.buf[:c.Length]
		n, err := t.f.ReadAt(buf, t.offset)
		// A concurrent shrink between Stat and ReadAt surfaces as a
		// short read; decode the whole records that did arrive and let
		// the next drain observe the truncation.
		n -= n % firewall.RecordWireSize
		if n > 0 {
			// A rejected record stops the decode; the records ahead of
			// it are consumed and emitted first, as the serial reader
			// emits them, and the error follows.
			recs, derr := firewall.DecodeChunk(buf[:n], (*batch)[:0])
			*batch = recs
			t.offset += int64(len(recs)) * firewall.RecordWireSize
			t.stats.Offset = t.offset
			if len(recs) > 0 {
				if eerr := emit(recs); eerr != nil {
					return false, eerr
				}
			}
			if derr != nil {
				return false, derr
			}
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return false, fmt.Errorf("pipeline: tailing %s: %w", t.path, err)
		}
		if n < len(buf) {
			return n > 0, nil
		}
	}
	return true, nil
}

// open tries to attach to the path; reports whether a handle is open.
func (t *TailSource) open() bool {
	f, err := os.Open(t.path)
	if err != nil {
		return false
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return false
	}
	t.f, t.info, t.offset = f, st, 0
	t.stats.Offset = 0
	return true
}

// checkRotate detects the path pointing at a different file than the
// open handle (logrotate's rename-and-recreate) and swaps to the new
// file. Two races with a concurrent rotation are handled here:
//
//   - The writer may have appended to the old file after the caller's
//     last drain but before renaming it, so the old handle gets one
//     final drain before it is closed — the writer stopped touching the
//     file at the rename, which makes that drain complete. Without it,
//     the old generation's tail would be silently skipped.
//   - A second rotation can land between the path stat and the reopen,
//     making the handle just opened itself an old generation. After
//     every reopen the path is re-stat'ed, and the drain-close-reopen
//     step loops until the handle and the path agree — every
//     generation this tail ever holds is drained before being dropped.
//
// Only a generation renamed away before the tail ever opens it can
// still be missed, which is why the rotation rule (package doc,
// "Serving") requires rotation intervals long enough for a tail to
// observe each generation.
func (t *TailSource) checkRotate(batchSize int, batch *[]firewall.Record,
	emit func(recs []firewall.Record) error) (bool, error) {
	if t.f == nil {
		return false, nil
	}
	st, err := os.Stat(t.path)
	if err != nil {
		// Path missing: rotated away with no replacement yet. Keep the
		// old handle; a future poll sees the recreated file.
		return false, nil
	}
	rotated := false
	for !os.SameFile(t.info, st) {
		// Final drain of the outgoing handle: the writer's last appends
		// landed before the rename, so they are visible now.
		if _, err := t.drainHandle(batchSize, batch, emit); err != nil {
			return rotated, err
		}
		t.f.Close()
		t.f = nil
		t.stats.Rotations++
		rotated = true
		if !t.open() {
			// The path vanished again between stat and open; the caller's
			// drain loop (and the next poll) retries from scratch.
			return rotated, nil
		}
		if tailReopenHook != nil {
			tailReopenHook()
		}
		st, err = os.Stat(t.path)
		if err != nil {
			return rotated, nil
		}
	}
	return rotated, nil
}
