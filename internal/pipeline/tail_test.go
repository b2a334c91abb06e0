package pipeline

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"v6scan/internal/firewall"
)

// tailTestPoll keeps the tail loops tight so tests finish fast.
const tailTestPoll = 2 * time.Millisecond

// tailRecords builds n ordered records starting at second `from`.
func tailRecords(from, n int) []firewall.Record {
	base := time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, firewall.Record{
			Time: base.Add(time.Duration(from+i) * time.Second),
			Src:  netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", (from+i)%512+1)),
			Dst:  netip.MustParseAddr("2001:db8:ffff::1"),
		})
	}
	return recs
}

// appendRecords appends encoded records to path (creating it).
func appendRecords(t *testing.T, path string, recs []firewall.Record) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	w := firewall.NewWriter(bw)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendBytes appends raw bytes (for partial-record scenarios).
func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// collectTail runs a TailSource until cancel, collecting every record
// into out under mu.
type tailRun struct {
	cancel context.CancelFunc
	mu     sync.Mutex
	got    []firewall.Record
	done   chan error
	src    *TailSource
}

func startTail(path string) *tailRun {
	ctx, cancel := context.WithCancel(context.Background())
	tr := &tailRun{cancel: cancel, done: make(chan error, 1)}
	tr.src = NewTailSource(path, TailConfig{Poll: tailTestPoll, Context: ctx})
	go func() {
		tr.done <- tr.src.EmitBatch(256, func(recs []firewall.Record) error {
			tr.mu.Lock()
			tr.got = append(tr.got, recs...)
			tr.mu.Unlock()
			return nil
		})
	}()
	return tr
}

func (tr *tailRun) count() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.got)
}

// waitCount polls until the tail has delivered n records.
func (tr *tailRun) waitCount(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d records, have %d", n, tr.count())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop cancels and returns the collected records after a clean exit.
func (tr *tailRun) stop(t *testing.T) []firewall.Record {
	t.Helper()
	tr.cancel()
	if err := <-tr.done; err != nil {
		t.Fatalf("tail returned %v, want nil", err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.got
}

// TestTailGrowth: records appended across several writes all arrive,
// in order, and match what LogSource reads from the final file.
func TestTailGrowth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fw.log")
	tr := startTail(path) // file does not exist yet: tail must wait
	appendRecords(t, path, tailRecords(0, 1000))
	tr.waitCount(t, 1000)
	appendRecords(t, path, tailRecords(1000, 500))
	appendRecords(t, path, tailRecords(1500, 500))
	tr.waitCount(t, 2000)
	got := tr.stop(t)

	var want []firewall.Record
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := NewLogSource(f).EmitBatch(0, func(recs []firewall.Record) error {
		want = append(want, recs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("tail delivered %d records, LogSource %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs: tail %+v, log %+v", i, got[i], want[i])
		}
	}
	if st := tr.src.Stats(); st.Rotations != 0 || st.Truncations != 0 {
		t.Fatalf("unexpected rotations/truncations: %+v", st)
	}
}

// TestTailPartialRecord: a half-written trailing record is held until
// its remaining bytes land — never delivered, never an error.
func TestTailPartialRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fw.log")
	recs := tailRecords(0, 3)
	var enc []byte
	for _, r := range recs {
		enc = r.AppendBinary(enc)
	}
	tr := startTail(path)
	split := 2*firewall.RecordWireSize + 11 // two whole records + a torn third
	appendBytes(t, path, enc[:split])
	tr.waitCount(t, 2)
	// Give the poller time to misbehave on the torn tail, then heal it.
	time.Sleep(10 * tailTestPoll)
	if n := tr.count(); n != 2 {
		t.Fatalf("delivered %d records with a torn tail, want 2", n)
	}
	appendBytes(t, path, enc[split:])
	tr.waitCount(t, 3)
	got := tr.stop(t)
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d differs after torn write", i)
		}
	}
}

// TestTailRotation: rename-and-recreate rotation switches the tail to
// the new file without losing either side's records.
func TestTailRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fw.log")
	tr := startTail(path)
	appendRecords(t, path, tailRecords(0, 800))
	tr.waitCount(t, 800) // old file fully drained before rotating
	if err := os.Rename(path, filepath.Join(dir, "fw.log.1")); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, path, tailRecords(800, 600))
	tr.waitCount(t, 1400)
	got := tr.stop(t)
	want := tailRecords(0, 1400)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs across rotation", i)
		}
	}
	if st := tr.src.Stats(); st.Rotations != 1 {
		t.Fatalf("Rotations = %d, want 1", st.Rotations)
	}
}

// TestTailTruncation: an in-place truncate (same inode, size shrinks)
// restarts the offset at zero.
func TestTailTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fw.log")
	tr := startTail(path)
	appendRecords(t, path, tailRecords(0, 500))
	tr.waitCount(t, 500)
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, path, tailRecords(500, 300))
	tr.waitCount(t, 800)
	tr.stop(t)
	if st := tr.src.Stats(); st.Truncations != 1 {
		t.Fatalf("Truncations = %d, want 1", st.Truncations)
	}
}

// TestTailCancelDrains: records appended immediately before
// cancellation are still delivered — the final sweep guarantee the
// daemon's graceful shutdown relies on.
func TestTailCancelDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fw.log")
	appendRecords(t, path, tailRecords(0, 100))
	ctx, cancel := context.WithCancel(context.Background())
	src := NewTailSource(path, TailConfig{Poll: time.Hour, Context: ctx})
	var got int
	done := make(chan error, 1)
	go func() {
		first := true
		done <- src.EmitBatch(64, func(recs []firewall.Record) error {
			got += len(recs)
			if first {
				first = false
				// While the tail is mid-run: more records, then cancel.
				// The hour-long poll means only the final sweep can
				// deliver them.
				appendRecords(t, path, tailRecords(100, 50))
				cancel()
			}
			return nil
		})
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got != 150 {
		t.Fatalf("delivered %d records, want 150 (cancel must drain)", got)
	}
}

// TestTailRejectedRecordEmitsPrefix: a record the decoder rejects (an
// IPv4-mapped source) ends the tail with firewall.ErrNotIPv6 — after
// the records ahead of it are emitted and counted in the offset, as
// LogSource emits them.
func TestTailRejectedRecordEmitsPrefix(t *testing.T) {
	recs := tailRecords(0, 5)
	recs[3].Src = netip.MustParseAddr("::ffff:10.0.0.1")
	path := filepath.Join(t.TempDir(), "fw.log")
	appendRecords(t, path, recs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tail := NewTailSource(path, TailConfig{Context: ctx})
	var got []firewall.Record
	if err := tail.EmitBatch(0, collectBatches(&got)); !errors.Is(err, firewall.ErrNotIPv6) {
		t.Fatalf("tail err = %v, want firewall.ErrNotIPv6", err)
	}
	if len(got) != 3 {
		t.Fatalf("tail emitted %d records before the rejected one, want 3", len(got))
	}
	if off := tail.Stats().Offset; off != 3*firewall.RecordWireSize {
		t.Fatalf("offset %d after the rejection, want %d (past the emitted records)", off, 3*firewall.RecordWireSize)
	}
}

// TestTailIntoPipeline: a tail feeds the builder/sink machinery like
// any other source — the end-to-end composition the daemon uses.
func TestTailIntoPipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fw.log")
	appendRecords(t, path, tailRecords(0, 2000))
	ctx, cancel := context.WithCancel(context.Background())
	src := NewTailSource(path, TailConfig{Poll: tailTestPoll, Context: ctx})
	sink := &atomicCountSink{}
	done := make(chan error, 1)
	go func() {
		done <- From(src).RunInto(context.Background(), sink)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sink.n.Load() < 2000 {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: pipeline saw %d records", sink.n.Load())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := sink.n.Load(); got != 2000 {
		t.Fatalf("pipeline consumed %d records, want 2000", got)
	}
}

// atomicCountSink counts records with cross-goroutine-safe reads.
type atomicCountSink struct{ n atomic.Int64 }

func (s *atomicCountSink) ConsumeBatch(recs []firewall.Record) error {
	s.n.Add(int64(len(recs)))
	return nil
}
func (s *atomicCountSink) Flush() error { return nil }

// encodeTailRecords renders records to their on-disk bytes for the
// rotation-race hooks, which run on the tail goroutine and therefore
// cannot use the *testing.T helpers (Fatal must stay on the test
// goroutine). Failures panic — loud enough for a test.
func encodeTailRecords(recs []firewall.Record) []byte {
	var b []byte
	for _, r := range recs {
		b = r.AppendBinary(b)
	}
	return b
}

func mustAppendFile(path string, b []byte) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		panic(err)
	}
	if _, err := f.Write(b); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
}

// TestTailRotationRaces forces, deterministically, the two windows a
// concurrent logrotate can slip through:
//
//  1. The writer appends to the old generation after the tail's last
//     drain of it, then renames it — those appends are only visible to
//     the already-open handle, so checkRotate must drain it once more
//     before closing (the old code closed immediately and lost them).
//  2. A second rotation lands right after the reopen, making the fresh
//     handle itself an old generation — checkRotate must re-stat and
//     loop until handle and path agree.
//
// The tail must deliver every record of all three generations, in
// order.
func TestTailRotationRaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fw.log")

	genA := tailRecords(0, 300)
	lateA := tailRecords(300, 100) // appended to A inside window 1
	genB := tailRecords(400, 200)
	genC := tailRecords(600, 150)

	appendRecords(t, path, genA)

	const drainedA = int64(300 * firewall.RecordWireSize)
	var raced, reraced bool
	tailRaceHook = func() {
		// Fires between a drain pass and the rotation check. Act exactly
		// once, after the initial generation is fully consumed: append
		// the old generation's tail, rotate it away, and start B.
		if raced {
			return
		}
		if st, err := os.Stat(path); err != nil || st.Size() != drainedA {
			return
		}
		raced = true
		mustAppendFile(path, encodeTailRecords(lateA))
		if err := os.Rename(path, filepath.Join(dir, "fw.log.1")); err != nil {
			panic(err)
		}
		mustAppendFile(path, encodeTailRecords(genB))
	}
	tailReopenHook = func() {
		// Fires between a rotation reopen and its re-stat: the first
		// firing rotates again, so the handle just opened (B) is already
		// stale.
		if reraced {
			return
		}
		reraced = true
		if err := os.Rename(path, filepath.Join(dir, "fw.log.2")); err != nil {
			panic(err)
		}
		mustAppendFile(path, encodeTailRecords(genC))
	}
	defer func() { tailRaceHook, tailReopenHook = nil, nil }()

	tr := startTail(path)
	tr.waitCount(t, 750)
	got := tr.stop(t)

	want := tailRecords(0, 750)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs across the forced rotations", i)
		}
	}
	if st := tr.src.Stats(); st.Rotations != 2 {
		t.Fatalf("Rotations = %d, want 2", st.Rotations)
	}
	if !raced || !reraced {
		t.Fatal("race hooks never fired")
	}
}
