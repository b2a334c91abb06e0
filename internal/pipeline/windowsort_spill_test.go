package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// TestErrLateRecordFields pins the typed lateness diagnostic: callers
// must be able to pull the rejected record's time and the admissible
// horizon out of the error with errors.As instead of parsing text.
func TestErrLateRecordFields(t *testing.T) {
	t0 := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	mk := func(off time.Duration) firewall.Record {
		return firewall.Record{Time: t0.Add(off), Src: netaddr6.MustAddr("2001:db8::1"),
			Dst: netaddr6.MustAddr("2001:db8:f::1"), Proto: layers.ProtoTCP, DstPort: 22, Length: 60}
	}
	const window = time.Second
	ws := NewWindowSort(window, Discard)
	for _, off := range []time.Duration{0, 10 * time.Second} {
		if err := consumeOne(ws, mk(off)); err != nil {
			t.Fatal(err)
		}
	}
	err := consumeOne(ws, mk(2*time.Second))
	if err == nil {
		t.Fatal("over-window-late record accepted")
	}
	var late *ErrLateRecord
	if !errors.As(err, &late) {
		t.Fatalf("error is %T, want *ErrLateRecord (err: %v)", err, err)
	}
	if !late.RecordTime.Equal(t0.Add(2 * time.Second)) {
		t.Errorf("RecordTime = %v, want %v", late.RecordTime, t0.Add(2*time.Second))
	}
	if !late.HighWater.Equal(t0.Add(10 * time.Second)) {
		t.Errorf("HighWater = %v, want %v", late.HighWater, t0.Add(10*time.Second))
	}
	if late.Window != window {
		t.Errorf("Window = %v, want %v", late.Window, window)
	}
	if !late.Horizon.Equal(late.HighWater.Add(-window)) {
		t.Errorf("Horizon = %v, want high-water − window = %v",
			late.Horizon, late.HighWater.Add(-window))
	}
}

// spillStream models the workload EnableSpill exists for: an
// in-order prefix (streaming releases engage), then a lagging writer
// whose records trail the high-water mark by up to 90 seconds — far
// beyond the window, but never behind output already released, so the
// spill path absorbs them instead of failing. SrcPort carries the
// arrival index and DstPort a duplicate-timestamp class, making both
// reorderings and stability violations observable.
func spillStream(n int, seed int64) []firewall.Record {
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	mk := func(ts time.Time, i int) firewall.Record {
		return firewall.Record{Time: ts, Src: netaddr6.MustAddr("2001:db8::1"),
			Dst: netaddr6.MustAddr("2001:db8:f::1"), Proto: layers.ProtoTCP,
			SrcPort: uint16(i), DstPort: uint16(i % 5), Length: 60}
	}
	m := n / 4
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < m; i++ { // sorted ramp: releases stream
		recs = append(recs, mk(t0.Add(time.Duration(i)*time.Second), i))
	}
	// A forward jump opens a gap between the release horizon and the
	// last released record, then the disordered tail lands inside it.
	head := time.Duration(m)*time.Second + 30*time.Second
	recs = append(recs, mk(t0.Add(head), m))
	for i := m + 1; i < n; i++ {
		off := head + time.Duration(rng.Int63n(int64(90*time.Second)))
		recs = append(recs, mk(t0.Add(off), i))
	}
	return recs
}

// TestWindowSortSpillMatchesFullSort: with spill armed, disorder far
// beyond the window must no longer abort the run — the emitted
// sequence must still equal sort.SliceStable over the whole input, one
// record per batch and in 512-record batches, with a run size small
// enough to force many on-disk run files. The spill directory must be empty
// again after Flush.
func TestWindowSortSpillMatchesFullSort(t *testing.T) {
	recs := spillStream(20_000, 41)
	const window = 5 * time.Second
	if d := maxDisorder(recs); d <= window {
		t.Fatalf("generator produced disorder %v, need > window %v", d, window)
	}
	want := stableByTime(recs)

	// Without spill the same stream must fail — the spill path below is
	// then doing real work, not riding the buffered regime.
	plainErr := NewWindowSort(window, Discard).ConsumeBatch(append([]firewall.Record(nil), recs...))
	var late *ErrLateRecord
	if !errors.As(plainErr, &late) {
		t.Fatalf("spill-less run: err = %v, want *ErrLateRecord", plainErr)
	}

	for name, n := range map[string]int{"record": 1, "batch": 512} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var got []firewall.Record
			ws := NewWindowSort(window, Collector(func(r firewall.Record) { got = append(got, r) }))
			ws.EnableSpill(dir, 1024) // tiny runs: ~20 spill files
			feedBatches(t, ws, recs, n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spill output differs from sort.SliceStable (%d vs %d records)", len(got), len(want))
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Errorf("spill dir not cleaned after Flush: %d leftover files", len(entries))
			}
		})
	}
}

// TestWindowSortSpillBuilderStage drives the same contract through the
// builder's WindowSortSpill stage inside a full chain.
func TestWindowSortSpillBuilderStage(t *testing.T) {
	recs := spillStream(8_000, 43)
	want := stableByTime(recs)
	var got []firewall.Record
	err := From(SliceSource(recs)).
		WindowSortSpill(2*time.Second, t.TempDir()).
		RunInto(context.Background(), Collector(func(r firewall.Record) { got = append(got, r) }))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("builder spill output differs from sort.SliceStable (%d vs %d records)", len(got), len(want))
	}
}

// TestWindowSortSpillRejectsBehindEmitted: spill absorbs beyond-window
// disorder, but a record older than output already released downstream
// is unplaceable by any amount of buffering and must still fail with
// the typed error.
func TestWindowSortSpillRejectsBehindEmitted(t *testing.T) {
	t0 := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	mk := func(off time.Duration) firewall.Record {
		return firewall.Record{Time: t0.Add(off), Src: netaddr6.MustAddr("2001:db8::1"),
			Dst: netaddr6.MustAddr("2001:db8:f::1"), Proto: layers.ProtoTCP, DstPort: 22, Length: 60}
	}
	var lastOut time.Time
	ws := NewWindowSort(time.Second, Collector(func(r firewall.Record) { lastOut = r.Time }))
	ws.EnableSpill(t.TempDir(), 0)
	// Drive the high-water mark far ahead so early records are released.
	for _, off := range []time.Duration{0, time.Second, time.Minute} {
		if err := consumeOne(ws, mk(off)); err != nil {
			t.Fatal(err)
		}
	}
	if lastOut.IsZero() {
		t.Fatal("no records released; cannot exercise behind-emitted rejection")
	}
	err := consumeOne(ws, mk(lastOut.Sub(t0)-time.Millisecond))
	var late *ErrLateRecord
	if !errors.As(err, &late) {
		t.Fatalf("record behind released output: err = %v, want *ErrLateRecord", err)
	}
}
