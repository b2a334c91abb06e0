package pipeline

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// disorderedRecs builds n records whose timestamps advance ~1s per
// record but jitter backwards by up to maxSkew; SrcPort carries the
// arrival index and DstPort a small duplicate-timestamp class, so both
// stability violations and reorderings are observable.
func disorderedRecs(n int, maxSkew time.Duration, seed int64) []firewall.Record {
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		back := time.Duration(0)
		if maxSkew > 0 {
			back = time.Duration(rng.Int63n(int64(maxSkew) + 1))
		}
		ts := t0.Add(time.Duration(i) * time.Second).Add(-back)
		if ts.Before(t0) {
			ts = t0
		}
		recs = append(recs, firewall.Record{
			Time:    ts,
			Src:     netaddr6.MustAddr("2001:db8::1"),
			Dst:     netaddr6.MustAddr("2001:db8:f::1"),
			Proto:   layers.ProtoTCP,
			SrcPort: uint16(i),
			DstPort: uint16(i % 5),
			Length:  60,
		})
	}
	return recs
}

// maxDisorder returns the stream's actual disorder bound: the largest
// amount any record trails an earlier record by.
func maxDisorder(recs []firewall.Record) time.Duration {
	var worst time.Duration
	var maxSeen time.Time
	for _, r := range recs {
		if r.Time.After(maxSeen) {
			maxSeen = r.Time
		} else if d := maxSeen.Sub(r.Time); d > worst {
			worst = d
		}
	}
	return worst
}

func stableByTime(recs []firewall.Record) []firewall.Record {
	out := append([]firewall.Record(nil), recs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// TestSortByTimeProperty is the property test of the unbounded
// reorder: random record streams at varying disorder bounds (including
// sorted, fully random, and duplicate-heavy inputs) must match
// sort.SliceStable exactly — order and stability.
func TestSortByTimeProperty(t *testing.T) {
	skews := []time.Duration{0, time.Second, 5 * time.Second, 30 * time.Second,
		5 * time.Minute, time.Hour}
	for _, skew := range skews {
		for seed := int64(0); seed < 6; seed++ {
			recs := disorderedRecs(700, skew, 100+seed)
			var got []firewall.Record
			feedBatches(t, NewWindowSort(unboundedWindow, Collector(func(r firewall.Record) { got = append(got, r) })), recs, 64)
			if !reflect.DeepEqual(got, stableByTime(recs)) {
				t.Fatalf("skew=%v seed=%d: unbounded WindowSort differs from sort.SliceStable", skew, seed)
			}
		}
	}
}

// TestWindowSortMatchesFullSort is the WindowSort correctness
// property: whenever the stream's disorder is bounded by the window,
// the released sequence equals a full stable sort of the input at
// every batch size.
func TestWindowSortMatchesFullSort(t *testing.T) {
	skews := []time.Duration{0, time.Second, 7 * time.Second, time.Minute}
	for _, skew := range skews {
		for seed := int64(0); seed < 4; seed++ {
			recs := disorderedRecs(900, skew, 200+seed)
			window := maxDisorder(recs) // tightest window that must still be exact
			want := stableByTime(recs)

			for _, n := range parityBatchSizes {
				var got []firewall.Record
				ws := NewWindowSort(window, Collector(func(r firewall.Record) { got = append(got, r) }))
				feedBatches(t, ws, recs, n)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("skew=%v seed=%d window=%v batch=%d: output differs from full stable sort", skew, seed, window, n)
				}
			}
		}
	}
}

// TestWindowSortWiderWindowSameOutput: any window at least as large as
// the disorder produces the identical sequence (release timing changes,
// content and order do not).
func TestWindowSortWiderWindowSameOutput(t *testing.T) {
	recs := disorderedRecs(600, 9*time.Second, 7)
	want := stableByTime(recs)
	for _, window := range []time.Duration{maxDisorder(recs), time.Minute, 24 * time.Hour} {
		var got []firewall.Record
		ws := NewWindowSort(window, Collector(func(r firewall.Record) { got = append(got, r) }))
		feedBatches(t, ws, recs, 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window=%v: output differs from full stable sort", window)
		}
	}
}

// TestWindowSortBoundedBuffer pins the memory bound the stage exists
// for: while streaming a long near-sorted input, the internal buffer
// never holds more than the records spanning one window (plus the
// batch in flight).
func TestWindowSortBoundedBuffer(t *testing.T) {
	const n = 20_000
	window := 10 * time.Second // 10 records/sec below → ~100 in-window records
	t0 := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	peak := 0
	ws := NewWindowSort(window, discard)
	for i := 0; i < n; i++ {
		jitter := time.Duration(i%3) * time.Second
		r := firewall.Record{
			Time: t0.Add(time.Duration(i) * 100 * time.Millisecond).Add(-jitter),
			Src:  netaddr6.MustAddr("2001:db8::1"), Dst: netaddr6.MustAddr("2001:db8:f::1"),
			Proto: layers.ProtoTCP, SrcPort: uint16(i), DstPort: 22, Length: 60,
		}
		if err := consumeOne(ws, r); err != nil {
			t.Fatal(err)
		}
		if len(ws.buf.recs) > peak {
			peak = len(ws.buf.recs)
		}
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	// One window spans ~100 records at this rate; allow generous slack
	// for the release granularity but nothing day-scale.
	if peak > 300 {
		t.Fatalf("buffer peaked at %d records; a 10s window over a 10 rec/s stream should stay ~100", peak)
	}
}

// TestWindowSortLateRecordError: a record trailing the stream
// high-water mark by more than the window must abort with a
// diagnostic instead of risking an out-of-order emission — and the
// decision must be identical one record at a time and in one batch
// (it is a pure function of the record sequence, not of release
// timing).
func TestWindowSortLateRecordError(t *testing.T) {
	t0 := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	mk := func(off time.Duration) firewall.Record {
		return firewall.Record{Time: t0.Add(off), Src: netaddr6.MustAddr("2001:db8::1"),
			Dst: netaddr6.MustAddr("2001:db8:f::1"), Proto: layers.ProtoTCP, DstPort: 22, Length: 60}
	}
	// High-water +10s, window 1s: +9s trails by exactly the window and
	// is accepted; +2s trails by 8s and must be rejected.
	stream := []firewall.Record{mk(0), mk(time.Second), mk(10 * time.Second), mk(9 * time.Second)}
	late := mk(2 * time.Second)

	ws := NewWindowSort(time.Second, discard)
	for _, r := range stream {
		if err := consumeOne(ws, r); err != nil {
			t.Fatal(err)
		}
	}
	err := consumeOne(ws, late)
	if err == nil {
		t.Fatal("over-window-late record accepted one record at a time")
	}
	if !strings.Contains(err.Error(), "reorder window") {
		t.Fatalf("unexpected error text: %v", err)
	}

	// The identical sequence in one batch must fail identically.
	wsb := NewWindowSort(time.Second, discard)
	if err := wsb.ConsumeBatch(append(append([]firewall.Record(nil), stream...), late)); err == nil {
		t.Fatal("over-window-late record accepted in one batch")
	}
}

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
	ws := NewWindowSort(window, discard)
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

// TestWindowSortStageParity runs the standard stage parity harness
// against a full stable sort, the reference for in-window disorder.
func TestWindowSortStageParity(t *testing.T) {
	recs := disorderedRecs(1200, 5*time.Second, 99)
	window := maxDisorder(recs)
	stageParity(t, recs, stableByTime(recs), func(next RecordSink) RecordSink {
		return NewWindowSort(window, next)
	})
}
