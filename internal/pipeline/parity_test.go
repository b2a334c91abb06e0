package pipeline

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"v6scan/internal/firewall"
)

// Batch-size invariance: every built-in stage must produce the
// downstream record sequence (and observable side state) of a
// test-local, obviously-right reference — a slice filter, a stable
// sort, the artifact filter driven directly — at every batch size.
// The driver hands each stage a copy of the chunk, since the batch
// contract allows consumers to compact the slice in place.

var parityBatchSizes = []int{1, 7, 64, 1 << 20}

// feedBatches drives sink in chunks of size n, emulating a batching
// source: each chunk is copied into a reused buffer the sink may
// mutate. Then Flush.
func feedBatches(t *testing.T, sink RecordSink, recs []firewall.Record, n int) {
	t.Helper()
	buf := make([]firewall.Record, 0, min(n, len(recs)))
	for start := 0; start < len(recs); start += n {
		end := min(start+n, len(recs))
		buf = append(buf[:0], recs[start:end]...)
		if err := sink.ConsumeBatch(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

// consumeOne hands sink a single-record batch.
func consumeOne(sink RecordSink, r firewall.Record) error {
	return sink.ConsumeBatch([]firewall.Record{r})
}

// stageParity runs mk-built stages at every parity batch size and
// requires each run's downstream sequence to equal want.
func stageParity(t *testing.T, recs, want []firewall.Record, mk func(next RecordSink) RecordSink) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("empty reference; parity test is vacuous")
	}
	for _, n := range parityBatchSizes {
		var got []firewall.Record
		feedBatches(t, mk(Collector(func(r firewall.Record) { got = append(got, r) })), recs, n)
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d records, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: record %d differs:\n%+v\n%+v", n, i, got[i], want[i])
			}
		}
	}
}

// keep is the reference filter: the records pred admits, in order.
func keep(recs []firewall.Record, pred func(firewall.Record) bool) []firewall.Record {
	var out []firewall.Record
	for _, r := range recs {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// daySorted is the reference DaySort: each UTC day's records stably
// sorted by time, days in arrival order (the input's days must arrive
// in order).
func daySorted(recs []firewall.Record) []firewall.Record {
	out := append([]firewall.Record(nil), recs...)
	dayOf := func(r firewall.Record) time.Time { return r.Time.UTC().Truncate(24 * time.Hour) }
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && dayOf(out[hi]).Equal(dayOf(out[lo])) {
			hi++
		}
		day := out[lo:hi]
		sort.SliceStable(day, func(i, j int) bool { return day[i].Time.Before(day[j].Time) })
		lo = hi
	}
	return out
}

// artifactRef is the reference ArtifactStage: the filter driven
// directly through Push and Close.
func artifactRef(recs []firewall.Record) ([]firewall.Record, firewall.FilterStats) {
	f := firewall.NewArtifactFilter()
	var out []firewall.Record
	for _, r := range recs {
		out = append(out, f.Push(r)...)
	}
	out = append(out, f.Close()...)
	return out, f.Stats()
}

func TestPolicyStageParity(t *testing.T) {
	recs := mixedStream(2, 1200)
	pol := firewall.DefaultCollectPolicy()
	want := keep(recs, pol.Admit)
	if len(want) == len(recs) {
		t.Fatal("stream has nothing for the policy to drop")
	}
	stageParity(t, recs, want, func(next RecordSink) RecordSink { return Policy(pol, next) })
}

func TestFilterStageParity(t *testing.T) {
	recs := mixedStream(2, 1200)
	pred := func(r firewall.Record) bool { return r.DstPort == 22 }
	stageParity(t, recs, keep(recs, pred), func(next RecordSink) RecordSink { return Filter(pred, next) })
}

func TestCounterStageParity(t *testing.T) {
	recs := mixedStream(2, 800)
	stageParity(t, recs, recs, func(next RecordSink) RecordSink { return NewCounter(next) })
}

func TestCounterStageCounts(t *testing.T) {
	recs := mixedStream(1, 500)
	for _, n := range parityBatchSizes {
		c := NewCounter(discard)
		feedBatches(t, c, recs, n)
		if c.Count() != uint64(len(recs)) {
			t.Fatalf("batch=%d: count %d, want %d", n, c.Count(), len(recs))
		}
	}
}

func TestDaySortStageParity(t *testing.T) {
	recs := mixedStream(3, 900)
	stageParity(t, recs, daySorted(recs), func(next RecordSink) RecordSink { return NewDaySort(next) })
}

func TestArtifactStageParity(t *testing.T) {
	// The artifact filter needs day-ordered input; mixedStream days
	// arrive in order and the filter buffers per day internally, so the
	// jittered intra-day order is fine.
	recs := mixedStream(3, 1200)
	want, wantStats := artifactRef(recs)
	if wantStats.PacketsDropped == 0 {
		t.Fatal("stream contains no artifacts; parity test is vacuous")
	}
	stageParity(t, recs, want, func(next RecordSink) RecordSink {
		return NewArtifactStage(firewall.NewArtifactFilter(), next)
	})
	for _, n := range parityBatchSizes {
		f := firewall.NewArtifactFilter()
		feedBatches(t, NewArtifactStage(f, discard), recs, n)
		if !reflect.DeepEqual(f.Stats(), wantStats) {
			t.Fatalf("batch=%d: stats differ:\n%+v\n%+v", n, f.Stats(), wantStats)
		}
	}
}

// scribbleSink copies every batch it is handed and then overwrites it,
// as the batch rule allows, and records the largest batch.
type scribbleSink struct {
	recs    []firewall.Record
	largest int
}

func (s *scribbleSink) ConsumeBatch(recs []firewall.Record) error {
	s.recs = append(s.recs, recs...)
	s.largest = max(s.largest, len(recs))
	clear(recs)
	return nil
}
func (s *scribbleSink) Flush() error { return nil }

// TestArtifactStageLoansBatches checks that the artifact stage hands
// its days downstream under the ordinary batch rule: a sink that
// overwrites every batch after copying it still sees artifactRef's
// survivors and stats, and days of more than DefaultBatchSize
// survivors arrive in batches of at most DefaultBatchSize.
func TestArtifactStageLoansBatches(t *testing.T) {
	recs := mixedStream(3, 3*DefaultBatchSize)
	want, wantStats := artifactRef(recs)
	if wantStats.PacketsDropped == 0 {
		t.Fatal("stream contains no artifacts; test is vacuous")
	}
	for _, n := range parityBatchSizes {
		f := firewall.NewArtifactFilter()
		sink := &scribbleSink{}
		feedBatches(t, NewArtifactStage(f, sink), recs, n)
		if !slices.Equal(sink.recs, want) {
			t.Fatalf("batch=%d: %d survivors differ from the reference's %d", n, len(sink.recs), len(want))
		}
		if !reflect.DeepEqual(f.Stats(), wantStats) {
			t.Fatalf("batch=%d: stats differ:\n%+v\n%+v", n, f.Stats(), wantStats)
		}
		if sink.largest != DefaultBatchSize {
			t.Fatalf("batch=%d: largest forwarded batch holds %d records, want DefaultBatchSize (%d)", n, sink.largest, DefaultBatchSize)
		}
	}
}

func TestTeeStageParity(t *testing.T) {
	recs := mixedStream(2, 700)
	pred := func(r firewall.Record) bool { return r.DstPort == 22 }
	wantB := keep(recs, pred)
	for _, n := range parityBatchSizes {
		var gotA, gotB []firewall.Record
		tee := Chain().
			Tee(Collector(func(r firewall.Record) { gotA = append(gotA, r) })).
			// The main chain filters, exercising compaction isolation.
			Filter(pred).
			Into(Collector(func(r firewall.Record) { gotB = append(gotB, r) }))
		feedBatches(t, tee, recs, n)
		if !reflect.DeepEqual(gotA, recs) || !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("batch=%d: tee branches diverge (%d/%d vs %d/%d records)",
				n, len(gotA), len(gotB), len(recs), len(wantB))
		}
	}
}

// TestFilteredChainParity runs the composed standard chain (policy →
// day sort → artifact → counter) against the composition of the
// references above — the whole-chain version of the per-stage checks.
func TestFilteredChainParity(t *testing.T) {
	recs := mixedStream(3, 1500)
	want, _ := artifactRef(daySorted(keep(recs, firewall.DefaultCollectPolicy().Admit)))
	stageParity(t, recs, want, func(next RecordSink) RecordSink {
		return Policy(firewall.DefaultCollectPolicy(),
			NewDaySort(NewArtifactStage(firewall.NewArtifactFilter(), NewCounter(next))))
	})
}
