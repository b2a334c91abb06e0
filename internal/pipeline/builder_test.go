package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/layers"
	"v6scan/internal/metrics"
	"v6scan/internal/netaddr6"
)

// mixedStream synthesizes days of interleaved traffic exercising every
// standard stage: a scanner (detected), artifact duplicates (dropped
// by the 5-duplicate filter), policy-excluded records (TCP/443,
// ICMPv6), and out-of-order timestamps within each day (fixed by
// DaySort).
func mixedStream(days, perDay int) []firewall.Record {
	rng := rand.New(rand.NewSource(17))
	scanner := netaddr6.MustAddr("2001:db8:bad::1")
	artifact := netaddr6.MustAddr("2001:db8:aaaa::1")
	client := netaddr6.MustAddr("2001:db8:c11e::1")
	dsts := netaddr6.MustPrefix("2001:db8:f::/48")
	artDst := netaddr6.MustAddr("2001:db8:f::99")
	day0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	var recs []firewall.Record
	for d := 0; d < days; d++ {
		day := day0.Add(time.Duration(d) * 24 * time.Hour)
		for i := 0; i < perDay; i++ {
			// Jittered (not monotonic) intra-day timestamps.
			ts := day.Add(time.Duration(rng.Intn(20*3600)) * time.Second)
			switch i % 4 {
			case 0: // scanner probe
				recs = append(recs, firewall.Record{
					Time: ts, Src: scanner, Dst: netaddr6.RandomAddrIn(dsts, rng),
					Proto: layers.ProtoTCP, SrcPort: 40000, DstPort: 22, Length: 60,
				})
			case 1: // artifact duplicate (same dst, same service, all day)
				recs = append(recs, firewall.Record{
					Time: ts, Src: artifact, Dst: artDst,
					Proto: layers.ProtoTCP, DstPort: 25, Length: 80,
				})
			case 2: // excluded by the CDN collection policy
				recs = append(recs, firewall.Record{
					Time: ts, Src: client, Dst: netaddr6.RandomAddrIn(dsts, rng),
					Proto: layers.ProtoTCP, DstPort: 443, Length: 60,
				})
			case 3: // ICMPv6, also excluded
				recs = append(recs, firewall.Record{
					Time: ts, Src: client, Dst: netaddr6.RandomAddrIn(dsts, rng),
					Proto: layers.ProtoICMPv6, Length: 48,
				})
			}
		}
	}
	// Days must arrive in order; within a day any order is accepted.
	return recs
}

// collectSink keeps a copy of every record it consumes and counts
// flushes.
type collectSink struct {
	recs    []firewall.Record
	flushes int
}

func (s *collectSink) ConsumeBatch(recs []firewall.Record) error {
	s.recs = append(s.recs, recs...)
	return nil
}
func (s *collectSink) Flush() error { s.flushes++; return nil }

// TestBuilderMatchesNestedChain runs the full paper chain (policy →
// day sort → artifact filter → detector) both ways — nested
// constructors fed one record per batch into a serial reference
// detector, and the builder pipeline at the default batch size,
// sharded — and requires identical scans and filter statistics.
func TestBuilderMatchesNestedChain(t *testing.T) {
	recs := mixedStream(3, 2000)
	pol := firewall.DefaultCollectPolicy()

	refFilter := firewall.NewArtifactFilter()
	refDet := core.NewDetector(core.DefaultConfig())
	refHead := Policy(pol, NewDaySort(NewArtifactStage(refFilter, SinkFunc(refDet.Process))))
	feedBatches(t, refHead, recs, 1)
	refDet.Finish()

	filter := firewall.NewArtifactFilter()
	var counted *Counter
	b := From(SliceSource(recs)).Policy(pol).DaySort().Artifact(filter).Counter(&counted)
	det, err := b.Detect(context.Background(), core.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, lvl := range []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48} {
		want, got := refDet.Scans(lvl), det.Scans(lvl)
		if len(want) != len(got) {
			t.Fatalf("%v: %d scans vs %d", lvl, len(got), len(want))
		}
		for i := range want {
			if want[i].Source != got[i].Source || want[i].Packets != got[i].Packets || want[i].Dsts != got[i].Dsts {
				t.Fatalf("%v scan %d differs: %+v vs %+v", lvl, i, got[i], want[i])
			}
		}
	}
	if !reflect.DeepEqual(refFilter.Stats(), filter.Stats()) {
		t.Fatalf("filter stats differ:\n%+v\n%+v", filter.Stats(), refFilter.Stats())
	}
	if counted.Count() == 0 || counted.Count() >= uint64(len(recs)) {
		t.Fatalf("post-filter count %d implausible for %d input records", counted.Count(), len(recs))
	}
}

// TestBuilderTeeBranchesSeePreCompactionStream verifies batch
// mutation safety: a Tee branch must observe the full stream even when
// the continuing main chain compacts batches in place.
func TestBuilderTeeBranchesSeePreCompactionStream(t *testing.T) {
	recs := scanStream(1000)
	for i := range recs {
		if i%2 == 1 {
			recs[i].DstPort = 443 // dropped by the policy stage downstream
		}
	}
	var branch, main *Counter
	b := From(SliceSource(recs)).
		Tee(Chain().Counter(&branch).Into(discard)).
		Policy(firewall.DefaultCollectPolicy()).
		Counter(&main)
	if err := b.RunInto(context.Background(), discard); err != nil {
		t.Fatal(err)
	}
	if branch.Count() != uint64(len(recs)) {
		t.Fatalf("branch saw %d of %d records", branch.Count(), len(recs))
	}
	if main.Count() != uint64(len(recs)/2) {
		t.Fatalf("main chain saw %d records, want %d", main.Count(), len(recs)/2)
	}
	// The caller's slice must not have been mutated by the compacting
	// policy stage (SliceSource hands out copies).
	for i := range recs {
		if i%2 == 1 && recs[i].DstPort != 443 {
			t.Fatalf("input slice mutated at %d", i)
		}
	}
}

// flushTrackingSink counts the records and batches it consumes and
// its flushes; with fail set, every ConsumeBatch fails with it.
type flushTrackingSink struct {
	recs, batches, flushes int
	fail                   error
}

func (s *flushTrackingSink) ConsumeBatch(recs []firewall.Record) error {
	s.recs += len(recs)
	s.batches++
	return s.fail
}
func (s *flushTrackingSink) Flush() error { s.flushes++; return nil }

// TestRunIntoFlushesTeeBranchesOnce verifies RunInto's one Flush of
// the chain reaches Tee side sinks as well as the terminal, exactly
// once each.
func TestRunIntoFlushesTeeBranchesOnce(t *testing.T) {
	recs := scanStream(100)
	branch := &flushTrackingSink{}
	term := &flushTrackingSink{}
	if err := From(SliceSource(recs)).Tee(branch).RunInto(context.Background(), term); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*flushTrackingSink{"branch": branch, "terminal": term} {
		if s.recs != len(recs) || s.flushes != 1 {
			t.Fatalf("%s: recs=%d flushes=%d, want %d/1", name, s.recs, s.flushes, len(recs))
		}
	}
}

// TestStageFlushFailureStillFlushesDownstream verifies the one-Flush
// guarantee past a failed end-of-stream drain. Each buffering stage
// holds the whole (one-day) stream until Flush, and the terminal
// behind a Tee fails the one batch the drain hands it. The terminal and
// both Tee branches — one of them a 4-shard detector — must still be
// flushed exactly once, so the detector has run Finish: Result is
// readable, and TestMain's leak check finds no worker left.
func TestStageFlushFailureStillFlushesDownstream(t *testing.T) {
	boom := errors.New("terminal fails the drain")
	recs := scanStream(300)
	for _, tc := range []struct {
		name  string
		stage func(b *Builder) *Builder
	}{
		{"DaySort", func(b *Builder) *Builder { return b.DaySort() }},
		{"WindowSort", func(b *Builder) *Builder { return b.WindowSort(24 * time.Hour) }},
		{"ArtifactStage", func(b *Builder) *Builder { return b.Artifact() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			branch := &flushTrackingSink{}
			det := NewShardedSink(core.NewShardedDetector(core.DefaultConfig(), 4))
			term := &flushTrackingSink{fail: boom}
			err := tc.stage(From(SliceSource(recs))).
				Tee(branch, det).
				RunInto(context.Background(), term)
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the terminal's drain failure", err)
			}
			if term.batches != 1 || term.recs != len(recs) {
				t.Fatalf("terminal consumed %d records in %d batches, want the one drained batch of %d",
					term.recs, term.batches, len(recs))
			}
			if branch.recs != len(recs) {
				t.Fatalf("branch consumed %d records, want %d", branch.recs, len(recs))
			}
			if term.flushes != 1 || branch.flushes != 1 {
				t.Fatalf("flushes: terminal %d, branch %d; want 1 each", term.flushes, branch.flushes)
			}
			// Result panics unless Finish has run.
			if scans := det.Result().Scans(netaddr6.Agg64); len(scans) != 1 || scans[0].Dsts != len(recs) {
				t.Fatalf("branch detector scans: %+v", scans)
			}
		})
	}
}

// TestBuilderSingleUse verifies a second terminal call panics instead
// of silently sharing stage state (Artifact filters, Counter
// out-pointers) between runs.
func TestBuilderSingleUse(t *testing.T) {
	b := From(SliceSource(scanStream(10))).Artifact()
	if err := b.RunInto(context.Background(), discard); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a spent builder should panic")
		}
	}()
	b.Into(discard)
}

// TestBuilderTerminalHelpers checks that Detect and an IDS sink run
// through RunInto produce the same results as hand-run engines, serial
// and sharded.
func TestBuilderTerminalHelpers(t *testing.T) {
	recs := scanStream(400)

	serial, err := From(SliceSource(recs)).Detect(context.Background(), core.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := From(SliceSource(recs)).Detect(context.Background(), core.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ss, sh := serial.Scans(netaddr6.Agg64), sharded.Scans(netaddr6.Agg64)
	if len(ss) != 1 || len(sh) != 1 || ss[0].Dsts != sh[0].Dsts {
		t.Fatalf("detect results differ: %+v vs %+v", ss, sh)
	}

	ref := ids.New(ids.DefaultConfig())
	for _, r := range recs {
		ref.Process(r)
	}
	want := ref.Flush()
	for _, shards := range []int{1, 3} {
		alerts, err := runIDS(context.Background(), From(SliceSource(recs)), ids.DefaultConfig(), shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(alerts) != len(want) || len(want) == 0 {
			t.Fatalf("IDS(%d): %v, want %v", shards, alerts, want)
		}
		if alerts[0] != want[0] {
			t.Fatalf("IDS(%d) alert differs: %+v vs %+v", shards, alerts[0], want[0])
		}
	}
}

// TestChainInto composes a source-less stage chain for a tap sink and
// checks left-to-right order semantics.
func TestChainInto(t *testing.T) {
	var seen []firewall.Record
	sink := Chain().
		Filter(func(r firewall.Record) bool { return r.DstPort == 22 }).
		DaySort().
		Into(Collector(func(r firewall.Record) { seen = append(seen, r) }))

	recs := scanStream(50)
	recs[7].DstPort = 80
	// Shuffle within the day to prove DaySort runs after Filter.
	recs[3], recs[40] = recs[40], recs[3]
	feedBatches(t, sink, recs, 7)
	if len(seen) != 49 {
		t.Fatalf("saw %d records, want 49", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Time.Before(seen[i-1].Time) {
			t.Fatalf("output not sorted at %d", i)
		}
	}
}

// TestRunContextCancel verifies that cancelling RunInto's context
// aborts a batch source and a record-at-a-time producer (SourceFunc)
// with ctx's error while still flushing the chain.
func TestRunContextCancel(t *testing.T) {
	recs := scanStream(10_000)

	t.Run("batch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		sink := &collectSink{}
		// Cancel fires mid-first-batch, so the second batch must never
		// arrive.
		head := tap(func(firewall.Record) {
			if n++; n == 100 {
				cancel()
			}
		}, sink)
		err := From(SliceSource(recs)).RunInto(ctx, head)
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(sink.recs) != DefaultBatchSize {
			t.Fatalf("consumed %d records, want exactly the first batch (%d)", len(sink.recs), DefaultBatchSize)
		}
		if sink.flushes != 1 {
			t.Fatalf("flushes = %d, want 1 (chain must flush on abort)", sink.flushes)
		}
	})

	t.Run("record", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		n, pushed := 0, 0
		sink := &collectSink{}
		// The producer pushes one record at a time; the cancelled run
		// must fail its push of the second batch's last record.
		src := SourceFunc(func(emit func(firewall.Record) error) error {
			for _, r := range recs {
				pushed++
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		})
		err := From(src).RunInto(ctx, tap(func(firewall.Record) {
			if n++; n == 100 {
				cancel()
			}
		}, sink))
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(sink.recs) != DefaultBatchSize || pushed != 2*DefaultBatchSize {
			t.Fatalf("consumed %d records after %d pushes, want %d after %d",
				len(sink.recs), pushed, DefaultBatchSize, 2*DefaultBatchSize)
		}
		if sink.flushes != 1 {
			t.Fatalf("flushes = %d, want 1", sink.flushes)
		}
	})

	t.Run("sharded terminal releases workers", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		sink := NewShardedSink(core.NewShardedDetector(core.DefaultConfig(), 4))
		b := From(SliceSource(recs)).Filter(func(firewall.Record) bool {
			if n++; n == 5000 {
				cancel()
			}
			return true
		})
		// RunInto flushes the sharded sink even though the run
		// aborted, so Finish has run and Result is safe to read.
		if err := b.RunInto(ctx, sink); err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		_ = sink.Result() // must not panic: Flush ran Finish
	})
}

// TestRunIntoAppliesAdvanceEvery pins the builder as the one setter of
// a terminal's cadence: RunInto hands a detector or IDS terminal the
// builder's AdvanceEvery, CheckpointEvery and Instrument settings,
// zero values included, and leaves the restored marks alone.
func TestRunIntoAppliesAdvanceEvery(t *testing.T) {
	recs := scanStream(10)
	dir := t.TempDir()
	met := RegisterMetrics(metrics.NewRegistry())

	sink := NewShardedSink(core.NewShardedDetector(core.DefaultConfig(), 1))
	if err := From(SliceSource(recs)).AdvanceEvery(5*time.Minute).
		CheckpointEvery(time.Hour, dir).Instrument(met).
		RunInto(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	want := cadence{advanceEvery: 5 * time.Minute, checkpointEvery: time.Hour, checkpointDir: dir,
		lastAdvance: recs[0].Time, met: met}
	if sink.cadence != want {
		t.Fatalf("RunInto applied %+v, want %+v", sink.cadence, want)
	}

	ids1 := NewIDSSink(ids.New(ids.DefaultConfig()))
	ids1.setCadence(time.Minute, time.Hour, dir, met)
	mark := recs[0].Time.Add(-time.Hour)
	ids1.setPhase(marks{mark, mark})
	if err := From(SliceSource(recs[:0])).RunInto(context.Background(), ids1); err != nil {
		t.Fatal(err)
	}
	if want := (cadence{lastAdvance: mark, lastCkpt: mark}); ids1.cadence != want {
		t.Fatalf("zero builder settings: sink cadence %+v, want %+v", ids1.cadence, want)
	}
}
