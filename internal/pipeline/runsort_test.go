package pipeline

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// sortRecs builds a workload with duplicate timestamps (SrcPort is the
// arrival index, so stability violations are observable).
func sortRecs(n int, disorder func(i int) time.Duration) []firewall.Record {
	t0 := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, firewall.Record{
			Time:    t0.Add(disorder(i)),
			Src:     netaddr6.MustAddr("2001:db8::1"),
			Dst:     netaddr6.MustAddr("2001:db8:f::1"),
			Proto:   layers.ProtoTCP,
			SrcPort: uint16(i),
			DstPort: 22,
			Length:  60,
		})
	}
	return recs
}

func TestSortByTime(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := map[string]func(i int) time.Duration{
		"sorted":     func(i int) time.Duration { return time.Duration(i) * time.Second },
		"reversed":   func(i int) time.Duration { return time.Duration(-i) * time.Second },
		"random":     func(i int) time.Duration { return time.Duration(rng.Intn(1000)) * time.Second },
		"duplicates": func(i int) time.Duration { return time.Duration(i%7) * time.Second },
		"tail-late": func(i int) time.Duration {
			if i == 999 {
				return 0 // one record belongs at the front
			}
			return time.Duration(i) * time.Second
		},
		"two-streams": func(i int) time.Duration {
			// Interleaved halves of two sorted streams — many short runs.
			return time.Duration(i/2) * time.Second
		},
	}
	for name, disorder := range cases {
		t.Run(name, func(t *testing.T) {
			recs := sortRecs(1000, disorder)
			want := append([]firewall.Record(nil), recs...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
			SortByTime(recs)
			if !reflect.DeepEqual(recs, want) {
				t.Fatal("SortByTime differs from sort.SliceStable (order or stability broken)")
			}
		})
	}
}

// TestSortByTimeNoWorkWhenSorted pins the fast path: sorted input must
// not allocate (the scan finds a single run and returns).
func TestSortByTimeNoWorkWhenSorted(t *testing.T) {
	recs := sortRecs(10_000, func(i int) time.Duration { return time.Duration(i) * time.Millisecond })
	allocs := testing.AllocsPerRun(10, func() { SortByTime(recs) })
	if allocs > 1 { // the bounds slice's first append may allocate once
		t.Fatalf("SortByTime on sorted input allocated %.0f times per run", allocs)
	}
}

// TestDaySortRunAware verifies the rewritten DaySort still matches the
// sort.SliceStable contract per day, one record per batch and in
// 64-record batches, for in-order and disordered days.
func TestDaySortRunAware(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	t0 := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	var recs []firewall.Record
	for day := 0; day < 3; day++ {
		base := t0.Add(time.Duration(day) * 24 * time.Hour)
		for i := 0; i < 500; i++ {
			off := time.Duration(i) * time.Second
			if day == 1 { // middle day arrives shuffled
				off = time.Duration(rng.Intn(86_400)) * time.Second
			}
			recs = append(recs, firewall.Record{
				Time: base.Add(off), Src: netaddr6.MustAddr("2001:db8::1"),
				Dst: netaddr6.MustAddr("2001:db8:f::1"), Proto: layers.ProtoTCP,
				SrcPort: uint16(i), DstPort: 22, Length: 60,
			})
		}
	}
	want := daySorted(recs)
	for name, n := range map[string]int{"record": 1, "batch": 64} {
		t.Run(name, func(t *testing.T) {
			var got []firewall.Record
			feedBatches(t, NewDaySort(Collector(func(r firewall.Record) { got = append(got, r) })), recs, n)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("DaySort output differs from per-day sort.SliceStable")
			}
		})
	}
}

// TestBatchRetentionUnsafe codifies the batch-ownership rule of the
// package doc from the consumer side: an emitted batch slice is valid
// only during ConsumeBatch — a sink that retains it observes the
// producer refill the backing array on later batches, while a sink
// that copies keeps a faithful view. (If this test ever "fails"
// because retention became safe, the pooled-buffer contract — and the
// allocation-flat ingest path built on it — has silently changed.)
func TestBatchRetentionUnsafe(t *testing.T) {
	var log bytes.Buffer
	w := firewall.NewWriter(&log)
	t0 := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 8; i++ {
		if err := w.Write(firewall.Record{
			Time: t0.Add(time.Duration(i) * time.Second),
			Src:  netaddr6.MustAddr("2001:db8::1"), Dst: netaddr6.MustAddr("2001:db8:f::1"),
			Proto: layers.ProtoTCP, SrcPort: uint16(i), DstPort: 22, Length: 60,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var retained, copied []firewall.Record
	src := NewLogSource(bytes.NewReader(log.Bytes()))
	err := src.EmitBatch(4, func(recs []firewall.Record) error {
		if retained == nil {
			retained = recs // illegal: aliases the pooled buffer
			copied = append([]firewall.Record(nil), recs...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(retained) != 4 || len(copied) != 4 {
		t.Fatalf("retained %d / copied %d records, want 4", len(retained), len(copied))
	}
	if reflect.DeepEqual(retained, copied) {
		t.Fatal("retained batch survived later emissions; the source no longer reuses its pooled buffer and the ownership contract in the package doc is stale")
	}
	if retained[0].SrcPort != 4 {
		t.Fatalf("retained slice shows SrcPort %d, want 4 (the refilled second chunk)", retained[0].SrcPort)
	}
}
