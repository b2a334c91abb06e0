package dispatch

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

// logShard records what a Group delivers to it: every record and every
// horizon, in delivery order. fail, when set, is returned by every
// ProcessBatch.
type logShard struct {
	recs     []firewall.Record
	horizons []time.Time
	fail     error
}

func (s *logShard) Advance(h time.Time) { s.horizons = append(s.horizons, h) }

func (s *logShard) ProcessBatch(recs []firewall.Record) error {
	s.recs = append(s.recs, recs...)
	return s.fail
}

var groupLevels = []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, testLevel}

// groupModes are the execution strategies a Group has: one shard
// inline, one shard on a worker, and several workers (whether or not
// the engine asked for a single shard inline).
var groupModes = []struct {
	n      int
	inline bool
}{{1, true}, {1, false}, {3, false}, {3, true}}

func newLogGroup(n int, inline bool) *Group[*logShard] {
	return NewGroup(n, groupLevels, inline, func() *logShard { return new(logShard) })
}

// TestGroupHorizonNotBeforeLatestRecord checks that the horizon every
// shard receives is max(now, latest dispatched record), even when that
// record went to another shard or now lags it.
func TestGroupHorizonNotBeforeLatestRecord(t *testing.T) {
	for _, m := range groupModes {
		t.Run(fmt.Sprintf("n=%d,inline=%v", m.n, m.inline), func(t *testing.T) {
			g := newLogGroup(m.n, m.inline)
			defer g.Close()
			recs := testRecords(3000, 1)
			// Swap a late record to the front of each batch, so the
			// latest record is not the last one dispatched.
			var want []time.Time
			var latest time.Time
			for i := 0; i < len(recs); i += 500 {
				batch := recs[i : i+500]
				batch[0], batch[len(batch)-1] = batch[len(batch)-1], batch[0]
				if err := g.ProcessBatch(batch); err != nil {
					t.Fatal(err)
				}
				latest = batch[0].Time
				now := latest.Add(-time.Minute) // a lagging clock
				if i%1000 == 0 {
					now = latest.Add(time.Minute)
				}
				if err := g.Advance(now); err != nil {
					t.Fatal(err)
				}
				if latest.After(now) {
					now = latest
				}
				want = append(want, now)
			}
			if err := g.Sync(); err != nil {
				t.Fatal(err)
			}
			for i, s := range g.Shards() {
				if len(s.horizons) != len(want) {
					t.Fatalf("shard %d got %d horizons, want %d", i, len(s.horizons), len(want))
				}
				for k, h := range s.horizons {
					if !h.Equal(want[k]) {
						t.Fatalf("shard %d horizon %d = %v, want %v", i, k, h, want[k])
					}
				}
			}
		})
	}
}

// TestGroupSyncSeesEveryBatch checks that after Sync the calling
// goroutine reads every record dispatched before it (under -race this
// also checks the happens-before edge).
func TestGroupSyncSeesEveryBatch(t *testing.T) {
	for _, m := range groupModes {
		t.Run(fmt.Sprintf("n=%d,inline=%v", m.n, m.inline), func(t *testing.T) {
			g := newLogGroup(m.n, m.inline)
			defer g.Close()
			recs := testRecords(2000, 2)
			for i := 0; i < len(recs); i += 100 {
				if err := g.ProcessBatch(recs[i : i+100]); err != nil {
					t.Fatal(err)
				}
				if err := g.Sync(); err != nil {
					t.Fatal(err)
				}
				got := 0
				for _, s := range g.Shards() {
					got += len(s.recs)
				}
				if got != i+100 {
					t.Fatalf("after %d records Sync sees %d", i+100, got)
				}
			}
		})
	}
}

// TestGroupShardFor checks that ShardFor places a source, and its
// aggregate at every level, on the shard ProcessBatch routed the
// source's records to — the placement a restore relies on.
func TestGroupShardFor(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		g := newLogGroup(n, false)
		if err := g.ProcessBatch(testRecords(4000, 3)); err != nil {
			t.Fatal(err)
		}
		if err := g.Sync(); err != nil {
			t.Fatal(err)
		}
		for i, s := range g.Shards() {
			for _, r := range s.recs {
				src := netaddr6.ToU128(r.Src)
				for _, l := range groupLevels {
					if got := g.ShardFor(src.Mask(int(l))); got != i {
						t.Fatalf("n=%d: %v at %v: ShardFor = %d, records went to %d", n, r.Src, l, got, i)
					}
				}
			}
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupClose checks that Close is idempotent, re-reports the first
// shard error, turns later use into ErrClosed, and stops the workers of
// a group abandoned before it ran — the path of a failed restore, which
// places state with ShardFor and then gives the group up (the package's
// TestMain fails on the leaked workers).
func TestGroupClose(t *testing.T) {
	for _, m := range groupModes {
		t.Run(fmt.Sprintf("n=%d,inline=%v", m.n, m.inline), func(t *testing.T) {
			restored := newLogGroup(m.n, m.inline)
			for _, r := range testRecords(10, 4) {
				s := restored.Shards()[restored.ShardFor(netaddr6.ToU128(r.Src))]
				s.recs = append(s.recs, r)
			}
			for range 2 {
				if err := restored.Close(); err != nil {
					t.Fatalf("Close of an unused group = %v", err)
				}
			}

			boom := errors.New("boom")
			g := NewGroup(m.n, groupLevels, m.inline, func() *logShard { return &logShard{fail: boom} })
			// Inline the error returns at once; from workers it is sticky
			// and every Close re-reports it.
			inline := g.disp == nil
			if err := g.ProcessBatch(testRecords(10, 5)); inline && !errors.Is(err, boom) {
				t.Fatalf("inline ProcessBatch = %v, want the shard error", err)
			}
			for range 2 {
				if err := g.Close(); !inline && !errors.Is(err, boom) {
					t.Fatalf("Close = %v, want the shard error", err)
				}
			}
			if err := g.ProcessBatch(testRecords(1, 6)); !errors.Is(err, ErrClosed) {
				t.Fatalf("ProcessBatch after Close = %v, want ErrClosed", err)
			}
			if err := g.Advance(time.Now()); !errors.Is(err, ErrClosed) {
				t.Fatalf("Advance after Close = %v, want ErrClosed", err)
			}
			if err := g.Sync(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Sync after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestGroupInlineStartsNoGoroutine checks that a single inline shard
// runs on the caller's goroutine: no dispatcher, no goroutine, and its
// state is current as soon as ProcessBatch returns.
func TestGroupInlineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	g := newLogGroup(1, true)
	if g.disp != nil {
		t.Fatal("inline group built a dispatcher")
	}
	if err := g.ProcessBatch(testRecords(100, 7)); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d → %d in inline mode", before, after)
	}
	if s := g.Shards()[0]; len(s.recs) != 100 || len(s.horizons) != 1 {
		t.Fatalf("inline shard holds %d records, %d horizons right after the calls", len(s.recs), len(s.horizons))
	}
	if g.QueueDepth() != 0 {
		t.Fatal("inline QueueDepth is not 0")
	}
	g.Close()
}
