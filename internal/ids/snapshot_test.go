package ids

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/netaddr6"
)

// TestRestoreRejectsZeroPackets: a cut holding a candidate without
// packets is malformed — every live candidate has at least one, and
// ingestRun reads a hinted candidate's packets as its liveness — so
// restore rejects it with checkpoint.ErrFormat at any shard count. The
// cut is crafted by zeroing one candidate's packets before Snapshot;
// the same cut with the packets kept restores.
func TestRestoreRejectsZeroPackets(t *testing.T) {
	for _, zero := range []bool{false, true} {
		e := New(DefaultConfig())
		feed(e, t0, netaddr6.MustAddr("2001:db8:bad0::1"), 3, 0)
		if zero {
			lv := e.g.Shards()[0].levels[1] // the /64
			lv.tab.Range(func(_ netaddr6.U128, h uint32) bool {
				lv.tab.At(h).packets = 0
				return true
			})
		}
		snap := snapshot(t, e, t0.Add(time.Hour))
		e.Flush()
		for _, shards := range []int{1, 3} {
			cr, err := checkpoint.NewReader(bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			r, err := RestoreEngine(cr, shards)
			if !zero {
				if err != nil {
					t.Fatalf("%d shards: restore of an intact cut: %v", shards, err)
				}
				r.Flush()
				continue
			}
			if !errors.Is(err, checkpoint.ErrFormat) {
				t.Fatalf("%d shards: restore of a zero-packet candidate: %v, want ErrFormat", shards, err)
			}
		}
	}
}
