package ids

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/core"
	"v6scan/internal/netaddr6"
)

// TestVerdictFromCachedCount: the sweep's verdict from a candidate's
// cached register count equals Estimate() >= MinDsts for every nonzero
// count a candidate passes through at precisions 4–16 — sparse, dense,
// inside Estimate's O(1) branch and past it — and thresholds at 1, 2,
// the paper's 100, one past the densify cutoff's estimate at the
// default precision (137), the estimate at the end of the O(1) branch
// and one past it, and past the linear-counting range (2.5m).
func TestVerdictFromCachedCount(t *testing.T) {
	for p := uint8(4); p <= 16; p++ {
		m := 1 << p
		maxO1 := m - (m+2)/3 // the largest count Estimate decides in O(1)
		edge := uint64(float64(m)*math.Log(float64(m)/float64(m-maxO1)) + 0.5)
		mins := []uint64{1, 2, 100, 137, edge, edge + 1, uint64(2.5*float64(m)) + 1}
		ths := make([]core.Threshold, len(mins))
		for i, min := range mins {
			ths[i] = core.NewThreshold(p, min)
		}
		addr := func(i uint64) netaddr6.U128 { return netaddr6.U128{Hi: 0x20010db8 << 32, Lo: i} }
		// Materializing the sketch inserts two destinations; start with
		// two that share a register, so the counts begin at 1.
		first := uint64(1)
		for ; ; first++ {
			s := core.NewDstSketch(p)
			s.AddU128(addr(0))
			if s.AddU128(addr(first)); s.Nonzero() == 1 {
				break
			}
		}
		var lv level
		c := candidate{firstDst: addr(0)}
		seen := 0
		for i := first; seen < m; i++ {
			lv.observeDst(&c, addr(i), p)
			n := int(c.regs)
			if n != c.sketch.Nonzero() {
				t.Fatalf("p=%d: cached count %d, sketch %d", p, n, c.sketch.Nonzero())
			}
			if n == seen {
				continue
			}
			if n != seen+1 {
				t.Fatalf("p=%d: count went %d → %d", p, seen, n)
			}
			seen = n
			for j, min := range mins {
				th := &ths[j]
				if _, ok := th.Decide(n); !ok {
					// Past the O(1) branch the sweep asks Estimate itself.
					if n <= maxO1 {
						t.Fatalf("p=%d count %d: undecided inside the O(1) branch", p, n)
					}
					continue
				}
				if got, want := c.reaches(th, min), c.sketch.Estimate() >= min; got != want {
					t.Fatalf("p=%d count %d MinDsts %d: verdict %v, Estimate %d", p, n, min, got, c.sketch.Estimate())
				}
			}
		}
	}
}

// TestVerdictRestoredDense: a restored dense sketch's count is unknown
// until an Estimate runs its full loop, so the restored candidate
// caches −1 and the sweep decides it from Estimate, alerting exactly
// where the engine that wrote the checkpoint does — at a threshold
// equal to the estimate and one above it.
func TestVerdictRestoredDense(t *testing.T) {
	src := netip.MustParseAddr("2001:db8::1")
	for _, p := range []uint8{4, 10, 16} {
		build := func(minDsts int) *Engine {
			e := New(Config{MinDsts: minDsts, SketchPrecision: p, Levels: []netaddr6.AggLevel{netaddr6.Agg128}})
			feed(e, t0, src, 1<<p/2, 0)
			return e
		}
		probe := build(1).Flush()
		if len(probe) != 1 {
			t.Fatalf("p=%d: %d alerts at MinDsts 1", p, len(probe))
		}
		est := probe[0].EstimatedDsts
		for _, minDsts := range []uint64{est, est + 1} {
			e := build(int(minDsts))
			var snap bytes.Buffer
			if err := e.Snapshot(&snap, t0.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			cr, err := checkpoint.NewReader(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			r, err := RestoreEngine(cr, 1)
			if err != nil {
				t.Fatal(err)
			}
			lv := r.g.Shards()[0].levels[0]
			lv.tab.Range(func(_ netaddr6.U128, h uint32) bool {
				if c := lv.tab.At(h); c.regs != -1 {
					t.Errorf("p=%d: restored dense candidate caches count %d, want -1", p, c.regs)
				}
				return true
			})
			want, got := e.Flush(), r.Flush()
			if fmt.Sprint(got) != fmt.Sprint(want) || len(got) != map[bool]int{true: 1, false: 0}[minDsts == est] {
				t.Fatalf("p=%d MinDsts %d (estimate %d): restored alerts %v, writer's %v", p, minDsts, est, got, want)
			}
		}
	}
}

// TestRestoreRejectsForeignPrecision: a candidate sketch at a precision
// other than the engine's would have its cached count read against the
// wrong threshold, so restore refuses it with ErrFormat.
func TestRestoreRejectsForeignPrecision(t *testing.T) {
	e := New(Config{SketchPrecision: 10, Levels: []netaddr6.AggLevel{netaddr6.Agg128}})
	feed(e, t0, netip.MustParseAddr("2001:db8::1"), 5, 0)
	lv := e.g.Shards()[0].levels[0]
	lv.tab.Range(func(_ netaddr6.U128, h uint32) bool {
		foreign := core.NewDstSketch(12)
		foreign.AddU128(netaddr6.U128{Lo: 1})
		lv.tab.At(h).sketch = foreign
		return true
	})
	var snap bytes.Buffer
	if err := e.Snapshot(&snap, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	cr, err := checkpoint.NewReader(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngine(cr, 1); !errors.Is(err, checkpoint.ErrFormat) {
		t.Fatalf("restore of a precision-12 sketch into a precision-10 engine: err = %v, want ErrFormat", err)
	}
}
