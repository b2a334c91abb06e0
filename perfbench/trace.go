package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: name is "<layer>.<operation>",
// where the layer is a package of the program under test (firewall,
// pipeline, dispatch, u128idx, core, ids, checkpoint, events, bus,
// serve). Names starting "bench." are the benchmark's own work and
// belong to no layer. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Safe for use from
// several goroutines. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) writeJSON(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerOf names the layer a span belongs to, or "" for the
// benchmark's own spans and the root.
func layerOf(name string) string {
	layer, _, ok := strings.Cut(name, ".")
	if !ok || layer == "bench" {
		return ""
	}
	return layer
}

type interval struct{ lo, hi int64 }

// coveredLen is the length of the union of ivs clipped to [lo, hi].
// Intervals may nest or overlap (spans from concurrent goroutines).
func coveredLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y interval) int {
		switch {
		case x.lo < y.lo:
			return -1
		case x.lo > y.lo:
			return 1
		}
		return 0
	})
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv.lo, iv.hi, true
		case iv.lo <= curHi:
			curHi = max(curHi, iv.hi)
		default:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's duration minus the part of it its
// child spans cover, keyed by span id.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - coveredLen(children[s.ID], s.Start, s.End)
	}
	return out
}

// layerReport summarises the spans under root: self time per layer,
// each layer's share of the summed self time, and the share of the
// root's wall covered by no layer span.
type layerReport struct {
	WallNS            int64              `json:"wall_ns"`
	SelfNS            map[string]int64   `json:"self_ns"`
	SelfShare         map[string]float64 `json:"self_share"`
	UnattributedShare float64            `json:"unattributed_share"`
}

func summarize(spans []span, root int) layerReport {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	under := func(s span) bool {
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if p == root {
				return true
			}
		}
		return false
	}
	r := byID[root]
	rep := layerReport{WallNS: r.End - r.Start, SelfNS: map[string]int64{}, SelfShare: map[string]float64{}}
	self := selfTimes(spans)
	var layered []interval
	var total int64
	for _, s := range spans {
		l := layerOf(s.Name)
		if l == "" || !under(s) {
			continue
		}
		rep.SelfNS[l] += self[s.ID]
		total += self[s.ID]
		layered = append(layered, interval{s.Start, s.End})
	}
	for l, ns := range rep.SelfNS {
		rep.SelfShare[l] = float64(ns) / float64(max(total, 1))
	}
	if rep.WallNS > 0 {
		rep.UnattributedShare = 1 - float64(coveredLen(layered, r.Start, r.End))/float64(rep.WallNS)
	}
	return rep
}
