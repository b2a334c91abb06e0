package main

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"v6scan/internal/firewall"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same inputs.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 8, 9, 3, 7, 6, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{4, 4, 4, 4}, 4, 4, 4},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3, err := quartiles(c.xs)
		if err != nil || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, err, c.q1, c.q3)
		}
		if !reflect.DeepEqual(in, c.xs) {
			t.Errorf("input reordered: %v", c.xs)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
	if got := spread([]float64{5, 1, 4, 2, 8, 9, 3, 7, 6, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25−2.75)/5.5 = 1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing: want NaN")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	if v, err := percentile(seq(200), 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with 10 beyond", v, err)
	}
	if _, err := percentile(seq(199), 0.95); err == nil {
		t.Error("p95 of 199 samples leaves 9 beyond: want an error")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples leaves 9 beyond: want an error")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of nothing: want an error")
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "ids.process", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "dispatch.barrier", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 2, Name: "u128idx.probe", Start: 15, End: 20},    // nested in 2
		{ID: 5, Parent: 2, Name: "u128idx.probe", Start: 18, End: 25},    // overlaps 4
		{ID: 6, Parent: 1, Name: "bench.format", Start: 90, End: 95},
		{ID: 7, Parent: 3, Name: "ids.tick", Start: 55, End: 70}, // runs past its parent
		{ID: 8, Name: "u128idx.replay", Start: 100, End: 200},    // outside the root
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 55, 2: 30 - 10, 3: 30 - 5, 4: 5, 5: 7, 6: 5, 7: 15, 8: 100}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	rep := summarize(spans, 1)
	if rep.WallNS != 100 {
		t.Errorf("wall = %d", rep.WallNS)
	}
	wantSelf := map[string]int64{"ids": 20 + 15, "dispatch": 25, "u128idx": 12}
	if !reflect.DeepEqual(rep.SelfNS, wantSelf) {
		t.Errorf("layer self = %v, want %v", rep.SelfNS, wantSelf)
	}
	// Layer spans cover [10, 70] of the root; bench.format is not a
	// layer, so 40 of 100 ns are unattributed.
	if math.Abs(rep.UnattributedShare-0.4) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.4", rep.UnattributedShare)
	}
	if got := rep.SelfShare["dispatch"]; math.Abs(got-25.0/72) > 1e-12 {
		t.Errorf("dispatch share = %v", got)
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("run", 0)
	tr.do("core.process", root, func() {})
	open := tr.begin("ids.tick", root) // never closed: not reported
	_ = open
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 || got[0].Name != "run" || got[1].Parent != root || got[1].End < got[1].Start {
		t.Errorf("spans = %+v", got)
	}
	var none *tracer
	none.end(none.begin("x", 0)) // a nil tracer records nothing
}

func TestDueIndexFollowsTickCadence(t *testing.T) {
	base := time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC)
	secs := []int{0, 30, 60, 61, 125, 200, 230, 260, 400}
	times := make([]time.Time, len(secs))
	for i, s := range secs {
		times[i] = base.Add(time.Duration(s) * time.Second)
	}
	// By hand, with a one-minute cadence: 0 arms the mark; 60 fires
	// (60−0 ≥ 60); 61 does not; 125 fires (65); 200 fires (75); 230
	// does not (30); 260 fires (60); 400 fires (140).
	tk := ticks(times, time.Minute)
	if want := []int{2, 4, 5, 7, 8}; !reflect.DeepEqual(tk, want) {
		t.Fatalf("ticks = %v, want %v", tk, want)
	}
	// An alert is due at the first tick more than the timeout after the
	// candidate's last record.
	timeout := 100 * time.Second
	for _, c := range []struct{ last, want int }{
		{0, 4},    // 125 − 0 > 100
		{25, 5},   // 125 − 25 = 100 is not more; 200 − 25 is
		{30, 5},   // 200 − 30 = 170
		{160, 8},  // 260 − 160 = 100 is not more; 400 − 160 is
		{300, -1}, // 400 − 300 = 100: only the final flush would evict
	} {
		if got := dueIndex(times, tk, base.Add(time.Duration(c.last)*time.Second), timeout); got != c.want {
			t.Errorf("last %ds: due at record %d, want %d", c.last, got, c.want)
		}
	}
}

func TestSealAtLeavesOneTickingRecord(t *testing.T) {
	base := time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC)
	var recs []firewall.Record
	for s := 0; s < 600; s += 10 {
		recs = append(recs, firewall.Record{Time: base.Add(time.Duration(s) * time.Second)})
	}
	end := base.Add(5 * time.Minute)
	out := sealAt(recs, end)
	var before []time.Time
	for _, r := range out {
		if r.Time.Before(end) && !r.Time.Before(end.Add(-3*time.Minute)) {
			before = append(before, r.Time)
		}
	}
	if len(before) != 1 || !before[0].Equal(end.Add(-time.Minute)) {
		t.Fatalf("records in the last three minutes before the cut: %v", before)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Time.Before(out[i-1].Time) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestLiveChunksFollowSchedule(t *testing.T) {
	start := time.Date(2021, 5, 20, 9, 0, 0, 0, time.UTC)
	step := chunkWall * compression
	times := []time.Time{start, start.Add(step / 2), start.Add(step), start.Add(3*step + 1)}
	got := liveChunks(times, start)
	want := []liveChunk{{0, 2, 0}, {2, 3, chunkWall}, {3, 4, 3 * chunkWall}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chunks = %v, want %v", got, want)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	in := result{Correct: true, Attempted: 12, Failed: 0, Metrics: map[string]metric{
		"setup_s":       {0.0123456789, "s"},
		"records_per_s": {512345.678901, "records/s"},
	}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	if len(names) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result keys = %v", names)
	}
	if !strings.Contains(string(b), `"value":0.0123456789`) {
		t.Errorf("values lose digits: %s", b)
	}
	var out result
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
}

func TestSSEAlertLineMatchesCLI(t *testing.T) {
	body := "retry: 2000\n\nid: 0\nevent: alert\ndata: " +
		`{"seq":0,"prefix":"2400::1/128","level":"/128","estimated_dsts":150,"packets":151,` +
		`"first":"2021-05-20T00:05:29Z","last":"2021-05-20T00:34:16Z"}` + "\n\n" +
		"id: 1\nevent: alert\ndata: " +
		`{"seq":1,"prefix":"2600:1:2::/48","level":"/48","estimated_dsts":180,"packets":200,` +
		`"first":"2021-05-20T01:00:00Z","last":"2021-05-20T01:20:00Z","escalated":true}` + "\n\n"
	var got []string
	if err := readSSE(strings.NewReader(body), func(a sseAlert) { got = append(got, a.line()) }); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"scan from 2400::1/128 [/128]: ≈150 dsts, 151 packets, 2021-05-20T00:05:29Z–2021-05-20T00:34:16Z",
		"scan from 2600:1:2::/48 [/48]: ≈180 dsts, 200 packets, 2021-05-20T01:00:00Z–2021-05-20T01:20:00Z (escalated: spread-source entity)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lines = %q", got)
	}
	for _, l := range want {
		if !alertLine.MatchString("  " + l) {
			t.Errorf("reference pattern does not match %q", l)
		}
	}
}

func TestCalibrationScaling(t *testing.T) {
	ref, refCPU := calibRefWall.Seconds(), calibRefCPU.Seconds()
	cal := &calibrated{wall: []float64{ref}, cpu: []float64{refCPU}}
	cal.record(ref, refCPU)     // reference host: factor 1
	cal.record(3*ref, 2*refCPU) // mean of 1× and 3× wall, 1× and 2× CPU
	cal.record(ref, 2*refCPU)   // mean of 3× and 1×; 2× and 2×
	want := [][2]float64{{1, 1}, {2, 1.5}, {2, 2}}
	for i, w := range want {
		if math.Abs(cal.kWall[i]-w[0]) > 1e-9 || math.Abs(cal.kCPU[i]-w[1]) > 1e-9 {
			t.Errorf("sample %d: factors %v, %v; want %v", i, cal.kWall[i], cal.kCPU[i], w)
		}
	}
	if len(cal.wall) != 4 || len(cal.cpu) != 4 {
		t.Errorf("calibrations not kept: %v %v", cal.wall, cal.cpu)
	}
}
