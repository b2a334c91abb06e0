package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"v6scan/internal/bus"
	"v6scan/internal/core"
	"v6scan/internal/dispatch"
	"v6scan/internal/events"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pcap"
)

// The invariance harness: every execution strategy of the detector and
// the IDS computes the same function of the record stream. One seeded
// tape runs through strategy rows that each vary one axis — the source
// (a slice, a log file decoded by one or three workers, two merged
// day-files, a jittered pcap through WindowSort, two publishers over
// the bus), the shard count, the batch size, a kill and a resume at
// another shard count — under each cadence, and every row's rendered
// result and checkpoint files (name and sha256) must equal one
// baseline per engine and cadence:
//
//   - detector: a plain core.Detector fed one record at a time, every
//     Scan field and Dropped rendered per level. Advancing never
//     changes scans, so the cadence changes only the files.
//   - IDS: the one-shard engine behind IDSSink at batch 1, rendering
//     the alerts drained at each fire point, the final flush and
//     DroppedCandidates. Its tick cadence is semantic.
//
// The checkpoint files of the batch-1 row are the baseline's. The
// cap-pressure engine (a small MaxCandidates) varies every axis but the
// shard count, because the bound applies per shard. The filtered
// detector runs the artifact stage in front of the detector sink, and
// its baseline is the plain detector fed artifactRef's survivors.

// invJitter bounds the pcap row's timestamp disorder; its WindowSort
// runs at this window.
const invJitter = 2 * time.Second

// invCadence is one AdvanceEvery/CheckpointEvery setting. A source
// hands the sink the same record sequence under any cadence, so the
// source rows run under one cadence, the one with sources set. A
// cadence with spelled set is shorthand for that setting: its baseline
// result and files must equal the baseline run under spelled.
type invCadence struct {
	name          string
	advance, ckpt time.Duration
	sources       bool
	spelled       *invCadence
}

var invCadences = []invCadence{
	{name: "flush"},
	{name: "tick", advance: 30 * time.Second, ckpt: 2 * time.Minute, sources: true},
	// A checkpoint cadence alone is the eviction cadence too. Its first
	// fire only arms the checkpoint mark, so the cadence is shorter
	// than the tape's 125-second stretches between lulls.
	{name: "ckpt-only", ckpt: 2 * time.Minute,
		spelled: &invCadence{advance: 2 * time.Minute, ckpt: 2 * time.Minute}},
}

// invRow is one execution strategy. resume > 0 kills a run at shards
// partway into the tape and resumes its latest checkpoint at resume
// shards (rows with a checkpoint cadence only).
type invRow struct {
	name    string
	src     string // slice, files, days, pcap or bus
	shards  int
	batch   int // slice source batch size; 0 is DefaultBatchSize
	workers int // files source decode workers
	resume  int
}

// invRows returns the strategy rows; capped engines keep one shard.
func invRows(capped bool) []invRow {
	rows := []invRow{
		{name: "batch=1", src: "slice", shards: 1, batch: 1},
		{name: "batch=7", src: "slice", shards: 1, batch: 7},
		{name: "batch=64", src: "slice", shards: 1, batch: 64},
		{name: "batch=4096", src: "slice", shards: 1, batch: 4096},
		{name: "files/workers=1", src: "files", shards: 1, workers: 1},
		{name: "files/workers=3", src: "files", shards: 1, workers: 3},
		{name: "day-files", src: "days", shards: 1},
		{name: "pcap+WindowSort", src: "pcap", shards: 1},
		{name: "bus/shards=1", src: "bus", shards: 1},
	}
	if capped {
		return append(rows, invRow{name: "resume/1to1", src: "slice", shards: 1, resume: 1})
	}
	return append(rows,
		invRow{name: "shards=2", src: "slice", shards: 2},
		invRow{name: "shards=8", src: "slice", shards: 8},
		invRow{name: "bus/shards=2", src: "bus", shards: 2},
		invRow{name: "bus/shards=8", src: "bus", shards: 8},
		invRow{name: "resume/4to2", src: "slice", shards: 4, resume: 2},
		invRow{name: "resume/1to8", src: "slice", shards: 1, resume: 8},
	)
}

// invTape synthesizes the tape, from 21:00 UTC into the next day:
// sources spread over /32s, /48s, /64s and /128s (so activity reaches
// every level, and finer levels stay below threshold where coarser
// ones scan), one heavy /128 scanner, a /64-spread actor that goes
// quiet early (so a tick evicts and alerts on it mid-stream), one-shot
// sources in a fresh /48 each (sessions that never qualify), lulls
// longer than the timeout, a /64 that retries one destination all day
// (so the artifact filter drops it on both days), and TCP and UDP
// probes of four lengths each.
// arrival is the tape with each timestamp pulled back by up to
// invJitter, in generation order; tape is arrival stably sorted.
func invTape(n int) (tape, arrival []firewall.Record) {
	rng := rand.New(rand.NewSource(23))
	base := netaddr6.MustPrefix("2001:d00::/24")
	dsts := netaddr6.MustPrefix("2001:db8:f000::/44")
	churn := netaddr6.MustPrefix("2600::/24")
	heavy := netaddr6.MustAddr("2001:d42:1:1::bad")
	burst64 := netaddr6.MustPrefix("2001:d77:7:7::/64")
	repeater, repeatDst := netaddr6.MustAddr("2001:d99:9:9::25"), netaddr6.MustAddr("2001:db8:f000::25")
	ts := time.Date(2021, 6, 1, 21, 0, 0, 0, time.UTC)
	for i := range n {
		src := heavy
		switch {
		case i < n/8 && i%37 == 5:
			src = netaddr6.WithIID(burst64.Addr(), uint64(1+i%23))
		case i%41 == 20:
			src = repeater
		case i%17 == 8:
			src = netaddr6.WithIID(netaddr6.NthSubprefix(churn, 48, uint64(i)).Addr(), 1)
		case i%11 != 0:
			p32 := netaddr6.NthSubprefix(base, 32, uint64(i%13))
			p48 := netaddr6.NthSubprefix(p32, 48, uint64(i%7))
			p64 := netaddr6.NthSubprefix(p48, 64, uint64(i%5))
			src = netaddr6.WithIID(p64.Addr(), uint64(1+i%9))
		}
		proto, length := layers.ProtoTCP, uint16(60+i%4)
		if i%7 == 3 {
			proto, length = layers.ProtoUDP, uint16(48+i%4)
		}
		r := firewall.Record{
			Time:    ts.Add(-time.Duration(rng.Int63n(int64(invJitter) + 1))),
			Src:     src,
			Dst:     netaddr6.RandomAddrIn(dsts, rng),
			Proto:   proto,
			SrcPort: uint16(40000 + i%1000),
			DstPort: uint16(1 + i%512),
			Length:  length,
		}
		if src == repeater {
			r.Dst, r.DstPort = repeatDst, 25
		}
		arrival = append(arrival, r)
		ts = ts.Add(50 * time.Millisecond)
		if i%(n/4) == n/4-1 {
			ts = ts.Add(2 * time.Hour) // a lull above the timeout
		}
	}
	return stableByTime(arrival), arrival
}

// invHarness holds the tape in every encoding a source row reads.
type invHarness struct {
	tape         []firewall.Record
	log          string   // the tape as one binary log
	days         []string // the tape as one log per UTC day
	capture      []byte   // the arrival order as an Ethernet pcap
	detCfg       core.Config
	idsCfg       ids.Config
	cappedIDSCfg ids.Config
}

func newInvHarness(t *testing.T) *invHarness {
	tape, arrival := invTape(10_000)
	h := &invHarness{
		tape: tape,
		detCfg: core.Config{
			MinDsts:   10,
			Timeout:   2 * time.Minute,
			Levels:    []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48},
			TrackDsts: true,
			WeekEpoch: time.Date(2021, 5, 24, 0, 0, 0, 0, time.UTC),
		},
		idsCfg: ids.Config{
			MinDsts: 20,
			Timeout: 2 * time.Minute,
			Levels:  []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48, netaddr6.Agg32},
		},
	}
	h.cappedIDSCfg = h.idsCfg
	h.cappedIDSCfg.MaxCandidates = 100

	dir := t.TempDir()
	write := func(name string, recs []firewall.Record) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, encodeLog(t, recs), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h.log = write("tape.log", tape)
	day := func(r firewall.Record) bool { return r.Time.Day() == tape[0].Time.Day() }
	split := slices.IndexFunc(tape, func(r firewall.Record) bool { return !day(r) })
	h.days = []string{write("day1.log", tape[:split]), write("day2.log", tape[split:])}

	var capture bytes.Buffer
	pw := pcap.NewWriter(&capture, pcap.WriterOptions{Nanosecond: true})
	for _, r := range arrival {
		opt := layers.BuildOptions{Link: layers.LinkTypeEthernet, PayloadLen: int(r.Length) - 60}
		build := layers.BuildTCPSYN
		if r.Proto == layers.ProtoUDP {
			opt.PayloadLen, build = int(r.Length)-48, layers.BuildUDPProbe
		}
		frame, err := build(r.Src, r.Dst, r.SrcPort, r.DstPort, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WritePacket(r.Time, frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	h.capture = capture.Bytes()
	return h
}

// invEngine is one engine under test: how to start it, how to render
// what it produced, and its baseline.
type invEngine struct {
	name   string
	rows   []invRow
	levels []netaddr6.AggLevel
	fresh  func(shards int) RecordSink
	// wrap makes a terminal of s; a resumed s continues prior's output
	// from mark on.
	wrap func(s RecordSink, prior *invTerminal, mark time.Time) *invTerminal
	// reference, when set, renders the baseline result; otherwise the
	// batch-1 row is the baseline.
	reference func(t *testing.T) string
	// vacuous reports why a baseline proves nothing, or "".
	vacuous func(out string, c invCadence) string
	// filter puts the artifact stage in front of the terminal.
	filter bool
}

// invTerminal is a terminal sink and the renderer of its result.
type invTerminal struct {
	sink   RecordSink
	drains *drainHook // IDS only
	render func() string
}

func (h *invHarness) engines() []*invEngine {
	det := &invEngine{
		name:   "detector",
		rows:   invRows(false),
		levels: h.detCfg.Levels,
		fresh:  func(n int) RecordSink { return NewShardedSink(core.NewShardedDetector(h.detCfg, n)) },
		wrap: func(s RecordSink, _ *invTerminal, _ time.Time) *invTerminal {
			return &invTerminal{sink: s, render: func() string { return renderScans(s.(*ShardedSink).Result()) }}
		},
		reference: func(t *testing.T) string { return h.detect(t, h.tape) },
		vacuous: func(out string, _ invCadence) string {
			for _, level := range strings.Split(out, "level ")[1:] {
				if strings.Count(level, "\n") < 2 || strings.Contains(level, " dropped=0\n") {
					return "a level without scans or without dropped sessions: " + level[:strings.Index(level, "\n")]
				}
			}
			return ""
		},
	}
	filtered := *det
	filtered.name, filtered.filter = "detector+filter", true
	filtered.rows = []invRow{
		{name: "batch=1", src: "slice", shards: 1, batch: 1},
		{name: "batch=7", src: "slice", shards: 1, batch: 7},
		{name: "batch=4096", src: "slice", shards: 1, batch: 4096},
		{name: "files/workers=3", src: "files", shards: 1, workers: 3},
		{name: "shards=2", src: "slice", shards: 2},
		{name: "shards=8", src: "slice", shards: 8},
	}
	filtered.reference = func(t *testing.T) string {
		survivors, _ := artifactRef(h.tape)
		return h.detect(t, survivors)
	}
	filtered.vacuous = func(out string, c invCadence) string {
		first, last := h.tape[0].Time.UTC(), h.tape[len(h.tape)-1].Time.UTC()
		switch _, st := artifactRef(h.tape); {
		case st.SourcesDropped == 0:
			return "the artifact filter drops no source /64"
		case first.YearDay() == last.YearDay():
			return "no UTC day boundary inside the tape"
		}
		return det.vacuous(out, c)
	}
	idsEngine := func(name string, cfg ids.Config) *invEngine {
		return &invEngine{
			name:   name,
			rows:   invRows(cfg.MaxCandidates > 0),
			levels: cfg.Levels,
			fresh:  func(n int) RecordSink { return NewIDSSink(ids.NewSharded(cfg, n)) },
			wrap:   wrapIDS,
			vacuous: func(out string, c invCadence) string {
				levels := map[string]bool{}
				for _, line := range strings.Split(out, "\n") {
					if f := strings.Fields(line); len(f) > 2 && strings.HasPrefix(f[2], "est=") {
						levels[f[1]] = true
					}
				}
				switch {
				case len(levels) < 2:
					return fmt.Sprintf("alerts at %d levels", len(levels))
				case !strings.Contains(out, "esc=true"):
					return "no escalated alert"
				case c.advance > 0 && !strings.Contains(out[:strings.Index(out, "flush\n")], "esc="):
					return "no alert drained mid-stream"
				case (cfg.MaxCandidates > 0) == strings.HasSuffix(out, "dropped 0\n"):
					return "drops do not follow the cap"
				}
				return ""
			},
		}
	}
	return []*invEngine{det, &filtered, idsEngine("ids", h.idsCfg), idsEngine("ids-capped", h.cappedIDSCfg)}
}

// detect is the plain detector fed recs one record at a time.
func (h *invHarness) detect(t *testing.T, recs []firewall.Record) string {
	t.Helper()
	d := core.NewDetector(h.detCfg)
	for _, r := range recs {
		if err := d.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	d.Finish()
	return renderScans(d)
}

// renderScans renders every Scan field and the dropped-session count
// per level.
func renderScans(d *core.Detector) string {
	var b strings.Builder
	for _, l := range d.Config().Levels {
		fmt.Fprintf(&b, "level %v dropped=%d\n", l, d.Dropped(l))
		for _, s := range d.Scans(l) {
			fmt.Fprintf(&b, "%v %v %v %v pk=%d dsts=%d srcs=%d ent=%.9f ports",
				s.Source, s.Level, s.Start.UnixNano(), s.End.UnixNano(),
				s.Packets, s.Dsts, s.SrcAddrs, s.LenEntropy)
			for _, p := range s.Ports {
				fmt.Fprintf(&b, " %v=%d", p.Service, p.Packets)
			}
			for _, w := range s.WeekPackets {
				fmt.Fprintf(&b, " w%d=%d", w.Week, w.Packets)
			}
			for _, a := range s.DstAddrs {
				fmt.Fprintf(&b, " %v", a)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// wrapIDS attaches a drain hook to an IDS sink. A resumed sink keeps
// the killed run's drains before mark; the drain at mark came after
// the cut, so the restored engine still holds those alerts and
// reports them at mark.
func wrapIDS(s RecordSink, prior *invTerminal, mark time.Time) *invTerminal {
	is := s.(*IDSSink)
	h := &drainHook{eng: is.E}
	if prior != nil {
		for _, f := range prior.drains.fires {
			if f.at.Before(mark) {
				h.fires = append(h.fires, f)
			}
		}
		h.fires = append(h.fires, drained{mark, is.E.Drain()})
	}
	is.Attach(h)
	return &invTerminal{sink: s, drains: h, render: func() string {
		var b strings.Builder
		for _, f := range h.fires {
			fmt.Fprintf(&b, "fire %d\n%s", f.at.UnixNano(), canonicalIDSAlerts(f.alerts))
		}
		fmt.Fprintf(&b, "flush\n%sdropped %d\n", canonicalIDSAlerts(is.Result()), is.E.DroppedCandidates())
		return b.String()
	}}
}

// batchedSource emits a slice in batches of n records (0: the size
// the pipeline asks for).
type batchedSource struct {
	recs []firewall.Record
	n    int
}

func (s batchedSource) EmitBatch(size int, emit func([]firewall.Record) error) error {
	if s.n > 0 {
		size = s.n
	}
	return SliceSource(s.recs).EmitBatch(size, emit)
}

// source returns the builder a row reads the tape through and a wait
// for any goroutines feeding it.
func (h *invHarness) source(t *testing.T, row invRow, e *invEngine) (*Builder, func()) {
	switch row.src {
	case "files":
		return FromFiles(h.log).DecodeWorkers(row.workers), func() {}
	case "days":
		return FromFiles(h.days...), func() {}
	case "pcap":
		return From(NewPcapSource(bytes.NewReader(h.capture))).WindowSort(invJitter), func() {}
	case "bus":
		// Two publishers, each partitioning its half of the tape over
		// two topics by coarsest-level source prefix; the subscriber
		// attaches before they start.
		ctx, b := context.Background(), bus.New()
		topics := [][]string{events.RecordTopics("pub0", 2), events.RecordTopics("pub1", 2)}
		agg := FromBusContext(ctx, b, slices.Concat(topics...)...)
		var wg sync.WaitGroup
		for p, tps := range topics {
			wg.Add(1)
			go func() {
				defer wg.Done()
				half := h.tape[p*len(h.tape)/2 : (p+1)*len(h.tape)/2]
				if err := From(SliceSource(half)).PublishInto(ctx, b, dispatch.CoarsestLevel(e.levels), tps...); err != nil {
					t.Errorf("publisher %d: %v", p, err)
				}
			}()
		}
		return agg, wg.Wait
	}
	return From(batchedSource{h.tape, row.batch}), func() {}
}

// runInto runs b into term under cadence c, checkpointing into dir.
func runInto(t *testing.T, b *Builder, c invCadence, dir string, term *invTerminal) {
	t.Helper()
	if err := b.AdvanceEvery(c.advance).CheckpointEvery(c.ckpt, dir).
		RunInto(context.Background(), term.sink); err != nil {
		t.Fatal(err)
	}
}

// run executes one row and returns its rendered result and a
// "name sha256" line per file in its checkpoint directory.
func (h *invHarness) run(t *testing.T, e *invEngine, c invCadence, row invRow) (string, []string) {
	t.Helper()
	dir := ""
	if c.ckpt > 0 {
		dir = t.TempDir()
	}
	term := e.wrap(e.fresh(row.shards), nil, time.Time{})
	if row.resume == 0 {
		b, wait := h.source(t, row, e)
		if e.filter {
			b.Artifact()
		}
		runInto(t, b, c, dir, term)
		wait()
		return term.render(), dirFiles(t, dir)
	}
	// The kill: the run stops partway, leaving only its periodic
	// checkpoints; a stopping IDS sink's final cut is removed, since
	// a killed process never writes one.
	runInto(t, From(SliceSource(h.tape[:len(h.tape)*3/5])), c, dir, term)
	sidecars, _ := filepath.Glob(filepath.Join(dir, "*"+sidecarSuffix)) // the pattern is well-formed
	for _, s := range sidecars {
		for _, p := range []string{s, strings.TrimSuffix(s, sidecarSuffix)} {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := ResumeLatest(dir, row.resume)
	if err != nil || res == nil {
		t.Fatalf("resume: %v, %v", res, err)
	}
	resumed := e.wrap(res.Sink, term, res.Mark)
	runInto(t, From(SliceSource(h.tape)).ResumeFrom(res.Horizon), c, dir, resumed)
	return resumed.render(), dirFiles(t, dir)
}

// dirFiles lists dir's files as "name sha256" lines, in name order.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	if dir == "" {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, en := range entries {
		b, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s %x", en.Name(), sha256.Sum256(b)))
	}
	return out
}

// TestInvariance runs every strategy row of every engine under every
// cadence against that engine and cadence's baseline.
func TestInvariance(t *testing.T) {
	h := newInvHarness(t)
	for _, e := range h.engines() {
		for _, c := range invCadences {
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				rows := e.rows
				want, wantFiles := h.run(t, e, c, rows[0])
				if c.spelled != nil {
					got, files := h.run(t, e, *c.spelled, rows[0])
					if got != want {
						t.Errorf("%s: result differs from the spelled-out cadence's\n%s", rows[0].name, firstDiff(want, got))
					}
					if !slices.Equal(files, wantFiles) {
						t.Errorf("%s: checkpoint files differ from the spelled-out cadence's: only here %v, only there %v",
							rows[0].name, without(wantFiles, files), without(files, wantFiles))
					}
				}
				if e.reference != nil {
					ref := e.reference(t)
					if want != ref {
						t.Errorf("%s: result differs from the reference\n%s", rows[0].name, firstDiff(want, ref))
					}
					want = ref
				}
				t.Logf("baseline: %d result lines, %d files", strings.Count(want, "\n"), len(wantFiles))
				if why := e.vacuous(want, c); why != "" {
					t.Fatalf("baseline is vacuous: %s", why)
				}
				ckpts := 0
				for _, f := range wantFiles {
					if strings.Contains(f, ".ckpt ") {
						ckpts++
					}
				}
				if c.ckpt > 0 && ckpts < 3 {
					t.Fatalf("baseline cut %d checkpoints, want at least 3", ckpts)
				}
				for _, row := range rows[1:] {
					if (row.resume > 0 && c.ckpt == 0) || (row.src != "slice" && !c.sources) {
						continue
					}
					t.Run(row.name, func(t *testing.T) {
						got, files := h.run(t, e, c, row)
						if got != want {
							t.Errorf("result differs from the baseline\n%s", firstDiff(got, want))
						}
						if !slices.Equal(files, wantFiles) {
							t.Errorf("checkpoint files differ from the baseline: only here %v, only in the baseline %v",
								without(files, wantFiles), without(wantFiles, files))
						}
					})
				}
			})
		}
	}
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %.300s\nwant: %.300s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// without returns the lines of a not in b.
func without(a, b []string) []string {
	return slices.DeleteFunc(slices.Clone(a), func(l string) bool { return slices.Contains(b, l) })
}
