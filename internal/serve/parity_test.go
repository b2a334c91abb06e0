package serve

// Kill/resume serving parity (the ISSUE's acceptance bar): a daemon
// SIGTERMed mid-stream and restarted with Resume must publish, from
// the interruption point on, exactly the alerts an uninterrupted
// daemon publishes over the same log — and both runs' final shutdown
// checkpoints must be byte-identical. The cadence-phase sidecar is
// what makes this hold: the resumed run's tick schedule continues in
// phase, so every eviction (and therefore every alert and every
// periodic checkpoint) lands at the same stream positions.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/pipeline"
)

// parityTraffic builds a deterministic two-phase scan scenario: one
// scanner alerting in the first half, a second alerting in the
// second, benign fillers driving the tick clock throughout. Returns
// the full stream and the index splitting the halves.
func parityTraffic() (recs []firewall.Record, split int) {
	recs = append(recs, scanBurst("2001:db8:bad1::1", 0, 20)...)
	recs = append(recs, fillers(1, 20)...) // scanner1 alerts ≈ minute 11
	split = len(recs)
	recs = append(recs, scanBurst("2001:db8:bad2::1", 30*time.Minute, 20)...)
	recs = append(recs, fillers(31, 60)...) // scanner2 alerts ≈ minute 41
	return recs, split
}

func TestKillResumeParity(t *testing.T) {
	recs, split := parityTraffic()
	cfg := func(log, ckpt string) Config {
		return Config{
			LogPath:         log,
			Shards:          3,
			IDS:             testIDS(),
			AdvanceEvery:    time.Minute,
			CheckpointEvery: 5 * time.Minute,
			CheckpointDir:   ckpt,
		}
	}

	// Interrupted leg: daemon A consumes exactly the first half (the
	// log holds nothing more), is SIGTERMed, and cuts its final
	// checkpoint wherever it stopped.
	dir := t.TempDir()
	logAB := filepath.Join(dir, "ab.log")
	ckptAB := filepath.Join(dir, "ab-ckpt")
	appendLog(t, logAB, recs[:split])
	a := startDaemon(t, cfg(logAB, ckptAB))
	a.waitRecords(t, uint64(split))
	a.waitAlerts(t, 1) // scanner1 fired before the kill
	a.stop(t)
	alertsA := a.alerts()

	// Resumed leg: the log has grown while the daemon was down; B
	// restores the latest checkpoint, skips the replayed prefix, and
	// serves the rest.
	appendLog(t, logAB, recs[split:])
	bcfg := cfg(logAB, ckptAB)
	bcfg.Resume = true
	b := startDaemon(t, bcfg)
	b.waitRecords(t, uint64(len(recs)))
	b.waitAlerts(t, 1) // scanner2
	b.stop(t)
	alertsB := b.alerts()

	// Control leg: daemon C sees the whole stream uninterrupted.
	logC := filepath.Join(dir, "c.log")
	ckptC := filepath.Join(dir, "c-ckpt")
	appendLog(t, logC, recs)
	c := startDaemon(t, cfg(logC, ckptC))
	c.waitRecords(t, uint64(len(recs)))
	c.waitAlerts(t, 2)
	c.stop(t)
	alertsC := c.alerts()

	// The concatenated interrupted-run alert stream must equal the
	// uninterrupted one exactly.
	got := alertsJSON(t, append(append([]SeqAlert{}, alertsA...), alertsB...))
	want := alertsJSON(t, alertsC)
	if got != want {
		t.Fatalf("alert streams diverge:\ninterrupted+resumed:\n%s\nuninterrupted:\n%s", got, want)
	}
	if len(alertsA) == 0 || len(alertsB) == 0 {
		t.Fatalf("degenerate split: %d alerts before kill, %d after", len(alertsA), len(alertsB))
	}

	// Both final shutdown checkpoints cut at the same mark with the
	// same engine state: byte-identical files, byte-identical phase
	// sidecars.
	latestB, err := pipeline.LatestCheckpoint(ckptAB)
	if err != nil || latestB == "" {
		t.Fatalf("no resumed-run checkpoint (err %v)", err)
	}
	latestC, err := pipeline.LatestCheckpoint(ckptC)
	if err != nil || latestC == "" {
		t.Fatalf("no control-run checkpoint (err %v)", err)
	}
	if filepath.Base(latestB) != filepath.Base(latestC) {
		t.Fatalf("final marks differ: %s vs %s", filepath.Base(latestB), filepath.Base(latestC))
	}
	ckB, err := os.ReadFile(latestB)
	if err != nil {
		t.Fatal(err)
	}
	ckC, err := os.ReadFile(latestC)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckB, ckC) {
		t.Fatalf("final checkpoints differ (%d vs %d bytes)", len(ckB), len(ckC))
	}
	mB, okB := readMarks(latestB + ".marks")
	mC, okC := readMarks(latestC + ".marks")
	if !okB || !okC {
		t.Fatal("missing marks sidecar")
	}
	if !mB.Advance.Equal(mC.Advance) || !mB.Checkpoint.Equal(mC.Checkpoint) {
		t.Fatalf("cadence phase diverges: %+v vs %+v", mB, mC)
	}

	// Re-shard resilience: a resume at a different shard count serves
	// the same alerts (state re-partitions, output is deterministic).
	logD := filepath.Join(dir, "d.log")
	appendLog(t, logD, recs[:split])
	ckptD := filepath.Join(dir, "d-ckpt")
	dcfg := cfg(logD, ckptD)
	d1 := startDaemon(t, dcfg)
	d1.waitRecords(t, uint64(split))
	d1.waitAlerts(t, 1)
	d1.stop(t)
	appendLog(t, logD, recs[split:])
	dcfg.Resume = true
	dcfg.Shards = 1 // restore the 3-shard snapshot into a plain engine
	d2 := startDaemon(t, dcfg)
	d2.waitRecords(t, uint64(len(recs)))
	d2.waitAlerts(t, 1)
	d2.stop(t)
	got = alertsJSON(t, append(append([]SeqAlert{}, d1.alerts()...), d2.alerts()...))
	if got != want {
		t.Fatalf("re-sharded resume diverges:\n%s\nwant:\n%s", got, want)
	}
}

// TestDaemonMatchesBatch: the daemon is the batch IDS run live. Over a
// finished log whose last record jumps past the timeout — so every
// alert fires on a tick, none waits for the final sweep the daemon
// discards — the alerts it publishes equal the batch pipeline's at the
// same cadence, byte for byte, plain and sharded.
func TestDaemonMatchesBatch(t *testing.T) {
	var recs []firewall.Record
	recs = append(recs, scanBurst("2001:db8:bad1::1", 0, 20)...)
	recs = append(recs, scanBurst("2001:db8:bad1::2", 30*time.Second, 20)...) // same /64: aggregates
	recs = append(recs, fillers(1, 20)...)
	recs = append(recs, scanBurst("2001:db8:bad2::1", 20*time.Minute, 20)...)
	recs = append(recs, scanBurst("2001:db8:bad3:1::1", 20*time.Minute+10*time.Second, 20)...)
	recs = append(recs, fillers(21, 40)...)
	recs = append(recs, fillers(120, 121)...) // the jump: idles everything past the timeout
	pipeline.SortByTime(recs)

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			batch, err := pipeline.From(pipeline.SliceSource(recs)).
				AdvanceEvery(time.Minute).
				IDS(context.Background(), testIDS(), shards)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) < 3 {
				t.Fatalf("degenerate reference: %d alerts", len(batch))
			}
			want := make([]SeqAlert, len(batch))
			for i, a := range batch {
				want[i] = SeqAlert{Alert: a}
			}

			log := filepath.Join(t.TempDir(), "fw.log")
			appendLog(t, log, recs)
			dr := startDaemon(t, Config{
				LogPath:      log,
				Shards:       shards,
				IDS:          testIDS(),
				AdvanceEvery: time.Minute,
			})
			dr.waitRecords(t, uint64(len(recs)))
			dr.stop(t)
			// The daemon publishes in fire order, the batch run returns
			// one list in the engine's order (first activity, address,
			// prefix length); compare in the latter.
			got := dr.alerts()
			sort.SliceStable(got, func(i, j int) bool {
				a, b := got[i].Alert, got[j].Alert
				if !a.First.Equal(b.First) {
					return a.First.Before(b.First)
				}
				if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
					return c < 0
				}
				return a.Prefix.Bits() < b.Prefix.Bits()
			})
			if got, want := alertsJSON(t, got), alertsJSON(t, want); got != want {
				t.Fatalf("daemon alerts differ from batch:\ndaemon:\n%s\nbatch:\n%s", got, want)
			}
		})
	}
}
