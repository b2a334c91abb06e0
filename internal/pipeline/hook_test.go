package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/ids"
)

// drainHook is the serving pattern in miniature: drain the engine at
// every fire, keep the final cut.
type drainHook struct {
	eng    IDSEngine
	alerts []ids.Alert
	byFire map[time.Time][]ids.Alert
	final  *Handoff
}

func (h *drainHook) Fired(t, _ time.Time) error {
	drained := h.eng.Drain()
	h.alerts = append(h.alerts, drained...)
	h.byFire[t] = drained
	return nil
}

func (h *drainHook) Consumed(time.Time) {}

func (h *drainHook) Stopped(final *Handoff, _ time.Time) error {
	h.final = final
	return nil
}

// hookable is either IDS sink.
type hookable interface {
	RecordSink
	Attach(IDSHook) IDSEngine
}

func newIDSTerminal(shards int) hookable {
	if shards > 1 {
		return NewShardedIDSSink(ids.NewSharded(ckptIDSConfig(), shards))
	}
	return NewIDSSink(ids.New(ckptIDSConfig()))
}

// phaseOf reads an IDS sink's cadence marks.
func phaseOf(t *testing.T, s RecordSink) marks {
	t.Helper()
	switch s := s.(type) {
	case *IDSSink:
		return marks{s.lastAdvance, s.lastCkpt}
	case *ShardedIDSSink:
		return marks{s.lastAdvance, s.lastCkpt}
	}
	t.Fatalf("not an IDS sink: %T", s)
	return marks{}
}

// runHooked streams recs after horizon into s with a drainHook
// attached, at a 10-minute tick and a daily checkpoint cadence into
// dir (none when empty).
func runHooked(t *testing.T, s hookable, recs []firewall.Record, horizon time.Time, dir string) *drainHook {
	t.Helper()
	h := &drainHook{byFire: map[time.Time][]ids.Alert{}}
	h.eng = s.Attach(h)
	b := From(SliceSource(recs)).AdvanceEvery(10*time.Minute).CheckpointEvery(24*time.Hour, dir)
	if !horizon.IsZero() {
		b = b.ResumeFrom(horizon)
	}
	if err := b.RunInto(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHookedFinalCutResumesInPhase: a hooked IDS sink that stops
// mid-stream cuts its state at its newest record + 1ns — off the
// cadence — and publishes the phase in a sidecar. Resuming that cut
// from disk (ResumeFile) or from memory (Handoff.Resume) restores the
// phase, so the fire-drained alerts of the two legs concatenate to the
// uninterrupted run's exactly.
func TestHookedFinalCutResumesInPhase(t *testing.T) {
	recs := ckptRecords(20_000)
	kill := killIndex(recs, 3*24*time.Hour+7*time.Hour)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			want := canonicalIDSAlerts(runHooked(t, newIDSTerminal(shards), recs, time.Time{}, "").alerts)
			if want == "" {
				t.Fatal("reference drained no alerts")
			}

			dir := t.TempDir()
			first := newIDSTerminal(shards)
			a := runHooked(t, first, recs[:kill], time.Time{}, dir)
			if a.final == nil {
				t.Fatal("stopped sink handed over no final cut")
			}
			mark := recs[kill-1].Time.Add(time.Nanosecond)
			path, err := LatestCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if want := filepath.Join(dir, checkpointFileName(mark)); path != want {
				t.Fatalf("latest checkpoint %s, want the final cut %s", path, want)
			}
			if _, err := os.Stat(path + sidecarSuffix); err != nil {
				t.Fatalf("final cut has no sidecar: %v", err)
			}
			stopped := phaseOf(t, first)
			if stopped.Advance.Equal(mark) || !stopped.Checkpoint.Equal(mark) {
				t.Fatalf("stopped phase %+v: want an off-cadence advance mark and the cut at %v", stopped, mark)
			}

			fromFile, err := ResumeFile(path, shards)
			if err != nil {
				t.Fatal(err)
			}
			fromMemory, err := a.final.Resume(shards)
			if err != nil {
				t.Fatal(err)
			}
			for name, res := range map[string]*Resumed{"file": fromFile, "handoff": fromMemory} {
				if got := phaseOf(t, res.Sink); !got.Advance.Equal(stopped.Advance) {
					t.Errorf("%s: resumed advance mark %v, want %v", name, got.Advance, stopped.Advance)
				}
				b := runHooked(t, res.Sink.(hookable), recs, res.Horizon, "")
				if got := canonicalIDSAlerts(append(append([]ids.Alert{}, a.alerts...), b.alerts...)); got != want {
					t.Errorf("%s: interrupted+resumed alerts differ from uninterrupted run\n got:\n%s\nwant:\n%s", name, got, want)
				}
			}
		})
	}
}

// TestFireCutPrecedesDrain: at a fire point the checkpoint is cut
// after the Tick but before the hook drains, so resuming a periodic
// cut restores the alerts of its fire as pending again — delivery is
// at least once, never lossy.
func TestFireCutPrecedesDrain(t *testing.T) {
	dir := t.TempDir()
	s := newIDSTerminal(1)
	h := &drainHook{byFire: map[time.Time][]ids.Alert{}}
	h.eng = s.Attach(h)
	if err := From(SliceSource(ckptRecords(20_000))).
		AdvanceEvery(10*time.Minute).
		CheckpointEvery(2*time.Hour, dir).
		RunInto(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	withAlerts := 0
	for _, path := range paths {
		res, err := ResumeFile(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		drained, fired := h.byFire[res.Mark]
		if !fired {
			continue // the final cut, off the cadence
		}
		pending := res.Sink.(hookable).Attach(nil).Drain()
		if got, want := canonicalIDSAlerts(pending), canonicalIDSAlerts(drained); got != want {
			t.Errorf("cut at %v restores pending alerts\n%s\nwant the fire's\n%s", res.Mark, got, want)
		}
		if len(drained) > 0 {
			withAlerts++
		}
	}
	if withAlerts == 0 {
		t.Fatalf("none of %d checkpoints was cut at a fire that alerted", len(paths))
	}
}

// TestResumeFileBadSidecar: a sidecar that exists but cannot be read
// or parsed fails the resume with an error naming it — never a silent
// fall back to the mark phase, which would shift the tick schedule.
func TestResumeFileBadSidecar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "00000000000000000001.ckpt")
	if err := os.WriteFile(path, snapshotIDSBytes(t, ckptRecords(2_000), 1_000), 0o644); err != nil {
		t.Fatal(err)
	}
	side := path + sidecarSuffix
	for name, create := range map[string]func() error{
		"torn":       func() error { return os.WriteFile(side, []byte(`{"advance":"2021-04-0`), 0o644) },
		"unreadable": func() error { return os.Mkdir(side, 0o755) },
	} {
		if err := os.RemoveAll(side); err != nil {
			t.Fatal(err)
		}
		if err := create(); err != nil {
			t.Fatal(err)
		}
		_, err := ResumeFile(path, 1)
		if err == nil || !strings.Contains(err.Error(), side) {
			t.Errorf("%s sidecar: err = %v, want an error naming %s", name, err, side)
		}
	}
}

// failingCheckpointer fails every snapshot write.
type failingCheckpointer struct{}

func (failingCheckpointer) Checkpoint(io.Writer, time.Time) error { return errors.New("disk full") }

// TestOrphanSidecarIgnored: the sidecar is published before its
// checkpoint, so a write that fails between the two leaves an orphan
// sidecar and no checkpoint. Resume ignores the orphan and restores
// the previous checkpoint in that checkpoint's own phase.
func TestOrphanSidecarIgnored(t *testing.T) {
	dir := t.TempDir()
	data := snapshotIDSBytes(t, ckptRecords(2_000), 1_000)
	res, err := Resume(bytes.NewReader(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, &Handoff{snapshot: data}, res.Mark); err != nil {
		t.Fatal(err)
	}
	later := res.Mark.Add(time.Hour)
	phase := marks{later.Add(-time.Minute), res.Mark}
	if err := writeCheckpoint(dir, failingCheckpointer{}, later, &phase); err == nil {
		t.Fatal("failing snapshot write reported success")
	}
	orphan := filepath.Join(dir, checkpointFileName(later))
	if _, err := os.Stat(orphan + sidecarSuffix); err != nil {
		t.Fatalf("sidecar not published ahead of its checkpoint: %v", err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed write left a checkpoint behind: %v", err)
	}
	if n, err := SweepCheckpointTemps(dir); err != nil || n != 0 {
		t.Fatalf("failed write stranded %d temp files (%v)", n, err)
	}

	path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, checkpointFileName(res.Mark)); path != want {
		t.Fatalf("LatestCheckpoint = %s, want %s", path, want)
	}
	got, err := ResumeFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ph := phaseOf(t, got.Sink); !ph.Advance.Equal(res.Mark) || !ph.Checkpoint.Equal(res.Mark) {
		t.Fatalf("phase %+v, want both marks at the checkpoint's cut %v", ph, res.Mark)
	}
}
