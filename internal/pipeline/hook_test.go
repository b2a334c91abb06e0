package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/ids"
)

// drainHook is the serving pattern in miniature: drain the engine at
// every fire, note the checkpoint mark the sink stopped at.
type drainHook struct {
	eng         *ids.Engine
	fires       []drained
	stoppedCkpt time.Time
}

// drained is what a fire at drained the engine of.
type drained struct {
	at     time.Time
	alerts []ids.Alert
}

func (h *drainHook) Fired(t, _ time.Time) error {
	h.fires = append(h.fires, drained{t, h.eng.Drain()})
	return nil
}

// alerts returns every drained alert in fire order.
func (h *drainHook) alerts() []ids.Alert {
	var all []ids.Alert
	for _, f := range h.fires {
		all = append(all, f.alerts...)
	}
	return all
}

func (h *drainHook) Consumed(time.Time) {}

func (h *drainHook) Stopped(lastCkpt time.Time) error {
	h.stoppedCkpt = lastCkpt
	return nil
}

func newIDSTerminal(shards int) *IDSSink {
	return NewIDSSink(ids.NewSharded(ckptIDSConfig(), shards))
}

// phaseOf reads an IDS sink's cadence marks.
func phaseOf(t *testing.T, s RecordSink) marks {
	t.Helper()
	ids, ok := s.(*IDSSink)
	if !ok {
		t.Fatalf("not an IDS sink: %T", s)
	}
	return marks{ids.lastAdvance, ids.lastCkpt}
}

// runHooked streams recs after horizon into s with a drainHook
// attached, at a 10-minute tick and a daily checkpoint cadence into
// dir (none when empty).
func runHooked(t *testing.T, s *IDSSink, recs []firewall.Record, horizon time.Time, dir string) *drainHook {
	t.Helper()
	h := &drainHook{eng: s.E}
	s.Attach(h)
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
// (ResumeFile) restores the phase, so the fire-drained alerts of the
// two legs concatenate to the uninterrupted run's exactly.
func TestHookedFinalCutResumesInPhase(t *testing.T) {
	recs := ckptRecords(20_000)
	kill := killIndex(recs, 3*24*time.Hour+7*time.Hour)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			ref := runHooked(t, newIDSTerminal(shards), recs, time.Time{}, "")
			want := canonicalIDSAlerts(ref.alerts())
			if want == "" {
				t.Fatal("reference drained no alerts")
			}
			if !ref.stoppedCkpt.IsZero() {
				t.Fatalf("a sink without a checkpoint dir cut a final checkpoint at %v", ref.stoppedCkpt)
			}

			dir := t.TempDir()
			first := newIDSTerminal(shards)
			a := runHooked(t, first, recs[:kill], time.Time{}, dir)
			mark := recs[kill-1].Time.Add(time.Nanosecond)
			if !a.stoppedCkpt.Equal(mark) {
				t.Fatalf("Stopped saw checkpoint mark %v, want the final cut %v", a.stoppedCkpt, mark)
			}
			path, err := latestCheckpoint(dir)
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

			res, err := ResumeFile(path, shards)
			if err != nil {
				t.Fatal(err)
			}
			if got := phaseOf(t, res.Sink); !got.Advance.Equal(stopped.Advance) {
				t.Errorf("resumed advance mark %v, want %v", got.Advance, stopped.Advance)
			}
			b := runHooked(t, res.Sink.(*IDSSink), recs, res.Horizon, "")
			if got := canonicalIDSAlerts(append(a.alerts(), b.alerts()...)); got != want {
				t.Errorf("interrupted+resumed alerts differ from uninterrupted run\n got:\n%s\nwant:\n%s", got, want)
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
	h := &drainHook{eng: s.E}
	s.Attach(h)
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
		i := slices.IndexFunc(h.fires, func(f drained) bool { return f.at.Equal(res.Mark) })
		if i < 0 {
			continue // the final cut, off the cadence
		}
		pending := res.Sink.(*IDSSink).E.Drain()
		if got, want := canonicalIDSAlerts(pending), canonicalIDSAlerts(h.fires[i].alerts); got != want {
			t.Errorf("cut at %v restores pending alerts\n%s\nwant the fire's\n%s", res.Mark, got, want)
		}
		if len(h.fires[i].alerts) > 0 {
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
	res, err := resume(bytes.NewReader(data), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, rawSnapshot(data), res.Mark); err != nil {
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
	if n, err := sweepCheckpointTemps(dir); err != nil || n != 0 {
		t.Fatalf("failed write stranded %d temp files (%v)", n, err)
	}

	path, err := latestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, checkpointFileName(res.Mark)); path != want {
		t.Fatalf("latestCheckpoint = %s, want %s", path, want)
	}
	got, err := ResumeFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ph := phaseOf(t, got.Sink); !ph.Advance.Equal(res.Mark) || !ph.Checkpoint.Equal(res.Mark) {
		t.Fatalf("phase %+v, want both marks at the checkpoint's cut %v", ph, res.Mark)
	}
}

// TestFireCutDropsStaleSidecar: a checkpoint published without a phase
// at the exact mark of an earlier final cut removes that cut's sidecar,
// so ResumeFile restores the fire-point phase (both marks at the cut),
// not the final cut's.
func TestFireCutDropsStaleSidecar(t *testing.T) {
	dir := t.TempDir()
	data := snapshotIDSBytes(t, ckptRecords(2_000), 1_000)
	res, err := resume(bytes.NewReader(data), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mark
	stale := marks{m.Add(-30 * time.Second), m.Add(-2 * time.Hour)}
	if err := writeCheckpoint(dir, rawSnapshot(data), m, &stale); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointFileName(m))
	if got, err := ResumeFile(path, 1); err != nil {
		t.Fatal(err)
	} else if ph := phaseOf(t, got.Sink); !ph.Advance.Equal(stale.Advance) || !ph.Checkpoint.Equal(stale.Checkpoint) {
		t.Fatalf("final cut resumes in phase %+v, want %+v", ph, stale)
	}

	if err := WriteCheckpoint(dir, rawSnapshot(data), m); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + sidecarSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("fire-point cut left the stale sidecar: %v", err)
	}
	got, err := ResumeFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ph := phaseOf(t, got.Sink); !ph.Advance.Equal(m) || !ph.Checkpoint.Equal(m) {
		t.Fatalf("phase %+v, want both marks at the checkpoint's cut %v", ph, m)
	}
}
