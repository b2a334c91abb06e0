package pipeline

// Durable-state plumbing: periodic checkpoints of terminal sink state
// at consistent stream-time cuts, and resume from the latest one.
//
// # Consistency
//
// A checkpoint is only ever written at a cadence fire point: the
// moment the cadence machinery (cadence.due) observes the first
// record at or past the cadence boundary, before that record is
// processed. Records are non-decreasing, and the cadence fires at the
// FIRST record carrying its timestamp, so at a fire with time t every
// processed record has Time < t — the snapshot is exactly the state
// of the prefix {Time < t}, and the snapshot's mark is t.
//
// Resume replays the same input and drops every record with
// Time ≤ horizon (= mark − 1ns, i.e. Time < mark) ahead of the
// terminal, which reconstructs the uninterrupted run byte-exactly.
//
// When an eviction cadence (AdvanceEvery) is configured, the
// checkpoint cadence rides it: snapshots are cut only at eviction
// fire points (the first one at least CheckpointEvery past the last
// snapshot), immediately after the advance/tick runs. Two things
// follow. First, a snapshot always includes the eviction horizon's
// effect, in the order the live run applied it. Second, at every cut
// the eviction cadence's own mark equals the snapshot mark, so Resume
// — which restores both marks to the snapshot's — puts the resumed
// run's eviction schedule exactly in phase with the uninterrupted
// one. That matters for the IDS, whose tick timing is semantic:
// checkpointing never perturbs the tick schedule, and a resumed run
// ticks where the uninterrupted run would have. Without an eviction
// cadence the checkpoint cadence fires (and splits batches) on its
// own, and there is no eviction phase to preserve.
//
// # Files
//
// Checkpoints are one file per cut, named by the mark's UnixNano
// (zero-padded so lexical order is time order), written to a temp file
// and renamed into place — a crash mid-write never leaves a readable
// partial checkpoint, and LatestCheckpoint never picks one up. A cut
// off the cadence (a stopping serving sink's final state) also
// publishes its cadence phase, first, in a "<checkpoint>.marks"
// sidecar that ResumeFile reads back.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
)

// Checkpointer is implemented by terminal sinks that can write a
// versioned snapshot of their state at a consistent stream-time cut.
// The caller guarantees mark is a valid cut: every record with Time <
// mark consumed, none with Time ≥ mark. The built-in detector and IDS
// sinks implement it.
type Checkpointer interface {
	Checkpoint(w io.Writer, mark time.Time) error
}

// cadence is the stream-time schedule every detector and IDS sink
// embeds: the eviction cadence (AdvanceEvery — its fire runs the
// sink's advance, ShardedDetector.Advance or Engine.Tick), the checkpoint
// cadence riding it (CheckpointEvery, into CheckpointDir), both
// cadences' marks — the phase a checkpoint carries — and the metrics
// bundle the fires report into. Builder.AdvanceEvery,
// CheckpointEvery and Instrument reach it through RunInto.
type cadence struct {
	AdvanceEvery    time.Duration
	CheckpointEvery time.Duration
	CheckpointDir   string
	lastAdvance     time.Time
	lastCkpt        time.Time
	met             *Metrics
}

// cadenced is a sink its embedded cadence drives: at a fire point it
// advances, may be snapshotted, then runs fired; between fire points
// it processes record runs.
type cadenced interface {
	Checkpointer
	advance(t time.Time) error
	fired(t time.Time) error
	process(recs []firewall.Record) error
}

func (c *cadence) setCadence(every time.Duration) { c.AdvanceEvery = every }

func (c *cadence) setCheckpoint(every time.Duration, dir string) {
	c.CheckpointEvery, c.CheckpointDir = every, dir
}

func (c *cadence) setMetrics(m *Metrics) { c.met = m }

// setPhase restores both cadence marks (Resume).
func (c *cadence) setPhase(m marks) { c.lastAdvance, c.lastCkpt = m.Advance, m.Checkpoint }

// checkpoints reports whether periodic checkpoints are on.
func (c *cadence) checkpoints() bool { return c.CheckpointEvery > 0 && c.CheckpointDir != "" }

// due reports whether t is a fire point, advancing the mark of the
// driving cadence: the eviction cadence when there is one, else the
// checkpoint cadence alone.
func (c *cadence) due(t time.Time) bool {
	if c.AdvanceEvery > 0 {
		return due(&c.lastAdvance, c.AdvanceEvery, t)
	}
	return c.checkpoints() && due(&c.lastCkpt, c.CheckpointEvery, t)
}

// fire runs the fire point at t: the advance, then — at the first
// eviction fire at least CheckpointEvery past the last cut, or at
// every fire of a checkpoint-only cadence — a snapshot, then fired.
// Cutting after the advance keeps the snapshot inclusive of the
// eviction's effect and the eviction mark equal to the snapshot mark
// (see the package comment above on resume phase).
func (c *cadence) fire(s cadenced, t time.Time) error {
	if c.AdvanceEvery > 0 {
		if err := s.advance(t); err != nil {
			return err
		}
		c.met.advanceFired(t)
	}
	if c.AdvanceEvery <= 0 || (c.checkpoints() && due(&c.lastCkpt, c.CheckpointEvery, t)) {
		start := time.Now()
		err := WriteCheckpoint(c.CheckpointDir, s, t)
		c.met.checkpointDone(time.Since(start), err)
		if err != nil {
			return err
		}
	}
	return s.fired(t)
}

// split drives a batch through s, splitting it at every fire point
// and firing there first. Fire points are a function of the record
// sequence alone, so batch size never changes which sessions merge,
// when eviction horizons advance, or where checkpoints cut.
func (c *cadence) split(s cadenced, recs []firewall.Record) error {
	if c.AdvanceEvery <= 0 && !c.checkpoints() {
		return s.process(recs)
	}
	start := 0
	for i := range recs {
		if !c.due(recs[i].Time) {
			continue
		}
		if err := s.process(recs[start:i]); err != nil {
			return err
		}
		start = i
		if err := c.fire(s, recs[i].Time); err != nil {
			return err
		}
	}
	return s.process(recs[start:])
}

// due reports whether a stream-time cadence has elapsed at t,
// advancing the stored mark when it has. A zero or negative cadence
// never fires; the first record only arms the mark.
func due(last *time.Time, every time.Duration, t time.Time) bool {
	if every <= 0 {
		return false
	}
	if last.IsZero() || t.Sub(*last) >= every {
		fire := !last.IsZero()
		*last = t
		return fire
	}
	return false
}

// marks is a cadence's phase at a cut: both marks at the instant the
// snapshot was taken. A cut at a fire point t has both equal to t,
// which Resume assumes; a cut off the cadence — a stopping sink's
// final state at its newest record + 1ns — would shift the resumed
// tick schedule that way, so its phase travels in a sidecar file
// "<checkpoint>.marks" holding this JSON (or in the Handoff).
type marks struct {
	Advance    time.Time `json:"advance"`
	Checkpoint time.Time `json:"checkpoint"`
}

// cutFinal snapshots ck at mark — a valid cut off the cadence: every
// consumed record is before it — and publishes it with its phase
// sidecar when CheckpointDir is set.
func (c *cadence) cutFinal(ck Checkpointer, mark time.Time) (*Handoff, error) {
	var buf bytes.Buffer
	if err := ck.Checkpoint(&buf, mark); err != nil {
		return nil, err
	}
	h := &Handoff{snapshot: buf.Bytes(), phase: marks{c.lastAdvance, c.lastCkpt}}
	if c.CheckpointDir != "" {
		start := time.Now()
		err := writeCheckpoint(c.CheckpointDir, h, mark, &h.phase)
		c.met.checkpointDone(time.Since(start), err)
		if err != nil {
			return nil, err
		}
		c.lastCkpt = mark
	}
	return h, nil
}

// Handoff is a stopped IDS sink's final state for a next run to
// continue from: the snapshot a checkpoint and its sidecar would hold,
// kept in memory (the serve daemon's reload path).
type Handoff struct {
	snapshot []byte
	phase    marks
}

// Checkpoint implements Checkpointer by writing the held snapshot.
func (h *Handoff) Checkpoint(w io.Writer, _ time.Time) error {
	_, err := w.Write(h.snapshot)
	return err
}

// Resume restores a sink from the handoff, in the cadence phase it was
// cut in, as ResumeFile does from a checkpoint and its sidecar.
func (h *Handoff) Resume(shards int) (*Resumed, error) {
	return resume(bytes.NewReader(h.snapshot), shards, &h.phase)
}

// checkpointFileName names a checkpoint by its mark so lexical order
// is stream-time order.
func checkpointFileName(mark time.Time) string {
	return fmt.Sprintf("%020d.ckpt", mark.UnixNano())
}

// WriteCheckpoint writes one snapshot of ck at mark into dir,
// atomically: the bytes land in a temp file that is renamed into its
// final name only after a successful sync, so readers never observe a
// partial checkpoint.
func WriteCheckpoint(dir string, ck Checkpointer, mark time.Time) error {
	return writeCheckpoint(dir, ck, mark, nil)
}

// writeCheckpoint is WriteCheckpoint with an optional phase sidecar,
// published first: a crash between the two leaves an orphan sidecar,
// which nothing reads, never a checkpoint missing its phase.
func writeCheckpoint(dir string, ck Checkpointer, mark time.Time, phase *marks) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("pipeline: creating checkpoint dir: %w", err)
	}
	final := filepath.Join(dir, checkpointFileName(mark))
	if phase != nil {
		b, err := json.Marshal(phase)
		if err != nil {
			return err
		}
		if err := PublishFile(final+sidecarSuffix, checkpointTempPattern, func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		}); err != nil {
			return fmt.Errorf("pipeline: writing checkpoint: %w", err)
		}
	}
	if err := PublishFile(final, checkpointTempPattern, func(w io.Writer) error { return ck.Checkpoint(w, mark) }); err != nil {
		return fmt.Errorf("pipeline: writing checkpoint: %w", err)
	}
	return nil
}

// PublishFile writes path atomically: write fills a temp file beside
// it, named by the os.CreateTemp pattern, which is synced and renamed
// into place, so a reader sees the whole file or none. Every failure
// removes the temp file; only a crash strands it (for checkpoints,
// SweepCheckpointTemps collects it). Errors come back unwrapped, for
// the caller to name.
func PublishFile(path, pattern string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// sidecarSuffix names a checkpoint's phase sidecar. The extra suffix
// is exactly what LatestCheckpoint ignores, so a sidecar is never
// mistaken for a checkpoint.
const sidecarSuffix = ".marks"

// checkpointTempPattern is the os.CreateTemp pattern WriteCheckpoint
// stages bytes under; checkpointTempPrefix selects the files it
// produces. The prefix deliberately cannot collide with a published
// checkpoint name (those have all-digit stems), so checkpointMark
// never selects a temp file — but a crashed writer leaves its temp
// behind forever, which is what SweepCheckpointTemps cleans up.
const (
	checkpointTempPattern = ".ckpt-*"
	checkpointTempPrefix  = ".ckpt-"
)

// SweepCheckpointTemps removes leftover checkpoint temp files from
// interrupted WriteCheckpoint calls — a crash between CreateTemp and
// the rename strands the partially-written temp, and nothing else ever
// collects it. Call it when resuming from a checkpoint directory
// (cmd/v6scan and the serve daemon do); it is safe alongside a live
// writer only in the sense that it may race a write in progress, so
// sweep before starting the pipeline, not during. Returns the number
// of temp files removed. A missing directory sweeps zero files.
func SweepCheckpointTemps(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasPrefix(e.Name(), checkpointTempPrefix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return removed, fmt.Errorf("pipeline: sweeping checkpoint temp: %w", err)
		}
		removed++
	}
	return removed, nil
}

// checkpointMark parses the mark out of a checkpoint file name.
// Only names of the exact form WriteCheckpoint produces — an
// all-digit stem plus ".ckpt" — qualify; anything else (temp files
// from interrupted writes, sidecar files, stray directory content)
// reports ok=false and is skipped.
func checkpointMark(name string) (mark int64, ok bool) {
	stem, found := strings.CutSuffix(name, ".ckpt")
	if !found || stem == "" || len(stem) > 20 {
		return 0, false
	}
	for _, c := range stem {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(stem, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// LatestCheckpoint returns the path of the newest checkpoint in dir
// (the one with the largest parsed mark), or "" when the directory
// holds none. Entries that are not well-formed checkpoint files —
// leftover ".ckpt-*" temp files, sidecar files, non-numeric stems,
// subdirectories — are ignored, so a dirty directory (crashed writer,
// operator droppings) never confuses resume. When two names parse to
// the same mark (e.g. differing zero-padding), the lexically greatest
// name wins, a deterministic tie-break.
func LatestCheckpoint(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", err
	}
	best := ""
	var bestMark int64
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() {
			continue
		}
		mark, ok := checkpointMark(name)
		if !ok {
			continue
		}
		if best == "" || mark > bestMark || (mark == bestMark && name > best) {
			best, bestMark = name, mark
		}
	}
	if best == "" {
		return "", nil
	}
	return filepath.Join(dir, best), nil
}

// Resumed is a terminal sink rebuilt from a checkpoint, plus what a
// caller needs to resume: skip the replayed input through Horizon
// (Builder.ResumeFrom) and run into Sink.
type Resumed struct {
	// Sink is the restored terminal at any shard count: *ShardedSink
	// for a detector checkpoint, *IDSSink for an IDS one. The restore
	// starts the workers a new engine at that shard count starts (see
	// dispatch.DetectorInline and IDSInline): always for a detector, above
	// one shard for the IDS. A caller that does not run the sink must
	// Close it; Close is idempotent, so closing a sink RunInto ran is
	// harmless.
	Sink RecordSink
	// Kind is the snapshot kind (checkpoint.KindDetector or
	// checkpoint.KindIDS).
	Kind uint8
	// Mark is the checkpoint's stream-time cut; Horizon = Mark − 1ns is
	// the inclusive replay skip bound.
	Mark, Horizon time.Time
}

// Resume rebuilds a terminal sink from a snapshot stream across shards
// workers (see Resumed.Sink) — the shard count need not match the one
// the snapshot was taken at. The restored sink's cadence marks are
// set to the snapshot's cut, so eviction and checkpoint cadences
// resume in phase with an interrupted run cut at a fire point.
func Resume(r io.Reader, shards int) (*Resumed, error) { return resume(r, shards, nil) }

// ResumeFile is Resume over a checkpoint file path, in the phase its
// sidecar records when it has one (a cut off the cadence). A sidecar
// that exists but cannot be read or parsed fails the resume.
func ResumeFile(path string, shards int) (*Resumed, error) {
	phase, err := readPhase(path + sidecarSuffix)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return resume(f, shards, phase)
}

// readPhase loads a phase sidecar; nil, nil when there is none.
func readPhase(path string) (*marks, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: reading checkpoint sidecar: %w", err)
	}
	var m marks
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint sidecar %s: %w", path, err)
	}
	return &m, nil
}

// resume restores the sink a snapshot holds, in phase — or, when phase
// is nil, with both cadence marks at the snapshot's cut.
func resume(r io.Reader, shards int, phase *marks) (*Resumed, error) {
	cr, err := checkpoint.NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := cr.Header()
	var sink interface {
		RecordSink
		setPhase(marks)
	}
	switch hdr.Kind {
	case checkpoint.KindDetector:
		d, err := core.RestoreShardedDetector(cr, shards)
		if err != nil {
			return nil, err
		}
		sink = NewShardedSink(d)
	case checkpoint.KindIDS:
		e, err := ids.RestoreEngine(cr, shards)
		if err != nil {
			return nil, err
		}
		s := NewIDSSink(e)
		s.lastSeen = hdr.Horizon
		sink = s
	default:
		return nil, fmt.Errorf("%w: unknown snapshot kind %d", checkpoint.ErrFormat, hdr.Kind)
	}
	if phase == nil {
		phase = &marks{hdr.Mark, hdr.Mark}
	}
	sink.setPhase(*phase)
	return &Resumed{Sink: sink, Kind: hdr.Kind, Mark: hdr.Mark, Horizon: hdr.Horizon}, nil
}

// Checkpoint implements Checkpointer: a dispatcher barrier drains
// in-flight batches, then all shards snapshot as one global cut.
func (s *ShardedSink) Checkpoint(w io.Writer, mark time.Time) error {
	return s.D.Snapshot(w, mark)
}

// Checkpoint implements Checkpointer: a consistent snapshot of the
// engine — above one shard, after a dispatcher barrier drains
// in-flight batches, all shards as one global cut.
func (s *IDSSink) Checkpoint(w io.Writer, mark time.Time) error {
	return s.E.Snapshot(w, mark)
}
