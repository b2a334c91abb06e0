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
// A resumed run replays the same input and drops every record with
// Time ≤ horizon (= mark − 1ns, i.e. Time < mark) ahead of the
// terminal, which reconstructs the uninterrupted run byte-exactly.
//
// The checkpoint cadence always rides the eviction cadence
// (AdvanceEvery; a checkpoint cadence set alone is the eviction
// cadence too): snapshots are cut only at eviction fire points (the
// first one at least CheckpointEvery past the last snapshot; the
// first fire only arms the checkpoint mark), immediately after the
// advance/tick runs. Two things follow. First, a snapshot always
// includes the eviction horizon's effect, in the order the live run
// applied it, so it holds no state eviction has released. Second, at
// every cut the eviction cadence's own mark equals the snapshot mark,
// so resume — which restores both marks to the snapshot's — puts the
// resumed run's eviction schedule exactly in phase with the
// uninterrupted one. That matters for the IDS, whose tick timing is
// semantic: checkpointing never perturbs the tick schedule, and a
// resumed run ticks where the uninterrupted run would have.
//
// # Files
//
// Checkpoints are one file per cut, named by the mark's UnixNano
// (zero-padded so lexical order is time order), written to a temp file
// and renamed into place — a crash mid-write never leaves a readable
// partial checkpoint, and latestCheckpoint never picks one up. A cut
// off the cadence (a stopping serving sink's final state) also
// publishes its cadence phase, first, in a "<checkpoint>.marks"
// sidecar that ResumeFile reads back.

import (
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
// embeds: the eviction cadence (advanceEvery — its fires, the only
// fire points, run the sink's advance, ShardedDetector.Advance or
// Engine.Tick), the checkpoint cadence riding it (checkpointEvery,
// into checkpointDir), both cadences' marks — the phase a checkpoint carries — and the metrics
// bundle the fires report into. Builder.AdvanceEvery,
// CheckpointEvery and Instrument are its only setters, through
// RunInto.
type cadence struct {
	advanceEvery    time.Duration
	checkpointEvery time.Duration
	checkpointDir   string
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

// setCadence applies a builder's settings (RunInto); the marks stay.
// A checkpoint cadence without an eviction cadence sets both: every
// cut is an eviction fire point.
func (c *cadence) setCadence(advance, ckpt time.Duration, dir string, m *Metrics) {
	c.advanceEvery, c.checkpointEvery, c.checkpointDir, c.met = advance, ckpt, dir, m
	if advance <= 0 && c.checkpoints() {
		c.advanceEvery = ckpt
	}
}

// setPhase restores both cadence marks (resume).
func (c *cadence) setPhase(m marks) { c.lastAdvance, c.lastCkpt = m.Advance, m.Checkpoint }

// checkpoints reports whether periodic checkpoints are on.
func (c *cadence) checkpoints() bool { return c.checkpointEvery > 0 && c.checkpointDir != "" }

// fire runs the fire point at t: the advance, then — at the first
// fire at least CheckpointEvery past the last cut — a snapshot, then
// fired. Cutting after the advance keeps the snapshot inclusive of
// the eviction's effect and the eviction mark equal to the snapshot
// mark (see the package comment above on resume phase).
func (c *cadence) fire(s cadenced, t time.Time) error {
	if err := s.advance(t); err != nil {
		return err
	}
	c.met.advanceFired(t)
	if c.checkpoints() && due(&c.lastCkpt, c.checkpointEvery, t) {
		start := time.Now()
		err := WriteCheckpoint(c.checkpointDir, s, t)
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
	if c.advanceEvery <= 0 {
		return s.process(recs)
	}
	start := 0
	for i := range recs {
		if !due(&c.lastAdvance, c.advanceEvery, recs[i].Time) {
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
// which resume assumes; a cut off the cadence — a stopping sink's
// final state at its newest record + 1ns — would shift the resumed
// tick schedule that way, so its phase travels in a sidecar file
// "<checkpoint>.marks" holding this JSON.
type marks struct {
	Advance    time.Time `json:"advance"`
	Checkpoint time.Time `json:"checkpoint"`
}

// cutFinal publishes ck's state at mark — a valid cut off the cadence:
// every consumed record is before it — into the checkpoint dir, with
// its phase sidecar. Call it only when the sink has a checkpoint dir.
func (c *cadence) cutFinal(ck Checkpointer, mark time.Time) error {
	start := time.Now()
	err := writeCheckpoint(c.checkpointDir, ck, mark, &marks{c.lastAdvance, c.lastCkpt})
	c.met.checkpointDone(time.Since(start), err)
	if err != nil {
		return err
	}
	c.lastCkpt = mark
	return nil
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

// writeCheckpoint is WriteCheckpoint with an optional phase sidecar.
// The sidecar is settled first: published when there is a phase, and
// otherwise removed — a sidecar already at the name belongs to an
// earlier cut off the cadence at the same mark, and left in place it
// would make ResumeFile restore that cut's phase instead of the
// fire-point one (both marks at mark). A crash after the sidecar step
// leaves, for a new name, an orphan sidecar that nothing reads, never
// a checkpoint missing its phase. When the name already held a
// checkpoint, a crash there pairs the old checkpoint with the new
// sidecar state; that window closes only once the phase travels inside
// the checkpoint file itself.
func writeCheckpoint(dir string, ck Checkpointer, mark time.Time, phase *marks) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("pipeline: creating checkpoint dir: %w", err)
	}
	final := filepath.Join(dir, checkpointFileName(mark))
	if phase == nil {
		if err := os.Remove(final + sidecarSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("pipeline: removing stale checkpoint sidecar: %w", err)
		}
	} else {
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
// sweepCheckpointTemps collects it). Errors come back unwrapped, for
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
// is exactly what latestCheckpoint ignores, so a sidecar is never
// mistaken for a checkpoint.
const sidecarSuffix = ".marks"

// checkpointTempPattern is the os.CreateTemp pattern WriteCheckpoint
// stages bytes under; checkpointTempPrefix selects the files it
// produces. The prefix deliberately cannot collide with a published
// checkpoint name (those have all-digit stems), so checkpointMark
// never selects a temp file — but a crashed writer leaves its temp
// behind forever, which is what sweepCheckpointTemps cleans up.
const (
	checkpointTempPattern = ".ckpt-*"
	checkpointTempPrefix  = ".ckpt-"
)

// sweepCheckpointTemps removes leftover checkpoint temp files from
// interrupted WriteCheckpoint calls — a crash between CreateTemp and
// the rename strands the partially-written temp, and nothing else ever
// collects it. ResumeLatest calls it; it is safe alongside a live
// writer only in the sense that it may race a write in progress, so
// sweep before starting the pipeline, not during. Returns the number
// of temp files removed. A missing directory sweeps zero files.
func sweepCheckpointTemps(dir string) (int, error) {
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

// latestCheckpoint returns the path of the newest checkpoint in dir
// (the one with the largest parsed mark), or "" when the directory
// holds none. Entries that are not well-formed checkpoint files —
// leftover ".ckpt-*" temp files, sidecar files, non-numeric stems,
// subdirectories — are ignored, so a dirty directory (crashed writer,
// operator droppings) never confuses resume. When two names parse to
// the same mark (e.g. differing zero-padding), the lexically greatest
// name wins, a deterministic tie-break.
func latestCheckpoint(dir string) (string, error) {
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

// ResumeLatest resumes from the newest checkpoint in dir across shards
// workers, as ResumeFile does, after removing the temp files a crashed
// writer stranded there; call it before any run writes into dir, as
// the sweep could race a write in progress. It returns nil, nil when
// dir holds no checkpoint; a failed restore names the checkpoint's
// path.
func ResumeLatest(dir string, shards int) (*Resumed, error) {
	if _, err := sweepCheckpointTemps(dir); err != nil {
		return nil, err
	}
	path, err := latestCheckpoint(dir)
	if err != nil || path == "" {
		return nil, err
	}
	res, err := ResumeFile(path, shards)
	if err != nil {
		return nil, fmt.Errorf("resuming %s: %w", path, err)
	}
	return res, nil
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
	// Flush it; Flush is idempotent, so flushing a sink RunInto ran is
	// harmless.
	Sink RecordSink
	// Kind is the snapshot kind (checkpoint.KindDetector or
	// checkpoint.KindIDS).
	Kind uint8
	// Mark is the checkpoint's stream-time cut; Horizon = Mark − 1ns is
	// the inclusive replay skip bound.
	Mark, Horizon time.Time
}

// ResumeFile rebuilds a terminal sink from a checkpoint file across
// shards workers (see Resumed.Sink) — the shard count need not match
// the one the snapshot was taken at. The restored sink's cadence
// marks are the phase the file's sidecar records when it has one (a
// cut off the cadence), else the snapshot's cut, so eviction and
// checkpoint cadences resume in phase with the interrupted run. A
// sidecar that exists but cannot be read or parsed fails the resume.
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
