package pipeline

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// The kill/restore suite pins the durable-state contract end to end:
// a run interrupted mid-stream and resumed from its latest checkpoint
// must produce byte-identical results to the uninterrupted run — for
// the detector and the IDS, at matching and at differing shard
// counts, with the eviction cadence in phase across the cut. The
// corruption tests pin the container's rejection behavior, and the
// committed v1 fixtures pin the on-disk format itself.

var updateCkptFixtures = flag.Bool("update-ckpt-fixtures", false,
	"regenerate the committed v1 checkpoint fixtures in testdata/")

// ckptRecords synthesizes a ten-day stream mixing persistent scanners
// (sessions alive across checkpoints at every level), one-shot churn
// sources (fresh /48 per record, the open-session bulk a snapshot
// must carry), periodic lulls above the timeout (sessions closing
// into results), and mixed protocols/ports/lengths so every encoded
// field — port maps, week histograms, entropy counters — is
// exercised.
func ckptRecords(n int) []firewall.Record {
	rng := rand.New(rand.NewSource(97))
	scanBase := netaddr6.MustPrefix("2001:db8:a000::/36")
	churnBase := netaddr6.MustPrefix("2600::/24")
	dsts := netaddr6.MustPrefix("2001:db8:f000::/44")
	step := 10 * 24 * time.Hour / time.Duration(n)
	ts := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		var src netip.Addr
		switch i % 3 {
		case 0:
			// Hot /128 scanners: a six-address pool, each address
			// recurring every few minutes — far inside the timeout, so
			// these accumulate destinations into address-level scans.
			p48 := netaddr6.NthSubprefix(scanBase, 48, uint64(i/3%3))
			src = netaddr6.WithIID(p48.Addr(), uint64(1+i/3%2))
		case 1:
			// /64-spread scanners: mostly-unique addresses inside a
			// small set of recurring /64s and /48s, so scans emerge
			// only at the aggregated levels.
			p48 := netaddr6.NthSubprefix(scanBase, 48, uint64(8+i/3%7))
			p64 := netaddr6.NthSubprefix(p48, 64, uint64(i/3%4))
			src = netaddr6.WithIID(p64.Addr(), uint64(1+i))
		default:
			// Churn: a fresh /48 per record — open one-packet sessions
			// a snapshot must carry, never qualifying as scans.
			src = netaddr6.WithIID(netaddr6.NthSubprefix(churnBase, 48, uint64(i)).Addr(), 1)
		}
		proto := layers.ProtoTCP
		if i%11 == 0 {
			proto = layers.ProtoUDP
		}
		recs = append(recs, firewall.Record{
			Time:    ts,
			Src:     src,
			Dst:     netaddr6.RandomAddrIn(dsts, rng),
			Proto:   proto,
			SrcPort: uint16(40000 + i%997),
			DstPort: uint16(1 + i%512),
			Length:  uint16(60 + i%23),
		})
		ts = ts.Add(step)
		if i%9000 == 8999 {
			ts = ts.Add(3 * time.Hour) // lull above the timeout
		}
	}
	return recs
}

// killIndex returns the index of the first record at or past the
// given stream-time offset — the "crash point" a truncated run stops
// at.
func killIndex(recs []firewall.Record, offset time.Duration) int {
	return sort.Search(len(recs), func(i int) bool {
		return recs[i].Time.Sub(recs[0].Time) >= offset
	})
}

// TestCheckpointKillRestoreParityDetector: run ten days of stream to
// completion; separately, run it truncated mid-day-six with daily
// checkpoints ("the crash"), restore the latest snapshot, and replay
// the full input with the processed prefix skipped. The two
// detectors' rendered scans must match byte for byte — including when
// the snapshot was taken at 4 shards and restored at 4, and when it
// is re-partitioned 4→2.
func TestCheckpointKillRestoreParityDetector(t *testing.T) {
	recs := ckptRecords(50_000)
	cfg := streamParityConfig()
	const cadence = 30 * time.Minute
	kill := killIndex(recs, 5*24*time.Hour+12*time.Hour)

	ref, err := From(SliceSource(recs)).
		AdvanceEvery(cadence).
		Detect(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderDetector(ref, cfg.Levels)
	for lvl, s := range want {
		if s == "" {
			t.Fatalf("reference produced no scans at %v", lvl)
		}
	}

	for _, tc := range []struct{ snapShards, resumeShards int }{
		{1, 1}, {4, 4}, {4, 2},
	} {
		t.Run(fmt.Sprintf("snap%d-resume%d", tc.snapShards, tc.resumeShards), func(t *testing.T) {
			dir := t.TempDir()
			if _, err := From(SliceSource(recs[:kill])).
				AdvanceEvery(cadence).
				CheckpointEvery(24*time.Hour, dir).
				Detect(context.Background(), cfg, tc.snapShards); err != nil {
				t.Fatal(err)
			}
			path, err := LatestCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if path == "" {
				t.Fatal("interrupted run left no checkpoint")
			}
			res, err := ResumeFile(path, tc.resumeShards)
			if err != nil {
				t.Fatal(err)
			}
			if res.Kind != checkpoint.KindDetector {
				t.Fatalf("snapshot kind = %d, want detector", res.Kind)
			}
			if age := res.Mark.Sub(recs[0].Time); age < 4*24*time.Hour {
				t.Fatalf("latest checkpoint mark only %v into the stream", age)
			}
			if err := From(SliceSource(recs)).
				AdvanceEvery(cadence).
				ResumeFrom(res.Horizon).
				RunInto(context.Background(), res.Sink); err != nil {
				t.Fatal(err)
			}
			var det *core.Detector
			switch s := res.Sink.(type) {
			case *DetectorSink:
				det = s.Result()
			case *ShardedSink:
				det = s.Result()
			default:
				t.Fatalf("unexpected resumed sink type %T", res.Sink)
			}
			got := renderDetector(det, cfg.Levels)
			for _, lvl := range cfg.Levels {
				if got[lvl] != want[lvl] {
					t.Errorf("level %v: resumed output differs from uninterrupted run (%d vs %d bytes)",
						lvl, len(got[lvl]), len(want[lvl]))
				}
			}
		})
	}
}

func ckptIDSConfig() ids.Config {
	return ids.Config{
		MinDsts: 20,
		Timeout: time.Hour,
		Levels:  []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48, netaddr6.Agg32},
	}
}

// TestCheckpointKillRestoreParityIDS is the IDS twin of the detector
// parity test. The IDS raises the bar: its tick cadence is semantic
// (it decides when idle candidates close and alerts emit), so parity
// additionally proves the resumed run's cadence is exactly in phase
// with the uninterrupted one across the cut.
func TestCheckpointKillRestoreParityIDS(t *testing.T) {
	recs := ckptRecords(50_000)
	cfg := ckptIDSConfig()
	const cadence = 10 * time.Minute
	kill := killIndex(recs, 5*24*time.Hour+12*time.Hour)

	refAlerts, err := From(SliceSource(recs)).
		AdvanceEvery(cadence).
		IDS(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalIDSAlerts(refAlerts)
	if want == "" {
		t.Fatal("reference produced no alerts")
	}

	for _, tc := range []struct{ snapShards, resumeShards int }{
		{1, 1}, {4, 4}, {4, 2},
	} {
		t.Run(fmt.Sprintf("snap%d-resume%d", tc.snapShards, tc.resumeShards), func(t *testing.T) {
			dir := t.TempDir()
			if _, err := From(SliceSource(recs[:kill])).
				AdvanceEvery(cadence).
				CheckpointEvery(24*time.Hour, dir).
				IDS(context.Background(), cfg, tc.snapShards); err != nil {
				t.Fatal(err)
			}
			path, err := LatestCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if path == "" {
				t.Fatal("interrupted run left no checkpoint")
			}
			res, err := ResumeFile(path, tc.resumeShards)
			if err != nil {
				t.Fatal(err)
			}
			if res.Kind != checkpoint.KindIDS {
				t.Fatalf("snapshot kind = %d, want IDS", res.Kind)
			}
			if err := From(SliceSource(recs)).
				AdvanceEvery(cadence).
				ResumeFrom(res.Horizon).
				RunInto(context.Background(), res.Sink); err != nil {
				t.Fatal(err)
			}
			var alerts []ids.Alert
			switch s := res.Sink.(type) {
			case *IDSSink:
				alerts = s.Result()
			case *ShardedIDSSink:
				alerts = s.Result()
			default:
				t.Fatalf("unexpected resumed sink type %T", res.Sink)
			}
			if got := canonicalIDSAlerts(alerts); got != want {
				t.Errorf("resumed alerts differ from uninterrupted run\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// snapshotDetectorBytes builds deterministic detector state from the
// stream prefix and snapshots it at the next record's time.
func snapshotDetectorBytes(t *testing.T, recs []firewall.Record, upto int) []byte {
	t.Helper()
	d := core.NewDetector(streamParityConfig())
	for _, r := range recs[:upto] {
		if err := d.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf, recs[upto].Time); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotIDSBytes is the IDS twin of snapshotDetectorBytes.
func snapshotIDSBytes(t *testing.T, recs []firewall.Record, upto int) []byte {
	t.Helper()
	e := ids.New(ckptIDSConfig())
	for _, r := range recs[:upto] {
		e.Process(r)
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf, recs[upto].Time); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRejectsCorruption: every way a snapshot file can rot —
// foreign bytes, bit flips in header or body, a future format
// version, truncation — must be rejected with the matching typed
// error, never a partial or garbage restore.
func TestCheckpointRejectsCorruption(t *testing.T) {
	recs := ckptRecords(4_000)
	valid := snapshotDetectorBytes(t, recs, 3_000)
	table := crc32.MakeTable(crc32.Castagnoli)
	// fixHeaderCRC recomputes the header checksum so a corruption lands
	// past header validation when the test wants it to.
	fixHeaderCRC := func(b []byte) {
		crc := crc32.Checksum(b[:28], table)
		b[28] = byte(crc)
		b[29] = byte(crc >> 8)
		b[30] = byte(crc >> 16)
		b[31] = byte(crc >> 24)
	}

	cases := []struct {
		name    string
		corrupt func(b []byte) []byte
		want    error
	}{
		{"bad magic", func(b []byte) []byte {
			b[0] ^= 0xFF
			return b
		}, checkpoint.ErrBadMagic},
		{"header bit flip", func(b []byte) []byte {
			b[13] ^= 0x01 // mark byte; CRC left stale
			return b
		}, checkpoint.ErrChecksum},
		{"future version", func(b []byte) []byte {
			b[8], b[9] = 99, 0
			fixHeaderCRC(b)
			return b
		}, checkpoint.ErrVersion},
		{"unknown kind", func(b []byte) []byte {
			b[10] = 77
			fixHeaderCRC(b)
			return b
		}, checkpoint.ErrFormat},
		{"zero mark", func(b []byte) []byte {
			for i := 12; i < 28; i++ {
				b[i] = 0
			}
			fixHeaderCRC(b)
			return b
		}, checkpoint.ErrFormat},
		{"section bit flip", func(b []byte) []byte {
			b[len(b)/2] ^= 0x10
			return b
		}, checkpoint.ErrChecksum},
		{"truncated header", func(b []byte) []byte {
			return b[:16]
		}, checkpoint.ErrTruncated},
		{"truncated body", func(b []byte) []byte {
			return b[:len(b)-7]
		}, checkpoint.ErrTruncated},
		{"empty", func(b []byte) []byte {
			return nil
		}, checkpoint.ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.corrupt(append([]byte(nil), valid...))
			for _, shards := range []int{1, 4} {
				_, err := Resume(bytes.NewReader(b), shards)
				if err == nil {
					t.Fatalf("shards=%d: corrupted snapshot restored without error", shards)
				}
				if !errors.Is(err, tc.want) {
					t.Errorf("shards=%d: err = %v, want errors.Is(err, %v)", shards, err, tc.want)
				}
			}
		})
	}

	// The pristine bytes must still restore — the corruptions above,
	// not the baseline, are what is being rejected.
	if _, err := Resume(bytes.NewReader(valid), 1); err != nil {
		t.Fatalf("pristine snapshot failed to restore: %v", err)
	}
}

// TestCheckpointV1Fixture pins the on-disk v1 format with committed
// fixture files: each must carry version 1, restore cleanly, and
// re-snapshot to the identical bytes. A failure here means the
// snapshot encoding changed shape without a format-version bump —
// bump Version and add a migration path instead of regenerating the
// fixture in place. Regenerate (after an intentional, versioned
// change) with: go test ./internal/pipeline -run TestCheckpointV1Fixture -update-ckpt-fixtures
func TestCheckpointV1Fixture(t *testing.T) {
	recs := ckptRecords(4_000)
	fixtures := []struct {
		file string
		kind uint8
		gen  func() []byte
	}{
		{"detector-v1.ckpt", checkpoint.KindDetector, func() []byte { return snapshotDetectorBytes(t, recs, 3_000) }},
		{"ids-v1.ckpt", checkpoint.KindIDS, func() []byte { return snapshotIDSBytes(t, recs, 3_000) }},
	}
	for _, fx := range fixtures {
		t.Run(fx.file, func(t *testing.T) {
			path := filepath.Join("testdata", fx.file)
			if *updateCkptFixtures {
				if err := os.WriteFile(path, fx.gen(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Resume(bytes.NewReader(data), 1)
			if err != nil {
				t.Fatalf("committed v1 fixture no longer restores: %v", err)
			}
			if res.Kind != fx.kind {
				t.Fatalf("fixture kind = %d, want %d", res.Kind, fx.kind)
			}
			var buf bytes.Buffer
			if err := res.Sink.(Checkpointer).Checkpoint(&buf, res.Mark); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Errorf("restored fixture re-snapshots to different bytes (%d vs %d): format drifted without a version bump",
					buf.Len(), len(data))
			}
			// And the current encoder still produces exactly the committed
			// bytes for the same state.
			if live := fx.gen(); !bytes.Equal(live, data) {
				t.Errorf("live snapshot of the fixture state differs from the committed fixture (%d vs %d bytes)",
					len(live), len(data))
			}
		})
	}
}

// FuzzSnapshotRoundtrip feeds arbitrary bytes to Resume. Inputs the
// container or a decoder rejects are fine; any accepted input must
// re-snapshot deterministically — Snapshot∘Restore∘Snapshot is
// byte-identity — and must never panic, hang, or over-allocate on the
// way in. Seeds are valid detector and IDS snapshots, so mutation
// explores the decode paths from the inside.
func FuzzSnapshotRoundtrip(f *testing.F) {
	// Seeds stay small (a few hundred records of state) so each fuzz
	// exec — two restores plus two snapshots — runs in well under a
	// millisecond and a 30-second smoke budget buys real mutation
	// coverage.
	recs := ckptRecords(300)
	var seedT testing.T
	f.Add(snapshotDetectorBytes(&seedT, recs, 220))
	f.Add(snapshotIDSBytes(&seedT, recs, 220))
	if seedT.Failed() {
		f.Fatal("building seed snapshots failed")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Resume(bytes.NewReader(data), 1)
		if err != nil {
			return // rejected: the only acceptable failure mode
		}
		var first bytes.Buffer
		if err := res.Sink.(Checkpointer).Checkpoint(&first, res.Mark); err != nil {
			t.Fatalf("accepted snapshot failed to re-snapshot: %v", err)
		}
		res2, err := Resume(bytes.NewReader(first.Bytes()), 1)
		if err != nil {
			t.Fatalf("re-snapshot of accepted input does not restore: %v", err)
		}
		var second bytes.Buffer
		if err := res2.Sink.(Checkpointer).Checkpoint(&second, res2.Mark); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Snapshot∘Restore is not idempotent")
		}
	})
}

// TestCheckpointFilePublishing: checkpoint files appear atomically
// under their mark-derived names, temp files never linger after a
// successful write, and LatestCheckpoint picks the newest while
// ignoring unrelated directory entries.
func TestCheckpointFilePublishing(t *testing.T) {
	dir := t.TempDir()
	if path, err := LatestCheckpoint(dir); err != nil || path != "" {
		t.Fatalf("empty dir: LatestCheckpoint = (%q, %v), want (\"\", nil)", path, err)
	}
	if path, err := LatestCheckpoint(filepath.Join(dir, "missing")); err != nil || path != "" {
		t.Fatalf("missing dir: LatestCheckpoint = (%q, %v), want (\"\", nil)", path, err)
	}

	recs := ckptRecords(2_000)
	sink := NewDetectorSink(core.NewDetector(streamParityConfig()))
	if err := sink.ConsumeBatch(recs[:1_000]); err != nil {
		t.Fatal(err)
	}
	m1, m2 := recs[1_000].Time, recs[1_500].Time
	if err := WriteCheckpoint(dir, sink, m1); err != nil {
		t.Fatal(err)
	}
	if err := sink.ConsumeBatch(recs[1_000:1_500]); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, sink, m2); err != nil {
		t.Fatal(err)
	}
	// Distractors a latest-scan must skip: a dotted temp leftover and a
	// foreign file.
	if err := os.WriteFile(filepath.Join(dir, ".ckpt-tmp123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".ckpt" {
			ckpts = append(ckpts, e.Name())
		}
	}
	if len(ckpts) != 2 {
		t.Fatalf("got %d .ckpt files, want 2: %v", len(ckpts), ckpts)
	}
	path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, fmt.Sprintf("%020d.ckpt", m2.UnixNano())); path != want {
		t.Fatalf("LatestCheckpoint = %q, want %q", path, want)
	}
	res, err := ResumeFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mark.Equal(m2) {
		t.Fatalf("restored mark = %v, want %v", res.Mark, m2)
	}
}

// TestResumeKindDispatch: a detector snapshot restores detector
// sinks, an IDS snapshot IDS sinks, plain at one shard and sharded
// above.
func TestResumeKindDispatch(t *testing.T) {
	recs := ckptRecords(2_000)
	det := snapshotDetectorBytes(t, recs, 1_000)
	eng := snapshotIDSBytes(t, recs, 1_000)
	cases := []struct {
		name   string
		data   []byte
		shards int
		want   string
	}{
		{"detector-1", det, 1, "*pipeline.DetectorSink"},
		{"detector-4", det, 4, "*pipeline.ShardedSink"},
		{"ids-1", eng, 1, "*pipeline.IDSSink"},
		{"ids-4", eng, 4, "*pipeline.ShardedIDSSink"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Resume(bytes.NewReader(tc.data), tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", res.Sink); got != tc.want {
				t.Errorf("sink type = %s, want %s", got, tc.want)
			}
			if !res.Horizon.Add(time.Nanosecond).Equal(res.Mark) {
				t.Errorf("horizon %v is not mark−1ns (%v)", res.Horizon, res.Mark)
			}
			// Sharded restores spin up worker goroutines; close them.
			if s, ok := res.Sink.(Sink); ok {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestLatestCheckpointDirtyDir: a checkpoint directory littered with
// everything a crashed writer, a sidecar-writing daemon, or a stray
// operator can leave behind still resolves to the well-formed file
// with the largest mark — and equal marks break ties toward the
// lexically greatest name, deterministically.
func TestLatestCheckpointDirtyDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Junk of every stripe: interrupted-write temp files, sidecars,
	// non-numeric stems, a subdirectory named like a checkpoint, an
	// overlong stem, and an extensionless number.
	write(".ckpt-tmp4567")
	write("00000000000000000042.ckpt-partial")
	write("00000000000000000042.ckpt.marks")
	write("latest.ckpt")
	write("notes.txt")
	write("123456789012345678901.ckpt") // 21 digits: overflow bait
	write("42")
	if err := os.Mkdir(filepath.Join(dir, "00000000000000000099.ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}

	// Only junk: no checkpoint to find.
	if path, err := LatestCheckpoint(dir); err != nil || path != "" {
		t.Fatalf("junk-only dir: LatestCheckpoint = (%q, %v), want (\"\", nil)", path, err)
	}

	// Real checkpoints: the largest mark wins even though shorter
	// names sort lexically before longer zero-padded ones.
	write("00000000000000000042.ckpt")
	write("7.ckpt")
	path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "00000000000000000042.ckpt"); path != want {
		t.Fatalf("LatestCheckpoint = %q, want %q", path, want)
	}

	// Equal marks under different paddings: lexically greatest name is
	// the deterministic winner.
	write("042.ckpt")
	write("0000000000000000000042.ckpt") // 22 digits: ignored, too long
	path, err = LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "042.ckpt"); path != want {
		t.Fatalf("tie-break: LatestCheckpoint = %q, want %q", path, want)
	}
}

// TestSweepCheckpointTemps: a crash between CreateTemp and the rename
// strands a partial ".ckpt-*" staging file. A resume sweeps those —
// and only those — before scanning for the latest checkpoint, so
// crashed writes neither accumulate nor ever shadow a real snapshot.
func TestSweepCheckpointTemps(t *testing.T) {
	dir := t.TempDir()

	// A real checkpoint, published atomically.
	sink := NewDetectorSink(core.NewDetector(streamParityConfig()))
	recs := ckptRecords(500)
	if err := sink.ConsumeBatch(recs); err != nil {
		t.Fatal(err)
	}
	mark := recs[len(recs)-1].Time
	if err := WriteCheckpoint(dir, sink, mark); err != nil {
		t.Fatal(err)
	}

	// Crashed writes: partial staging temps exactly as os.CreateTemp
	// would leave them, including an empty one.
	for _, name := range []string{".ckpt-1834719382", ".ckpt-99", ".ckpt-"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial snapshot bytes"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ".ckpt-empty"), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	// Bystanders the sweep must not touch.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, ".ckpt-dir"), 0o755); err != nil {
		t.Fatal(err)
	}

	removed, err := SweepCheckpointTemps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 4 {
		t.Fatalf("swept %d temps, want 4", removed)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{".ckpt-dir", fmt.Sprintf("%020d.ckpt", mark.UnixNano()), "notes.txt"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("after sweep: %v, want %v", names, want)
	}

	// The surviving checkpoint still resumes.
	path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, fmt.Sprintf("%020d.ckpt", mark.UnixNano())); path != want {
		t.Fatalf("LatestCheckpoint = %q, want %q", path, want)
	}

	// Idempotent, and a missing directory is not an error.
	if n, err := SweepCheckpointTemps(dir); err != nil || n != 0 {
		t.Fatalf("second sweep: (%d, %v), want (0, nil)", n, err)
	}
	if n, err := SweepCheckpointTemps(filepath.Join(dir, "missing")); err != nil || n != 0 {
		t.Fatalf("missing dir: (%d, %v), want (0, nil)", n, err)
	}
}
