package pipeline

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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
// committed fixtures pin the on-disk format itself: version 2 as
// written, version 1 as still read.

var updateCkptFixtures = flag.Bool("update-ckpt-fixtures", false,
	"regenerate the committed v2 checkpoint fixtures in testdata/")

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

func ckptIDSConfig() ids.Config {
	return ids.Config{
		MinDsts: 20,
		Timeout: time.Hour,
		Levels:  []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48, netaddr6.Agg32},
	}
}

// snapshotDetectorBytes builds deterministic detector state from the
// stream prefix and snapshots it at the next record's time.
func snapshotDetectorBytes(t *testing.T, recs []firewall.Record, upto int) []byte {
	t.Helper()
	d := core.NewShardedDetector(streamParityConfig(), 1)
	defer d.Finish()
	if err := d.ProcessBatch(recs[:upto]); err != nil {
		t.Fatal(err)
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
				_, err := resume(bytes.NewReader(b), shards, nil)
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
	res, err := resume(bytes.NewReader(valid), 1, nil)
	if err != nil {
		t.Fatalf("pristine snapshot failed to restore: %v", err)
	}
	flushResumed(t, res)
}

// rawSnapshot is a Checkpointer that writes snapshot bytes cut
// earlier, whatever the mark.
type rawSnapshot []byte

func (r rawSnapshot) Checkpoint(w io.Writer, _ time.Time) error {
	_, err := w.Write(r)
	return err
}

// flushResumed stops a resumed sink the test does not run; a detector
// restore has live workers.
func flushResumed(t testing.TB, res *Resumed) {
	t.Helper()
	if err := res.Sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

// resnapshot restores data across shards workers and snapshots the
// restored sink again at the same mark; ok is false when the restore
// rejects data.
func resnapshot(t testing.TB, data []byte, shards int) (snap []byte, ok bool) {
	t.Helper()
	res, err := resume(bytes.NewReader(data), shards, nil)
	if err != nil {
		return nil, false
	}
	defer flushResumed(t, res)
	var buf bytes.Buffer
	if err := res.Sink.(Checkpointer).Checkpoint(&buf, res.Mark); err != nil {
		t.Fatalf("shards=%d: restored snapshot failed to re-snapshot: %v", shards, err)
	}
	return buf.Bytes(), true
}

// ckptFixtures are the committed checkpoint fixtures: one state per
// kind, the cut at record 3,000 of ckptRecords(4_000), written as
// version 1 (restore-only) and as version 2 (the current format).
func ckptFixtures(t *testing.T) []struct {
	name string
	kind uint8
	gen  func() []byte
} {
	recs := ckptRecords(4_000)
	return []struct {
		name string
		kind uint8
		gen  func() []byte
	}{
		{"detector", checkpoint.KindDetector, func() []byte { return snapshotDetectorBytes(t, recs, 3_000) }},
		{"ids", checkpoint.KindIDS, func() []byte { return snapshotIDSBytes(t, recs, 3_000) }},
	}
}

// readFixture reads a committed fixture and checks its header.
func readFixture(t *testing.T, file string, kind uint8, version uint16) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := checkpoint.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("committed fixture no longer opens: %v", err)
	}
	if h := cr.Header(); h.Version != version || h.Kind != kind {
		t.Fatalf("fixture header: version %d kind %d, want version %d kind %d", h.Version, h.Kind, version, kind)
	}
	return data
}

// TestCheckpointV2Fixture pins the on-disk v2 format with committed
// fixture files: each must carry version 2, restore cleanly at one and
// at three shards, and re-snapshot to the identical bytes. A failure
// here means the snapshot encoding changed shape without a
// format-version bump — bump Version and keep reading this one instead
// of regenerating the fixture in place. Regenerate (after an
// intentional, versioned change) with:
// go test ./internal/pipeline -run TestCheckpointV2Fixture -update-ckpt-fixtures
func TestCheckpointV2Fixture(t *testing.T) {
	for _, fx := range ckptFixtures(t) {
		file := fx.name + "-v2.ckpt"
		t.Run(file, func(t *testing.T) {
			if *updateCkptFixtures {
				if err := os.WriteFile(filepath.Join("testdata", file), fx.gen(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data := readFixture(t, file, fx.kind, 2)
			for _, shards := range []int{1, 3} {
				snap, ok := resnapshot(t, data, shards)
				if !ok {
					t.Fatalf("shards=%d: committed v2 fixture no longer restores", shards)
				}
				if !bytes.Equal(snap, data) {
					t.Errorf("shards=%d: restored fixture re-snapshots to different bytes (%d vs %d): format drifted without a version bump",
						shards, len(snap), len(data))
				}
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

// TestCheckpointV1Fixture pins reading the version 1 format, whose
// committed fixtures are restore-only since writers write version 2:
// each v1 fixture must restore at one and at three shards and
// re-snapshot to exactly its v2 fixture's bytes, the same state in the
// current format. Version 2 changed only the IDS sketch encoding, so
// the detector's two fixtures differ in nothing but the header's
// version and checksum.
func TestCheckpointV1Fixture(t *testing.T) {
	for _, fx := range ckptFixtures(t) {
		t.Run(fx.name+"-v1.ckpt", func(t *testing.T) {
			v1 := readFixture(t, fx.name+"-v1.ckpt", fx.kind, 1)
			v2 := readFixture(t, fx.name+"-v2.ckpt", fx.kind, 2)
			for _, shards := range []int{1, 3} {
				snap, ok := resnapshot(t, v1, shards)
				if !ok {
					t.Fatalf("shards=%d: committed v1 fixture no longer restores", shards)
				}
				if !bytes.Equal(snap, v2) {
					t.Errorf("shards=%d: restored v1 fixture re-snapshots to %d bytes, not the v2 fixture's %d",
						shards, len(snap), len(v2))
				}
			}
			if fx.kind == checkpoint.KindDetector {
				const hdr = 32 // magic, version, kind, reserved, mark, horizon, crc
				if len(v1) != len(v2) || !bytes.Equal(v1[:8], v2[:8]) || !bytes.Equal(v1[10:hdr-4], v2[10:hdr-4]) ||
					!bytes.Equal(v1[hdr:], v2[hdr:]) {
					t.Error("detector v1 and v2 fixtures differ beyond the header's version and checksum")
				}
			}
		})
	}
}

// FuzzSnapshotRoundtrip feeds arbitrary bytes to Resume at one and at
// three shards. Inputs the container or a decoder rejects are fine,
// at both shard counts alike; any accepted input must re-snapshot to
// the same bytes at both, deterministically, in the current format
// version — so an accepted version 1 input's first re-snapshot is
// version 2 — and every later re-snapshot must be byte-identical
// (Snapshot∘Restore∘Snapshot is byte-identity); no input may panic,
// hang, or over-allocate on the way in. Seeds are valid detector and
// IDS snapshots of both versions (the version 1 ones, made by a
// version 1 writer, are the v1-* files in
// testdata/fuzz/FuzzSnapshotRoundtrip; the IDS one at sketch precision
// 6 holds sketches on both sides of the densify cutoff), so mutation
// explores the decode paths from the inside.
func FuzzSnapshotRoundtrip(f *testing.F) {
	// Seeds stay small (a few hundred records of state) so each fuzz
	// exec — four restores plus four snapshots — runs in well under a
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
		first, ok := resnapshot(t, data, 1)
		if sharded, ok3 := resnapshot(t, data, 3); ok3 != ok {
			t.Fatalf("restore accepted at 1 shard: %v, at 3 shards: %v", ok, ok3)
		} else if ok && !bytes.Equal(sharded, first) {
			t.Fatal("re-snapshot differs between 1 and 3 shards")
		}
		if !ok {
			return // rejected: the only acceptable failure mode
		}
		if cr, err := checkpoint.NewReader(bytes.NewReader(first)); err != nil || cr.Header().Version != checkpoint.Version {
			t.Fatalf("re-snapshot of an accepted input is not a version %d snapshot (%v)", checkpoint.Version, err)
		}
		for _, shards := range []int{1, 3} {
			again, ok := resnapshot(t, first, shards)
			if !ok {
				t.Fatalf("shards=%d: re-snapshot of accepted input does not restore", shards)
			}
			if !bytes.Equal(again, first) {
				t.Fatalf("shards=%d: Snapshot∘Restore is not idempotent", shards)
			}
		}
	})
}

// TestCheckpointFilePublishing: checkpoint files appear atomically
// under their mark-derived names, temp files never linger after a
// successful write, and latestCheckpoint picks the newest while
// ignoring unrelated directory entries.
func TestCheckpointFilePublishing(t *testing.T) {
	dir := t.TempDir()
	if path, err := latestCheckpoint(dir); err != nil || path != "" {
		t.Fatalf("empty dir: latestCheckpoint = (%q, %v), want (\"\", nil)", path, err)
	}
	if path, err := latestCheckpoint(filepath.Join(dir, "missing")); err != nil || path != "" {
		t.Fatalf("missing dir: latestCheckpoint = (%q, %v), want (\"\", nil)", path, err)
	}

	recs := ckptRecords(2_000)
	sink := NewShardedSink(core.NewShardedDetector(streamParityConfig(), 1))
	defer sink.Flush()
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
	path, err := latestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, fmt.Sprintf("%020d.ckpt", m2.UnixNano())); path != want {
		t.Fatalf("latestCheckpoint = %q, want %q", path, want)
	}
	res, err := ResumeFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	flushResumed(t, res)
	if !res.Mark.Equal(m2) {
		t.Fatalf("restored mark = %v, want %v", res.Mark, m2)
	}
}

// TestResumeKindDispatch: a detector snapshot restores the sharded
// detector sink and an IDS snapshot the IDS sink, at every shard count.
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
		{"detector-1", det, 1, "*pipeline.ShardedSink"},
		{"detector-4", det, 4, "*pipeline.ShardedSink"},
		{"ids-1", eng, 1, "*pipeline.IDSSink"},
		{"ids-4", eng, 4, "*pipeline.IDSSink"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := resume(bytes.NewReader(tc.data), tc.shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", res.Sink); got != tc.want {
				t.Errorf("sink type = %s, want %s", got, tc.want)
			}
			if !res.Horizon.Add(time.Nanosecond).Equal(res.Mark) {
				t.Errorf("horizon %v is not mark−1ns (%v)", res.Horizon, res.Mark)
			}
			flushResumed(t, res)
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
	if path, err := latestCheckpoint(dir); err != nil || path != "" {
		t.Fatalf("junk-only dir: latestCheckpoint = (%q, %v), want (\"\", nil)", path, err)
	}

	// Real checkpoints: the largest mark wins even though shorter
	// names sort lexically before longer zero-padded ones.
	write("00000000000000000042.ckpt")
	write("7.ckpt")
	path, err := latestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "00000000000000000042.ckpt"); path != want {
		t.Fatalf("latestCheckpoint = %q, want %q", path, want)
	}

	// Equal marks under different paddings: lexically greatest name is
	// the deterministic winner.
	write("042.ckpt")
	write("0000000000000000000042.ckpt") // 22 digits: ignored, too long
	path, err = latestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "042.ckpt"); path != want {
		t.Fatalf("tie-break: latestCheckpoint = %q, want %q", path, want)
	}
}

// TestSweepCheckpointTemps: a crash between CreateTemp and the rename
// strands a partial ".ckpt-*" staging file. ResumeLatest sweeps those —
// and only those — before scanning for the latest checkpoint, so
// crashed writes neither accumulate nor ever shadow a real snapshot.
// It resumes nothing, without error, from an empty or missing
// directory, and a latest checkpoint that fails to restore fails it
// naming the file.
func TestSweepCheckpointTemps(t *testing.T) {
	dir := t.TempDir()

	// A real checkpoint, published atomically.
	sink := NewShardedSink(core.NewShardedDetector(streamParityConfig(), 1))
	defer sink.Flush()
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

	// The surviving checkpoint resumes.
	res, err := ResumeLatest(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	flushResumed(t, res)
	if !res.Mark.Equal(mark) {
		t.Fatalf("restored mark = %v, want %v", res.Mark, mark)
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

	// Idempotent, and a missing directory is not an error.
	if n, err := sweepCheckpointTemps(dir); err != nil || n != 0 {
		t.Fatalf("second sweep: (%d, %v), want (0, nil)", n, err)
	}
	for _, d := range []string{t.TempDir(), filepath.Join(dir, "missing")} {
		if res, err := ResumeLatest(d, 1); res != nil || err != nil {
			t.Fatalf("%s: ResumeLatest = (%v, %v), want (nil, nil)", d, res, err)
		}
	}

	bad := filepath.Join(dir, fmt.Sprintf("%020d.ckpt", mark.UnixNano()+1))
	if err := os.WriteFile(bad, bytes.Repeat([]byte("not a checkpoint "), 4), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeLatest(dir, 1); !errors.Is(err, checkpoint.ErrBadMagic) || !strings.Contains(err.Error(), bad) {
		t.Fatalf("corrupt latest: ResumeLatest error %v, want one naming %s", err, bad)
	}
}

// TestPublishFileFailureLeavesNoTemp: the one atomic file writer
// (checkpoints, sidecars, the daemon's blocklist) removes its temp
// file on every failure — a failing write and a failing rename — and
// leaves the target as it was.
func TestPublishFileFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "out")
	if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := PublishFile(target, ".tmp-*", func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing write: %v, want the write's error", err)
	}
	// A file cannot be renamed over a directory.
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := PublishFile(sub, ".tmp-*", func(io.Writer) error { return nil }); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("dir holds %d entries, want only out and sub (a temp file was stranded)", len(entries))
	}
	if got, _ := os.ReadFile(target); string(got) != "old" {
		t.Fatalf("target = %q after a failed publish, want it untouched", got)
	}
}
