package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// The golden end-to-end suite pins the command's stdout byte for byte
// over a small committed log fixture, at several shard counts and with
// periodic advancement on — the parity check previous PRs ran by hand
// ("old-vs-new cmd output byte-identical") made permanent. Regenerate
// the fixture and goldens after an intentional output change with:
//
//	go test ./cmd/v6scan -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden fixture and outputs")

// goldenRecords synthesizes the fixture workload: a single-/128
// scanner split across a timeout lull (two sessions), a spread-/64
// actor below the threshold at /128 (escalation), an SMTP-style
// 5-duplicate artifact source (visible only with -filter), and a
// one-packet background population. Everything is seeded and
// timestamped deterministically.
func goldenRecords() []firewall.Record {
	rng := rand.New(rand.NewSource(2022))
	t0 := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	dsts := netaddr6.MustPrefix("2001:db8:f000::/44")
	var recs []firewall.Record
	add := func(ts time.Time, src, dst string, proto layers.IPProtocol, sport, dport uint16) {
		recs = append(recs, firewall.Record{
			Time: ts, Src: netaddr6.MustAddr(src), Dst: netaddr6.MustAddr(dst),
			Proto: proto, SrcPort: sport, DstPort: dport, Length: 60,
		})
	}

	// Scanner A: one /128, 600 sequential destinations over ~1h.
	seqA := netaddr6.SequentialAddrs(netaddr6.MustAddr("2001:db8:f000::10"), 600, 1)
	for i, d := range seqA {
		add(t0.Add(time.Duration(i)*6*time.Second), "2001:db8:a::1", d.String(),
			layers.ProtoTCP, 40001, 22)
	}
	// Scanner B: 16 /128s spread over one /64, 40 destinations each —
	// below threshold per /128, well above at /64 (the AS #9 pattern).
	b64 := netaddr6.MustPrefix("2001:db8:b:1::/64")
	for i := 0; i < 640; i++ {
		src := netaddr6.WithIID(b64.Addr(), uint64(1+i%16))
		add(t0.Add(2*time.Second+time.Duration(i)*5500*time.Millisecond),
			src.String(), netaddr6.RandomAddrIn(dsts, rng).String(),
			layers.ProtoTCP, 40002, 3389)
	}
	// Artifact actor: 200 packets at one (dst, TCP/25) pair — >30%
	// 5-duplicates, so -filter drops the whole source-day.
	for i := 0; i < 200; i++ {
		add(t0.Add(time.Duration(i)*17*time.Second), "2001:db8:e::5", "2001:db8:f000::dead",
			layers.ProtoTCP, 40003, 25)
	}
	// Background: 300 one-packet sources, never qualifying.
	bg := netaddr6.MustPrefix("2001:db8:c000::/36")
	for i := 0; i < 300; i++ {
		p64 := netaddr6.NthSubprefix(bg, 64, uint64(i))
		add(t0.Add(time.Duration(i)*11*time.Second),
			netaddr6.WithIID(p64.Addr(), 7).String(),
			netaddr6.RandomAddrIn(dsts, rng).String(),
			layers.ProtoUDP, 40004, 53)
	}
	// Scanner A returns after a 3-hour lull (above the 1h timeout):
	// a second, separate session — and a mid-stream eviction point for
	// the periodic-advancement paths.
	t2 := t0.Add(4 * time.Hour)
	seqA2 := netaddr6.SequentialAddrs(netaddr6.MustAddr("2001:db8:f000::2000"), 150, 1)
	for i, d := range seqA2 {
		add(t2.Add(time.Duration(i)*4*time.Second), "2001:db8:a::1", d.String(),
			layers.ProtoTCP, 40001, 22)
	}

	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
	return recs
}

func writeFixture(t *testing.T, path string) {
	t.Helper()
	var buf bytes.Buffer
	w := firewall.NewWriter(&buf)
	for _, r := range goldenRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runGolden drives the command seam and returns its stdout.
func runGolden(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String()
}

func goldenCompare(t *testing.T, goldenPath, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
	}
}

func fixturePath(t *testing.T) string {
	t.Helper()
	path := filepath.Join("testdata", "golden.log")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		writeFixture(t, path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	return path
}

// TestGoldenDetect pins `v6scan -filter` output and its shard/
// advancement invariance: -shards 1, -shards 4, and -shards 4 with
// -advance-every 10m must all produce the committed bytes.
func TestGoldenDetect(t *testing.T) {
	log := fixturePath(t)
	base := runGolden(t, "-i", log, "-filter", "-shards", "1")
	goldenCompare(t, filepath.Join("testdata", "golden_detect.txt"), base)

	for _, extra := range [][]string{
		{"-shards", "4"},
		{"-shards", "4", "-advance-every", "10m"},
		{"-shards", "1", "-advance-every", "10m"},
	} {
		args := append([]string{"-i", log, "-filter"}, extra...)
		if got := runGolden(t, args...); got != base {
			t.Errorf("%v: output differs from -shards 1 baseline\n--- got ---\n%s\n--- want ---\n%s", extra, got, base)
		}
	}
}

// TestGoldenCPUProfile: -cpuprofile writes a non-empty profile and
// leaves stdout byte-identical to the golden.
func TestGoldenCPUProfile(t *testing.T) {
	log := fixturePath(t)
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	got := runGolden(t, "-i", log, "-filter", "-shards", "1", "-cpuprofile", prof)
	goldenCompare(t, filepath.Join("testdata", "golden_detect.txt"), got)
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("profile %s: %v, %v", prof, fi, err)
	}
}

// TestGoldenIDS pins `v6scan -ids` output (minute-cadence ticks) and
// its shard invariance at 1 and 4 shards.
func TestGoldenIDS(t *testing.T) {
	log := fixturePath(t)
	got := runGolden(t, "-i", log, "-ids", "-shards", "4")
	goldenCompare(t, filepath.Join("testdata", "golden_ids.txt"), got)

	if serial := runGolden(t, "-i", log, "-ids", "-shards", "1"); serial != got {
		t.Errorf("-ids -shards 1 differs from -shards 4\n--- shards=1 ---\n%s\n--- shards=4 ---\n%s", serial, got)
	}
}

// TestGoldenUnfiltered pins the no-filter run too, so the artifact
// population's contribution (and the filter's effect) is visible as a
// golden diff rather than only a by-hand check.
func TestGoldenUnfiltered(t *testing.T) {
	log := fixturePath(t)
	got := runGolden(t, "-i", log, "-shards", "4")
	goldenCompare(t, filepath.Join("testdata", "golden_nofilter.txt"), got)
	if filtered := runGolden(t, "-i", log, "-filter", "-shards", "4"); filtered == got {
		t.Error("filtered and unfiltered outputs are identical; the fixture's artifact population is not exercising -filter")
	}
}

// TestGoldenParallelDecode pins the tentpole's cmd-level parity: the
// committed goldens must come out byte-identical at every
// -decode-workers count (the no-flag runs above already exercise the
// parallel path at its one-per-CPU default).
func TestGoldenParallelDecode(t *testing.T) {
	log := fixturePath(t)
	base := runGolden(t, "-i", log, "-filter", "-shards", "1")
	goldenCompare(t, filepath.Join("testdata", "golden_detect.txt"), base)
	for _, w := range []string{"1", "2", "8"} {
		if got := runGolden(t, "-i", log, "-filter", "-shards", "1", "-decode-workers", w); got != base {
			t.Errorf("-decode-workers %s: output differs from baseline\n--- got ---\n%s\n--- want ---\n%s", w, got, base)
		}
	}
}

// splitFixture cuts the committed fixture into n chronologically
// contiguous day-file-style logs at record boundaries.
func splitFixture(t *testing.T, log string, n int) []string {
	t.Helper()
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	records := len(data) / firewall.RecordWireSize
	dir := t.TempDir()
	paths := make([]string, n)
	for i := range paths {
		lo := i * records / n * firewall.RecordWireSize
		hi := (i + 1) * records / n * firewall.RecordWireSize
		if i == n-1 {
			hi = len(data)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("day%d.log", i))
		if err := os.WriteFile(paths[i], data[lo:hi], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestGoldenMultiFile pins the k-way merged multi-file ingest: the
// fixture split into three positional day-files must reproduce the
// committed single-file goldens exactly, on the detector and IDS
// paths, serial and sharded.
func TestGoldenMultiFile(t *testing.T) {
	log := fixturePath(t)
	parts := splitFixture(t, log, 3)

	base := runGolden(t, "-i", log, "-filter", "-shards", "4")
	args := append([]string{"-filter", "-shards", "4", "-decode-workers", "2"}, parts...)
	if got := runGolden(t, args...); got != base {
		t.Errorf("merged 3-file run differs from single-file run\n--- got ---\n%s\n--- want ---\n%s", got, base)
	}

	baseIDS := runGolden(t, "-i", log, "-ids", "-shards", "1")
	if got := runGolden(t, append([]string{"-ids", "-shards", "1"}, parts...)...); got != baseIDS {
		t.Errorf("merged -ids run differs from single-file run\n--- got ---\n%s\n--- want ---\n%s", got, baseIDS)
	}
}

// TestMultiFileRejectsStreams pins the CLI contract that only binary
// log files can join a merge.
func TestMultiFileRejectsStreams(t *testing.T) {
	log := fixturePath(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{log, "capture.pcap"}, &stdout, &stderr); err == nil {
		t.Error("merging a .pcap input did not error")
	}
	if err := run([]string{"-i", "-", log}, &stdout, &stderr); err == nil {
		t.Error("merging stdin did not error")
	}
}

// sanity: the fixture generator stays deterministic (the committed log
// must be reproducible from source).
func TestGoldenFixtureDeterministic(t *testing.T) {
	a, b := goldenRecords(), goldenRecords()
	if len(a) != len(b) {
		t.Fatal("generator is nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator is nondeterministic at record %d", i)
		}
	}
	if !*update {
		// The committed fixture must match the generator output.
		var buf bytes.Buffer
		w := firewall.NewWriter(&buf)
		for _, r := range a {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		disk, err := os.ReadFile(filepath.Join("testdata", "golden.log"))
		if err != nil {
			t.Fatalf("missing fixture (regenerate with -update): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), disk) {
			t.Error("committed golden.log does not match the generator; regenerate with -update or revert the generator change")
		}
	}
}

// TestGoldenPublish pins the distributed demonstration end to end: the
// fixture split across N publisher pipelines feeding one aggregator
// over the in-process event bus must reproduce the committed
// single-process goldens byte for byte, on the detector and IDS paths,
// serial and sharded — the tentpole's acceptance bar at the CLI.
func TestGoldenPublish(t *testing.T) {
	log := fixturePath(t)

	base := runGolden(t, "-i", log, "-filter", "-shards", "1")
	goldenCompare(t, filepath.Join("testdata", "golden_detect.txt"), base)
	for _, n := range []string{"1", "3"} {
		for _, shards := range []string{"1", "4"} {
			got := runGolden(t, "-i", log, "-filter", "-shards", shards, "-publish", n)
			if got != base {
				t.Errorf("-publish %s -shards %s: output differs from direct run\n--- got ---\n%s\n--- want ---\n%s",
					n, shards, got, base)
			}
		}
	}

	baseIDS := runGolden(t, "-i", log, "-ids", "-shards", "1")
	if got := runGolden(t, "-i", log, "-ids", "-shards", "1", "-publish", "3"); got != baseIDS {
		t.Errorf("-publish 3 -ids: output differs from direct run\n--- got ---\n%s\n--- want ---\n%s", got, baseIDS)
	}
}

// TestPublishFlagValidation pins the -publish input contract: exactly
// one binary log file, and no -resume (the partition level must match
// the detection levels, which on resume live inside the snapshot).
func TestPublishFlagValidation(t *testing.T) {
	log := fixturePath(t)
	var stdout, stderr bytes.Buffer
	fail := func(wantSubstr string, args ...string) {
		t.Helper()
		stdout.Reset()
		stderr.Reset()
		err := run(args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), wantSubstr) {
			t.Errorf("run(%v): err = %v, want mention of %q", args, err, wantSubstr)
		}
	}
	fail("-resume", "-publish", "3", "-resume",
		"-checkpoint-dir", t.TempDir(), "-checkpoint-every", "1m", "-i", log)
	fail("exactly one", "-publish", "3", "-i", "-")
	fail("exactly one", "-publish", "3", "-i", "capture.pcap")
	fail("exactly one", "-publish", "3", log, log)

	// Against a populated checkpoint dir the refusals must not leave a
	// restored sink's workers running (TestMain fails on the leak):
	// -publish is refused before any restore, and an input that cannot
	// be opened after the restore closes the restored sink.
	ckpt := t.TempDir()
	runGolden(t, "-i", log, "-checkpoint-dir", ckpt, "-checkpoint-every", "10m")
	fail("-resume", "-publish", "3", "-resume",
		"-checkpoint-dir", ckpt, "-checkpoint-every", "10m", "-i", log)
	fail("missing.pcap", "-resume", "-checkpoint-dir", ckpt, "-checkpoint-every", "10m",
		"-i", filepath.Join(t.TempDir(), "missing.pcap"))
}

// TestDuplicateInputRejected pins the multi-file guard at the CLI: the
// same log listed twice must refuse with the duplicate diagnostic
// rather than silently double-counting every record.
func TestDuplicateInputRejected(t *testing.T) {
	log := fixturePath(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{log, log}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "duplicate input") {
		t.Errorf("run with a repeated input: err = %v, want duplicate-input diagnostic", err)
	}
}

// processedLine matches the record count that opens both reports; a
// resumed run counts only the records past its checkpoint.
var processedLine = regexp.MustCompile(`^processed \d+ records`)

// TestGoldenResume pins -resume end to end: a run over a prefix of the
// fixture (the crash) leaves checkpoints taken at 2 shards, and a run
// over the whole fixture with -resume, at 1 and at 3 shards, must print
// the uninterrupted run's committed scan and alert tables. A checkpoint
// of one kind must refuse to resume the other.
func TestGoldenResume(t *testing.T) {
	log := fixturePath(t)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(t.TempDir(), "prefix.log")
	cut := len(data) / firewall.RecordWireSize * 6 / 10 * firewall.RecordWireSize
	if err := os.WriteFile(prefix, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	checkpointed := func(mode []string) string {
		t.Helper()
		dir := t.TempDir()
		runGolden(t, append(mode, "-i", prefix, "-shards", "2", "-checkpoint-dir", dir, "-checkpoint-every", "10m")...)
		return dir
	}

	for _, tc := range []struct {
		name, golden string
		mode         []string
	}{
		{"detect", "golden_nofilter.txt", nil},
		{"ids", "golden_ids.txt", []string{"-ids"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []string{"1", "3"} {
			args := append(tc.mode, "-i", log, "-shards", shards, "-resume",
				"-checkpoint-dir", checkpointed(tc.mode), "-checkpoint-every", "10m")
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("%s -shards %s: %v\nstderr: %s", tc.name, shards, err, stderr.String())
			}
			if stderr.Len() > 0 {
				t.Errorf("%s -shards %s: resume wrote to stderr: %s", tc.name, shards, stderr.String())
			}
			got := stdout.String()
			if got == string(want) {
				t.Errorf("%s -shards %s: resumed run processed every record; it did not skip the checkpointed prefix", tc.name, shards)
			}
			if processedLine.ReplaceAllString(got, "") != processedLine.ReplaceAllString(string(want), "") {
				t.Errorf("%s -shards %s: resumed tables differ from %s\n--- got ---\n%s\n--- want ---\n%s",
					tc.name, shards, tc.golden, got, want)
			}
		}
	}

	for _, tc := range []struct {
		saved, resume []string
		want          string
	}{
		{nil, []string{"-ids"}, "rerun without -ids"},
		{[]string{"-ids"}, nil, "rerun with -ids"},
	} {
		args := append(tc.resume, "-i", log, "-shards", "3", "-resume",
			"-checkpoint-dir", checkpointed(tc.saved), "-checkpoint-every", "10m")
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): err = %v, want mention of %q", args, err, tc.want)
		}
	}
}
