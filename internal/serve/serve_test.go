package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/netaddr6"
)

var testBase = time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC)

// scanBurst is n records from one source to n distinct destinations,
// one per second starting at testBase+off — a scanner the IDS alerts
// on once the candidate idles past the timeout.
func scanBurst(src string, off time.Duration, n int) []firewall.Record {
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, firewall.Record{
			Time: testBase.Add(off + time.Duration(i)*time.Second),
			Src:  netip.MustParseAddr(src),
			Dst:  netip.MustParseAddr(fmt.Sprintf("2001:db8:ffff::%x", i+1)),
		})
	}
	return recs
}

// fillers is one benign record per minute from minute from to minute
// to (exclusive) — distinct single-destination sources that advance
// stream time (arming and firing ticks) without ever alerting.
func fillers(from, to int) []firewall.Record {
	var recs []firewall.Record
	for m := from; m < to; m++ {
		recs = append(recs, firewall.Record{
			Time: testBase.Add(time.Duration(m) * time.Minute),
			Src:  netip.MustParseAddr(fmt.Sprintf("2001:db8:aaaa::%x", m+1)),
			Dst:  netip.MustParseAddr("2001:db8:ffff::1"),
		})
	}
	return recs
}

// appendLog appends encoded records to path, flushing both buffer
// layers so every record is durable when the call returns.
func appendLog(t *testing.T, path string, recs []firewall.Record) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	w := firewall.NewWriter(bw)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// sidecar is the JSON of a checkpoint's "<ckpt>.marks" cadence-phase
// sidecar, as external readers (the CI smoke job, the benchmark) see it.
type sidecar struct {
	Advance    time.Time `json:"advance"`
	Checkpoint time.Time `json:"checkpoint"`
}

// readMarks loads a checkpoint's sidecar; ok=false when it is missing
// or does not parse.
func readMarks(path string) (sidecar, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return sidecar{}, false
	}
	var m sidecar
	return m, json.Unmarshal(b, &m) == nil
}

// latestCheckpoint returns the newest checkpoint in dir, "" when there
// is none: checkpoint names sort in mark order.
func latestCheckpoint(dir string) string {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")) // the pattern is well-formed
	if len(paths) == 0 {
		return ""
	}
	return paths[len(paths)-1]
}

// testIDS is a small-threshold config so 20-destination bursts alert.
func testIDS() ids.Config {
	return ids.Config{MinDsts: 5, Timeout: 10 * time.Minute}
}

// daemonRun drives a Daemon in a goroutine, with helpers to wait for
// ingest progress and to stop it cleanly.
type daemonRun struct {
	d      *Daemon
	cancel context.CancelFunc
	done   chan struct{} // closed once Run has returned err
	err    error
}

// startDaemon runs a daemon until the test stops it; a test that ends
// first, failed or not, cancels it and waits for Run to return, so the
// goroutine check reports no leak on top of the test's own failure.
func startDaemon(t *testing.T, cfg Config) *daemonRun {
	t.Helper()
	if cfg.Poll == 0 {
		cfg.Poll = 2 * time.Millisecond
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	dr := &daemonRun{d: d, cancel: cancel, done: make(chan struct{})}
	go func() {
		dr.err = d.Run(ctx)
		close(dr.done)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-dr.done:
		case <-time.After(10 * time.Second):
			t.Error("daemon did not stop")
		}
	})
	return dr
}

// waitRecords blocks until the pipeline's source has emitted n records
// (raw tail output, before the resume skip).
func (dr *daemonRun) waitRecords(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for dr.d.pm.SourceRecords.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d records, have %d",
				n, dr.d.pm.SourceRecords.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitAlerts blocks until n alerts have been published.
func (dr *daemonRun) waitAlerts(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, total, _ := dr.d.hub.page(0, 0)
		if total >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d alerts, have %d", n, total)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop cancels the run context (the in-process SIGTERM) and waits for
// the clean drain + final checkpoint.
func (dr *daemonRun) stop(t *testing.T) {
	t.Helper()
	dr.cancel()
	select {
	case <-dr.done:
		if dr.err != nil {
			t.Fatalf("daemon exited with %v", dr.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop")
	}
}

// alerts returns every published alert in order.
func (dr *daemonRun) alerts() []SeqAlert {
	out, _, _ := dr.d.hub.page(0, 0)
	return out
}

// alertsJSON renders alerts for content comparison (time and prefix
// representations normalize through the wire shape).
func alertsJSON(t *testing.T, alerts []SeqAlert) string {
	t.Helper()
	var b strings.Builder
	for _, sa := range alerts {
		j, err := json.Marshal(SeqAlert{Alert: sa.Alert}) // drop seq: runs renumber
		if err != nil {
			t.Fatal(err)
		}
		b.Write(j)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestHubBackpressure: publishing only appends to the ring and wakes
// subscribers; a client that falls further behind than the ring holds
// loses only what the ring evicted (counted) and goes on from the
// oldest retained alert; the ring stays bounded with pagination
// reporting the trimmed window; ?from= starts a client at the retained
// suffix.
func TestHubBackpressure(t *testing.T) {
	h := newHub(8)
	slow, next := h.subscribe(0)
	alerts := make([]ids.Alert, 20)
	for i := range alerts {
		alerts[i] = ids.Alert{Prefix: netip.MustParsePrefix("2001:db8::/48")}
	}
	h.publish(alerts[:5])
	select {
	case <-slow.wake:
	default:
		t.Fatal("publish did not wake the subscriber")
	}
	got, next := h.read(next, nil)
	if len(got) != 5 || got[0].Seq != 0 || next != 5 {
		t.Fatalf("first read: %d alerts from %d, cursor %d; want 5 from 0, cursor 5", len(got), got[0].Seq, next)
	}
	// Fifteen more overrun the eight-alert ring: seqs 5–11 are gone.
	h.publish(alerts[5:])
	got, next = h.read(next, got[:0])
	if len(got) != 8 || got[0].Seq != 12 || next != 20 {
		t.Fatalf("lagging read: %d alerts from %d, cursor %d; want 8 from 12, cursor 20", len(got), got[0].Seq, next)
	}
	if _, dropped := h.stats(); dropped != 7 {
		t.Fatalf("dropped = %d, want 7", dropped)
	}
	page, total, first := h.page(0, 0)
	if total != 20 || first != 12 || len(page) != 8 {
		t.Fatalf("page = (%d alerts, total %d, first %d), want (8, 20, 12)", len(page), total, first)
	}
	if page[0].Seq != 12 || page[7].Seq != 19 {
		t.Fatalf("ring window [%d,%d], want [12,19]", page[0].Seq, page[7].Seq)
	}
	// Late subscribers: from inside the ring reads its suffix; from
	// before it starts at the oldest retained alert, counting nothing.
	_, next = h.subscribe(15)
	if got, _ = h.read(next, got[:0]); len(got) != 5 || got[0].Seq != 15 {
		t.Fatalf("read from 15: %d entries starting %d", len(got), got[0].Seq)
	}
	if _, next = h.subscribe(3); next != 12 {
		t.Fatalf("subscribe(3) cursor = %d, want the oldest retained 12", next)
	}
	if _, dropped := h.stats(); dropped != 7 {
		t.Fatalf("late subscribers changed dropped to %d", dropped)
	}
	h.unsubscribe(slow)
	if n, _ := h.stats(); n != 2 {
		t.Fatalf("subscribers = %d after unsubscribe, want 2", n)
	}
	// A client that reads nothing while a catch-up publishes a
	// thousand alerts in bursts loses none the default ring holds.
	h = newHub(0)
	_, next = h.subscribe(0)
	for range 100 {
		h.publish(alerts[:10])
	}
	if got, next = h.read(next, got[:0]); len(got) != 1000 || next != 1000 {
		t.Fatalf("idle client read %d alerts, cursor %d; want all 1000", len(got), next)
	}
	if _, dropped := h.stats(); dropped != 0 {
		t.Fatalf("idle client dropped %d", dropped)
	}
}

// TestBlocklistExport: alerts fold into a deduplicated, sorted,
// atomically rewritten rule file.
func TestBlocklistExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "block.rules")
	b := newBlocklist(path)
	mk := func(p string) ids.Alert { return ids.Alert{Prefix: netip.MustParsePrefix(p)} }
	if !b.add([]ids.Alert{mk("2001:db8:2::/48"), mk("2001:db8:1::/48")}) {
		t.Fatal("add reported no growth")
	}
	if err := b.write(); err != nil {
		t.Fatal(err)
	}
	if b.add([]ids.Alert{mk("2001:db8:1::/48")}) {
		t.Fatal("duplicate grew the set")
	}
	b.add([]ids.Alert{mk("2001:db8:1::/64")})
	if err := b.write(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "2001:db8:1::/48\n2001:db8:1::/64\n2001:db8:2::/48\n"
	if string(got) != want {
		t.Fatalf("blocklist = %q, want %q", got, want)
	}
}

// TestResumeKeepsBlocklist: a resumed daemon's first new alert
// rewrites the blocklist with the earlier run's prefixes still in it.
func TestResumeKeepsBlocklist(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "fw.log")
	block := filepath.Join(dir, "block.rules")
	cfg := Config{
		LogPath:       log,
		IDS:           testIDS(),
		AdvanceEvery:  time.Minute,
		CheckpointDir: filepath.Join(dir, "ckpt"),
		BlocklistPath: block,
	}
	appendLog(t, log, append(scanBurst("2001:db8:bad1::1", 0, 20), fillers(1, 15)...))
	d1 := startDaemon(t, cfg)
	d1.waitAlerts(t, 1)
	d1.stop(t)
	first, err := os.ReadFile(block)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), "2001:db8:bad1:") {
		t.Fatalf("first run's blocklist %q does not name its scanner", first)
	}

	appendLog(t, log, append(scanBurst("2001:db8:bad2::1", 20*time.Minute, 20), fillers(21, 35)...))
	cfg.Resume = true
	d2 := startDaemon(t, cfg)
	d2.waitAlerts(t, 1)
	d2.stop(t)
	want := map[string]bool{}
	for _, line := range strings.Fields(string(first)) {
		want[line] = true
	}
	for _, a := range d2.alerts() {
		if strings.HasPrefix(a.Alert.Prefix.String(), "2001:db8:bad1:") {
			t.Fatalf("resumed run re-alerted on the first scanner: %v", a.Alert.Prefix)
		}
		want[a.Alert.Prefix.String()] = true
	}
	got, err := os.ReadFile(block)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(got))
	if len(lines) != len(want) {
		t.Fatalf("blocklist after resume = %q, want the %d prefixes of both runs", got, len(want))
	}
	for _, line := range lines {
		if !want[line] {
			t.Fatalf("blocklist after resume has unexpected %q", line)
		}
	}
}

// TestResumeBlocklistLoad: on resume a missing rule file is an empty
// set, and a line that is not a prefix fails NewDaemon naming the file
// and line.
func TestResumeBlocklistLoad(t *testing.T) {
	dir := t.TempDir()
	block := filepath.Join(dir, "block.rules")
	cfg := Config{LogPath: filepath.Join(dir, "fw.log"), CheckpointDir: dir, Resume: true, BlocklistPath: block}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatalf("missing blocklist: %v", err)
	}
	if len(d.block.set) != 0 {
		t.Fatalf("missing blocklist loaded %d prefixes", len(d.block.set))
	}
	if err := os.WriteFile(block, []byte("2001:db8:1::/48\nnot-a-prefix\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewDaemon(cfg)
	if err == nil || !strings.Contains(err.Error(), block+":2") {
		t.Fatalf("bad line: err %v, want one naming %s:2", err, block)
	}
}

// TestDaemonEndToEnd: the acceptance scenario — records appended to a
// live log are observed through /api/state, an alert reaches both the
// SSE stream and /api/alerts, /metrics exposes the serving families,
// and cancellation cuts a final checkpoint and ends the SSE stream.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "fw.log")
	ckpt := filepath.Join(dir, "ckpt")
	block := filepath.Join(dir, "block.rules")

	dr := startDaemon(t, Config{
		LogPath:         log,
		Shards:          4,
		IDS:             testIDS(),
		AdvanceEvery:    time.Minute,
		CheckpointEvery: 5 * time.Minute,
		CheckpointDir:   ckpt,
		BlocklistPath:   block,
	})
	srv := httptest.NewServer(dr.d.Handler())
	defer srv.Close()

	// Subscribe to the SSE stream before any alert exists.
	sse, err := http.Get(srv.URL + "/api/alerts/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	events := make(chan string, 16)
	sseEnded := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(sse.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				events <- data
			}
		}
		sseEnded <- sc.Err()
	}()

	// A scan burst appears in the live log and is observed via state.
	burst := scanBurst("2001:db8:bad::1", 0, 20)
	appendLog(t, log, burst)
	dr.waitRecords(t, 20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st State
		resp, err := http.Get(srv.URL + "/api/state")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.Records >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state.Records = %d, want ≥ 20", st.Records)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Stream time advances past the timeout: the eviction tick alerts.
	appendLog(t, log, fillers(1, 15))
	dr.waitAlerts(t, 1)

	select {
	case data := <-events:
		if !strings.Contains(data, "2001:db8:bad::") {
			t.Fatalf("SSE alert %q does not name the scanner", data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no SSE alert arrived")
	}

	// The alert pages out of /api/alerts too.
	resp, err := http.Get(srv.URL + "/api/alerts?offset=0&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	var page alertsPage
	json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if page.Total < 1 || len(page.Alerts) < 1 {
		t.Fatalf("alerts page = %+v, want ≥ 1 alert", page)
	}

	// /metrics carries both pipeline and daemon families.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteByte('\n')
	}
	resp.Body.Close()
	for _, want := range []string{
		"v6scan_pipeline_records_total",
		"v6scan_pipeline_advances_total",
		"v6scand_alerts_total",
		"v6scand_ids_candidates{level=\"/48\"}",
		"v6scand_sse_clients 1",
		"v6scand_shard_queue_depth",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The blocklist export names the scanner.
	rules, err := os.ReadFile(block)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rules), "2001:db8:bad::") {
		t.Fatalf("blocklist %q does not name the scanner", rules)
	}

	// SIGTERM path: clean stop cuts a final checkpoint with sidecar.
	dr.stop(t)
	latest := latestCheckpoint(ckpt)
	if latest == "" {
		t.Fatal("no final checkpoint")
	}
	if _, ok := readMarks(latest + ".marks"); !ok {
		t.Fatalf("final checkpoint %s has no marks sidecar", latest)
	}
	if st := dr.d.State(); st.Running {
		t.Fatal("state still Running after stop")
	}
	// The stopped daemon ends the SSE stream itself, so a server
	// Shutdown does not wait for the client to hang up.
	select {
	case err := <-sseEnded:
		if err != nil {
			t.Fatalf("SSE stream ended with %v, want EOF", err)
		}
	case <-time.After(time.Second):
		t.Fatal("SSE stream still open 1s after the daemon stopped")
	}
}

// TestDaemonFollowsRotation: a log renamed away mid-run and recreated
// at its path is followed by the tail itself — the scanner seen in the
// old file alerts exactly once on the time jump written to the new
// one, and the pipeline never restarts or re-reads a record.
func TestDaemonFollowsRotation(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "fw.log")
	dr := startDaemon(t, Config{LogPath: log, IDS: testIDS(), AdvanceEvery: time.Minute})
	burst := scanBurst("2001:db8:bad::1", 0, 20)
	appendLog(t, log, burst)
	dr.waitRecords(t, uint64(len(burst))) // the old file drained before it rotates

	if err := os.Rename(log, log+".1"); err != nil {
		t.Fatal(err)
	}
	jump := fillers(1, 15)
	appendLog(t, log, jump)
	dr.waitAlerts(t, 1)
	dr.waitRecords(t, uint64(len(burst)+len(jump)))
	dr.stop(t)

	got := alertsJSON(t, dr.alerts())
	if n := strings.Count(got, `"prefix":"2001:db8:bad::1/128"`); n != 1 {
		t.Fatalf("scanner alert published %d times, want once:\n%s", n, got)
	}
	st := dr.d.State()
	if st.Tail.Rotations != 1 {
		t.Fatalf("Tail.Rotations = %d, want 1", st.Tail.Rotations)
	}
	if want := uint64(len(burst) + len(jump)); st.Generation != 1 || st.Records != want {
		t.Fatalf("generation %d with %d records read, want one run reading each of the %d records once",
			st.Generation, st.Records, want)
	}
}

// TestStateTracksQuietLog: records appended right after a publish,
// after which the log goes quiet, reach /api/state within a tail poll
// — with a one-minute tick, no fire or later batch publishes them.
func TestStateTracksQuietLog(t *testing.T) {
	log := filepath.Join(t.TempDir(), "fw.log")
	dr := startDaemon(t, Config{LogPath: log, IDS: testIDS(), AdvanceEvery: time.Minute})
	waitState := func(what string, ok func(*State) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !ok(dr.d.State()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: state %+v", what, dr.d.State())
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The record at minute 1 fires the minute-1 tick, which publishes.
	appendLog(t, log, fillers(0, 2))
	waitState("tick fired", func(s *State) bool { return s.Records == 2 && s.LastTick.Equal(testBase.Add(time.Minute)) })
	// Five more inside minute 1: no tick fires, and the log goes quiet.
	burst := scanBurst("2001:db8:bad::1", time.Minute+time.Second, 5)
	appendLog(t, log, burst)
	fi, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	last := burst[len(burst)-1].Time
	waitState("quiet log", func(s *State) bool {
		return s.Records == 7 && s.StreamTime.Equal(last) && s.Tail.Offset == fi.Size()
	})
	rr := httptest.NewRecorder()
	dr.d.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/state", nil))
	var st struct {
		Records    uint64    `json:"records"`
		StreamTime time.Time `json:"stream_time"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Records != 7 || !st.StreamTime.Equal(last) {
		t.Fatalf("/api/state: %d records at %v, want 7 at %v", st.Records, st.StreamTime, last)
	}
	dr.stop(t)
}

// TestNewDaemonRejectsCheckpointWithoutDir: a checkpoint setting with
// nowhere to write is a configuration error up front, not a cadence
// that silently never fires.
func TestNewDaemonRejectsCheckpointWithoutDir(t *testing.T) {
	for name, cfg := range map[string]Config{
		"Resume":          {LogPath: "fw.log", Resume: true},
		"CheckpointEvery": {LogPath: "fw.log", CheckpointEvery: time.Hour},
	} {
		if _, err := NewDaemon(cfg); err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
			t.Errorf("%s without CheckpointDir: err = %v, want a CheckpointDir error", name, err)
		}
	}
	if _, err := NewDaemon(Config{LogPath: "fw.log", CheckpointEvery: time.Hour, CheckpointDir: t.TempDir()}); err != nil {
		t.Fatalf("valid checkpoint config rejected: %v", err)
	}
}

// TestDroppedPerShardGaugeOneShard: at one shard the per-shard drop
// gauge is filled like any other, so it equals the total.
func TestDroppedPerShardGaugeOneShard(t *testing.T) {
	log := filepath.Join(t.TempDir(), "fw.log")
	cfg := testIDS()
	cfg.MaxCandidates = 2
	dr := startDaemon(t, Config{LogPath: log, Shards: 1, IDS: cfg, AdvanceEvery: time.Minute})
	// Ten distinct sources inside the timeout against a two-candidate
	// table; every minute fires a tick that publishes the counters.
	appendLog(t, log, fillers(0, 10))
	deadline := time.Now().Add(10 * time.Second)
	for dr.d.State().DroppedCandidates == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no MaxCandidates drop published")
		}
		time.Sleep(time.Millisecond)
	}
	dr.stop(t)
	var b strings.Builder
	if err := dr.d.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	value := func(series string) string {
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				return v
			}
		}
		t.Fatalf("/metrics has no %s", series)
		return ""
	}
	total, shard0 := value("v6scand_ids_dropped_candidates"), value(`v6scand_ids_dropped_candidates_shard{shard="0"}`)
	if total == "0" || shard0 != total {
		t.Fatalf("shard 0 gauge = %s, total = %s; want the total, nonzero", shard0, total)
	}
	if got := dr.d.State().DroppedPerShard; len(got) != 1 || got[0] != dr.d.State().DroppedCandidates {
		t.Fatalf("State.DroppedPerShard = %v, want [%d]", got, dr.d.State().DroppedCandidates)
	}
}

// TestResumeReportsEngineLevels: detection parameters travel in the
// checkpoint, so a daemon resumed under a different configuration
// reports the restored engine's levels — in /api/state, /api/sessions
// and the candidate gauges — not the configured ones.
func TestResumeReportsEngineLevels(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "fw.log")
	cfg := Config{LogPath: log, AdvanceEvery: time.Minute, CheckpointDir: filepath.Join(dir, "ckpt")}
	cfg.IDS = testIDS()
	cfg.IDS.Levels = []netaddr6.AggLevel{netaddr6.Agg128, 56}
	appendLog(t, log, fillers(0, 10))
	d1 := startDaemon(t, cfg)
	d1.waitRecords(t, 10)
	d1.stop(t)

	cfg.IDS, cfg.Resume = testIDS(), true // the default levels
	appendLog(t, log, fillers(10, 12))
	d2 := startDaemon(t, cfg)
	deadline := time.Now().Add(10 * time.Second)
	for len(d2.d.State().Candidates) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no tick published after resume")
		}
		time.Sleep(time.Millisecond)
	}
	d2.stop(t)

	want := []string{"/128", "/56"}
	var got []string
	for l := range d2.d.State().Candidates {
		got = append(got, l)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("/api/state candidates %v, want levels %v", d2.d.State().Candidates, want)
	}
	rec := httptest.NewRecorder()
	d2.d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/sessions", nil))
	var sessions struct{ Levels []sessionLevel }
	if err := json.Unmarshal(rec.Body.Bytes(), &sessions); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, l := range sessions.Levels {
		got = append(got, l.Level)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("/api/sessions levels %v, want %v", got, want)
	}
	var b strings.Builder
	if err := d2.d.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{"/128", "/56", "/32"} {
		series := `v6scand_ids_candidates{level="` + l + `"}`
		if has := strings.Contains(b.String(), series); has != slices.Contains(want, l) {
			t.Errorf("/metrics has %s: %v", series, has)
		}
	}
}
